package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The hot-path rule makes the alloc-freedom PR 2/3 established by hand a
// machine-checked property: a function annotated //bear:hotpath (the
// per-access entry points of the event kernel, the DRAM model, the SRAM
// caches, the core retire loop, the hierarchy miss path and the DRAM-cache
// engine) must be steady-state allocation-free. Flagged constructs:
//
//   - capturing function literals (the per-access closures PR 2 removed;
//     non-capturing literals compile to static funcs and are fine);
//   - fmt.Sprintf/Sprint/Sprintln/Errorf and errors.New outside panic
//     arguments (panics are cold by definition);
//   - append whose destination is a function-local slice (appends into
//     fields of pooled/long-lived objects retain their capacity and are
//     the sanctioned pattern — e.waiters, q.h, t.h);
//   - map composite literals and make(map...);
//   - calls to unannotated project functions that transitively contain any
//     of the above, resolved over the go/types call graph. Calls to other
//     //bear:hotpath functions are trusted (they are checked at their own
//     declaration); dynamic calls (interface methods, function values)
//     cannot be resolved statically and are not followed.

// construct is one allocating construct found in a function body.
type construct struct {
	pos  token.Pos
	what string
}

// callEdge is one statically resolvable call out of a function.
type callEdge struct {
	target string // types.Func.FullName of the callee
	pos    token.Pos
	name   string // display name
}

// fnSummary is the per-function result of pass 1, keyed by FullName so the
// transitive pass can cross package boundaries.
type fnSummary struct {
	pkg        *Package
	decl       *ast.FuncDecl
	hotpath    bool
	acquire    bool
	clock      *clockSpec // //bear:clock — trusted/checked clock params (timeflow rule)
	annotErrs  []annotErr
	constructs []construct
	calls      []callEdge

	dirtyState int // 0 unknown, 1 in progress/clean, 2 dirty
	dirtyVia   *construct
	dirtyPath  string
}

// summarize runs pass 1 over every package: one summary per declared
// function, recording its allocating constructs and outgoing static calls.
func (p *Program) summarize() map[string]*fnSummary {
	sums := map[string]*fnSummary{}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s := &fnSummary{
					pkg:     pkg,
					decl:    fd,
					hotpath: hasAnnotation(fd, "//bear:hotpath"),
					acquire: hasAnnotation(fd, "//bear:acquire"),
				}
				parseAnnotations(fd, s)
				p.scanBody(pkg, fd, s)
				sums[obj.FullName()] = s
			}
		}
	}
	return sums
}

// hasAnnotation reports whether the function's doc comment carries the
// given //bear: marker.
func hasAnnotation(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == marker || strings.HasPrefix(c.Text, marker+" ") {
			return true
		}
	}
	return false
}

// scanBody fills s.constructs and s.calls for fd. inPanic tracks descent
// into panic arguments, which are exempt from the formatting rules.
func (p *Program) scanBody(pkg *Package, fd *ast.FuncDecl, s *fnSummary) {
	var walk func(n ast.Node, inPanic bool)
	walk = func(n ast.Node, inPanic bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			if caps := captures(pkg.Info, fd, n); len(caps) > 0 {
				s.constructs = append(s.constructs, construct{n.Pos(),
					"function literal capturing " + strings.Join(caps, ", ")})
			}
			// Walk the literal body too: its constructs execute (and
			// allocate) when the closure runs.
			for _, stmt := range n.Body.List {
				walk(stmt, inPanic)
			}
			return
		case *ast.CompositeLit:
			if t := pkg.Info.TypeOf(n); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					s.constructs = append(s.constructs, construct{n.Pos(), "map literal"})
				}
			}
		case *ast.CallExpr:
			p.scanCall(pkg, n, s, inPanic)
			if builtinName(pkg.Info, n) == "panic" {
				for _, arg := range n.Args {
					walk(arg, true)
				}
				return
			}
		}
		// Default traversal.
		for _, child := range childNodes(n) {
			walk(child, inPanic)
		}
	}
	for _, stmt := range fd.Body.List {
		walk(stmt, false)
	}
}

// childNodes collects the direct children of n in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first { // n itself
			first = false
			return true
		}
		if m == nil {
			return false
		}
		out = append(out, m)
		return false
	})
	return out
}

// allocFormatters are stdlib calls that always allocate their result.
var allocFormatters = map[[2]string]bool{
	{"fmt", "Sprintf"}:  true,
	{"fmt", "Sprint"}:   true,
	{"fmt", "Sprintln"}: true,
	{"fmt", "Errorf"}:   true,
	{"errors", "New"}:   true,
}

func (p *Program) scanCall(pkg *Package, call *ast.CallExpr, s *fnSummary, inPanic bool) {
	switch builtinName(pkg.Info, call) {
	case "append":
		if len(call.Args) > 0 {
			if dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if v, ok := obj(pkg.Info, dst).(*types.Var); ok && !v.IsField() && v.Parent() != pkg.Types.Scope() && v.Parent() != types.Universe {
					s.constructs = append(s.constructs, construct{call.Pos(),
						"append to function-local slice " + dst.Name + " (allocates per call; append into a pooled object's field instead)"})
				}
			}
		}
		return
	case "make":
		if len(call.Args) > 0 {
			if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.IsType() {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					s.constructs = append(s.constructs, construct{call.Pos(), "make(map)"})
				}
			}
		}
		return
	case "":
		// not a builtin; fall through
	default:
		return
	}

	fn := funcFor(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if allocFormatters[[2]string{fn.Pkg().Path(), fn.Name()}] {
		if !inPanic {
			s.constructs = append(s.constructs, construct{call.Pos(),
				fn.Pkg().Name() + "." + fn.Name() + " (allocates; pre-format off the hot path)"})
		}
		return
	}
	if inPanic {
		// Panic arguments are cold by definition, so calls made only to
		// build them — typed invariant constructors like fault.Invariantf —
		// are not chased through the call graph.
		return
	}
	s.calls = append(s.calls, callEdge{target: fn.FullName(), pos: call.Pos(), name: displayName(fn)})
}

func displayName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

func obj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// captures returns the names of variables a function literal closes over:
// identifiers resolving to objects declared inside the enclosing function
// but outside the literal. Package-level state is not a capture.
func captures(info *types.Info, encl *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pos() == token.NoPos {
			return true
		}
		if v.Pos() >= encl.Pos() && v.Pos() < encl.End() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			if !seen[id.Name] {
				seen[id.Name] = true
				out = append(out, id.Name)
			}
		}
		return true
	})
	return out
}

// checkHotPaths runs pass 2: report every construct in an annotated
// function, then chase unannotated callees through the call graph.
func (p *Program) checkHotPaths(sums map[string]*fnSummary, report reporter) {
	for _, s := range sums {
		if !s.hotpath {
			continue
		}
		for _, c := range s.constructs {
			report(s.pkg, RuleHotPath, c.pos, "%s in //bear:hotpath function %s", c.what, s.decl.Name.Name)
		}
		for _, e := range s.calls {
			t := sums[e.target]
			if t == nil || t.hotpath {
				continue
			}
			if via, path := dirty(sums, e.target); via != nil {
				report(s.pkg, RuleHotPath, e.pos,
					"//bear:hotpath function %s calls %s, which allocates: %s at %s (annotate the callee //bear:hotpath or move the allocation off the hot path)",
					s.decl.Name.Name, path, via.what, p.Fset.Position(via.pos))
			}
		}
	}
}

// dirty reports whether the function behind key transitively contains an
// allocating construct, returning the construct and the call path to it.
// Cycles resolve to clean (a cycle with no construct allocates nothing).
func dirty(sums map[string]*fnSummary, key string) (*construct, string) {
	s := sums[key]
	if s == nil || s.hotpath {
		return nil, ""
	}
	switch s.dirtyState {
	case 1:
		return nil, "" // in progress (cycle) or known clean
	case 2:
		return s.dirtyVia, s.dirtyPath
	}
	s.dirtyState = 1
	name := s.decl.Name.Name
	if len(s.constructs) > 0 {
		s.dirtyState = 2
		s.dirtyVia = &s.constructs[0]
		s.dirtyPath = name
		return s.dirtyVia, s.dirtyPath
	}
	for _, e := range s.calls {
		if via, path := dirty(sums, e.target); via != nil {
			s.dirtyState = 2
			s.dirtyVia = via
			s.dirtyPath = name + " -> " + path
			return via, s.dirtyPath
		}
	}
	return nil, ""
}
