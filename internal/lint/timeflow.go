package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The timeflow rule proves event-time monotonicity: an argument reaching a
// //bear:clock-checked parameter of a schedule function (event.Queue.At,
// the dram enqueue path) must be provably >= the current simulated time.
// The calendar queue silently misfiles events scheduled in the past — the
// bug corrupts results instead of crashing, which is exactly why it gets a
// static rule.
//
// The analysis is a must-dataflow over the shared CFG: the state is the set
// of expressions known to be clock-safe on every path (merged by
// intersection), seeded from the function's trusted parameters (explicit
// //bear:clock names, plus any unsigned parameter named `now` or `t` — the
// repository-wide convention for the current cycle). Safety composes
// structurally:
//
//   - a trusted parameter, or a local the analysis saw assigned from a safe
//     expression (reassignment from an unsafe one revokes it);
//   - a read of a //bear:clock struct field (event.Queue.now), including
//     elements of an indexable annotated field;
//   - a call whose //bear:clock annotation marks the result, or any
//     zero-argument method named Now;
//   - safe + unsigned (time only moves forward), max/max64 with at least
//     one safe operand, parenthesization and conversions;
//   - branch refinement: on the taken edge of `x > safe` / `x >= safe`
//     (and the not-taken edge of the mirrored comparisons), x becomes safe.
//
// Everything else is tainted — in particular clock subtractions and raw
// integer literals, the two historical ways to schedule into the past.
// Function literals are not followed: their bodies execute under a
// different clock than the point of creation.

// tfEnv is the set of clock-safe expression keys (types.ExprString form).
type tfEnv = map[string]bool

type timeFlow struct {
	pkg         *Package
	sums        map[string]*fnSummary
	clockFields map[string]bool
	report      reporter
	fd          *ast.FuncDecl
	reported    map[token.Pos]bool
}

func (p *Program) checkTimeflow(pkg *Package, sums map[string]*fnSummary, clockFields map[string]bool, report reporter) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s := p.summaryFor(pkg, fd, sums)
			if s == nil {
				continue
			}
			tf := &timeFlow{pkg: pkg, sums: sums, clockFields: clockFields,
				report: report, fd: fd, reported: map[token.Pos]bool{}}
			c := buildCFG(fd, pkg.Info)
			in := solve[tfEnv](c, tf)
			replay[tfEnv](c, tf, in)
		}
	}
}

// entry seeds the state with the function's trusted clock parameters.
func (tf *timeFlow) entry() tfEnv {
	e := tfEnv{}
	s := tf.sums[tf.fullName()]
	var spec *clockSpec
	if s != nil {
		spec = s.clock
	}
	if tf.fd.Type.Params == nil {
		return e
	}
	for _, field := range tf.fd.Type.Params.List {
		for _, name := range field.Names {
			explicit := spec != nil && spec.params[name.Name]
			implicit := (name.Name == "now" || name.Name == "t") && tf.unsignedIdent(name)
			if explicit || implicit {
				e[name.Name] = true
			}
		}
	}
	return e
}

func (tf *timeFlow) fullName() string {
	if obj, ok := tf.pkg.Info.Defs[tf.fd.Name].(*types.Func); ok {
		return obj.FullName()
	}
	return ""
}

func (tf *timeFlow) unsignedIdent(id *ast.Ident) bool {
	v, ok := tf.pkg.Info.Defs[id].(*types.Var)
	if !ok {
		return false
	}
	return isUnsigned(v.Type())
}

func isUnsigned(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

func (tf *timeFlow) clone(e tfEnv) tfEnv {
	out := make(tfEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// merge intersects: a key is safe only if safe on every incoming path.
func (tf *timeFlow) merge(dst, src tfEnv) bool {
	changed := false
	for k := range dst {
		if !src[k] {
			delete(dst, k)
			changed = true //bear:nolint maprange — set intersection per independent key
		}
	}
	return changed
}

// refine adds keys proven safe by the branch condition along this edge.
func (tf *timeFlow) refine(e tfEnv, cond ast.Expr, taken bool) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if taken {
				tf.refine(e, c.X, true)
				tf.refine(e, c.Y, true)
			}
		case token.LOR:
			if !taken {
				tf.refine(e, c.X, false)
				tf.refine(e, c.Y, false)
			}
		case token.GTR, token.GEQ: // x > safe (taken) / x >= safe (taken)
			if taken {
				tf.refineCmp(e, c.X, c.Y)
			} else { // !(x > safe): safe >= x proves nothing about x
				tf.refineCmp(e, c.Y, c.X)
			}
		case token.LSS, token.LEQ: // safe < x (taken) proves x
			if taken {
				tf.refineCmp(e, c.Y, c.X)
			} else {
				tf.refineCmp(e, c.X, c.Y)
			}
		case token.EQL:
			if taken {
				tf.refineCmp(e, c.X, c.Y)
				tf.refineCmp(e, c.Y, c.X)
			}
		}
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			tf.refine(e, c.X, !taken)
		}
	}
}

// refineCmp marks x safe when it is proven >= a safe bound.
func (tf *timeFlow) refineCmp(e tfEnv, x, bound ast.Expr) {
	if !tf.safe(bound, e) {
		return
	}
	if k, ok := tf.keyFor(x); ok {
		e[k] = true
	}
}

// keyFor returns the state key for an assignable expression (identifier or
// field selector chain).
func (tf *timeFlow) keyFor(x ast.Expr) (string, bool) {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		return types.ExprString(e), true
	}
	return "", false
}

func (tf *timeFlow) transfer(e tfEnv, n ast.Node, report bool) {
	// Check every schedule call in the node before modelling assignments
	// (arguments evaluate under the pre-assignment state, and Go evaluates
	// RHS before LHS writes).
	tf.checkCalls(n, e, report)

	switch s := n.(type) {
	case *ast.AssignStmt:
		tf.assign(s, e)
	case *ast.IncDecStmt:
		if k, ok := tf.keyFor(s.X); ok && s.Tok == token.DEC {
			delete(e, k)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) && tf.safe(vs.Values[i], e) {
						e[name.Name] = true
					} else {
						delete(e, name.Name)
					}
				}
			}
		}
	case *ast.RangeStmt:
		// per-iteration bindings hold arbitrary values
		for _, x := range []ast.Expr{s.Key, s.Value} {
			if x != nil {
				if k, ok := tf.keyFor(x); ok {
					delete(e, k)
				}
			}
		}
	}
}

func (tf *timeFlow) assign(s *ast.AssignStmt, e tfEnv) {
	// Tuple form: a, b := f() with //bear:clock result=<k> on f.
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		var results map[int]bool
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if cs := tf.clockSpecOf(call); cs != nil {
				results = cs.results
			}
		}
		for i, lhs := range s.Lhs {
			k, ok := tf.keyFor(lhs)
			if !ok {
				continue
			}
			if results[i] {
				e[k] = true
			} else {
				delete(e, k)
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		k, ok := tf.keyFor(lhs)
		if !ok {
			continue
		}
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			if i < len(s.Rhs) && tf.safe(s.Rhs[i], e) {
				e[k] = true
			} else {
				delete(e, k)
			}
		case token.ADD_ASSIGN:
			// x += unsigned keeps x >= its old value; anything else revokes.
			if !(e[k] && i < len(s.Rhs) && isUnsigned(tf.pkg.Info.TypeOf(s.Rhs[i]))) {
				delete(e, k)
			}
		default:
			delete(e, k)
		}
	}
}

// checkCalls verifies every //bear:clock-checked argument of calls inside
// n, without descending into function literals.
func (tf *timeFlow) checkCalls(n ast.Node, e tfEnv, report bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		spec := tf.clockSpecOf(call)
		if spec == nil || len(spec.params) == 0 {
			return true
		}
		fn := funcFor(tf.pkg.Info, call)
		callee := tf.sums[fn.FullName()]
		if callee == nil || callee.decl.Type.Params == nil {
			return true
		}
		idx := 0
		for _, field := range callee.decl.Type.Params.List {
			for _, name := range field.Names {
				if spec.params[name.Name] && idx < len(call.Args) {
					tf.checkArg(call.Args[idx], name.Name, displayName(fn), e, report)
				}
				idx++
			}
		}
		return true
	})
}

func (tf *timeFlow) clockSpecOf(call *ast.CallExpr) *clockSpec {
	fn := funcFor(tf.pkg.Info, call)
	if fn == nil {
		return nil
	}
	if s := tf.sums[fn.FullName()]; s != nil {
		return s.clock
	}
	return nil
}

func (tf *timeFlow) checkArg(arg ast.Expr, param, callee string, e tfEnv, report bool) {
	if tf.safe(arg, e) {
		return
	}
	if !report || tf.reported[arg.Pos()] {
		return
	}
	tf.reported[arg.Pos()] = true
	why := "is not provably >= the current simulated time"
	if containsSub(arg) {
		why = "subtracts from a clock value; schedule with a non-negative delay instead"
	} else if isIntLiteral(arg) {
		why = "is a raw literal, not a simulated time derived from now"
	}
	tf.report(tf.pkg, RuleTimeflow, arg.Pos(),
		"argument %s to clock parameter %s of %s %s (events scheduled in the past are silently misfiled)",
		types.ExprString(arg), param, callee, why)
}

// safe reports whether expr is provably >= now given the current state.
func (tf *timeFlow) safe(expr ast.Expr, e tfEnv) bool {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e[x.Name]
	case *ast.SelectorExpr:
		if e[types.ExprString(x)] {
			return true
		}
		return tf.clockField(x)
	case *ast.IndexExpr:
		// h[i] is safe when h itself is a trusted clock container.
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && tf.clockField(sel) {
			return true
		}
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && e[id.Name] {
			return true
		}
		return false
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return false
		}
		// safe + unsigned or unsigned + safe: unsigned addition cannot move
		// a clock backwards.
		if tf.safe(x.X, e) && isUnsigned(tf.pkg.Info.TypeOf(x.Y)) {
			return true
		}
		return tf.safe(x.Y, e) && isUnsigned(tf.pkg.Info.TypeOf(x.X))
	case *ast.CallExpr:
		return tf.safeCall(x, e)
	}
	return false
}

func (tf *timeFlow) safeCall(call *ast.CallExpr, e tfEnv) bool {
	// Conversion: uint64(x) is as safe as x.
	if tv, ok := tf.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return tf.safe(call.Args[0], e)
	}
	// max(a, b, ...) is >= every operand: one safe operand suffices. The
	// project's max64 helper gets the same structural treatment as the
	// builtin.
	if builtinName(tf.pkg.Info, call) == "max" {
		for _, a := range call.Args {
			if tf.safe(a, e) {
				return true
			}
		}
		return false
	}
	fn := funcFor(tf.pkg.Info, call)
	if fn == nil {
		return false
	}
	if fn.Name() == "max64" && len(call.Args) >= 1 {
		for _, a := range call.Args {
			if tf.safe(a, e) {
				return true
			}
		}
		return false
	}
	// A zero-argument method named Now reads the current simulated time.
	if fn.Name() == "Now" && len(call.Args) == 0 {
		return true
	}
	if s := tf.sums[fn.FullName()]; s != nil && s.clock != nil && s.clock.results[0] {
		return true
	}
	return false
}

// clockField reports whether sel resolves to a struct field annotated
// //bear:clock (keyed "pkgpath.Struct.Field"; see collectClockFields).
func (tf *timeFlow) clockField(sel *ast.SelectorExpr) bool {
	selection, ok := tf.pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	f, ok := selection.Obj().(*types.Var)
	if !ok || !f.IsField() || f.Pkg() == nil {
		return false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	return tf.clockFields[f.Pkg().Path()+"."+named.Obj().Name()+"."+f.Name()]
}

func containsSub(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.SUB {
			found = true
		}
		return !found
	})
	return found
}

func isIntLiteral(expr ast.Expr) bool {
	e := ast.Unparen(expr)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		e = ast.Unparen(call.Args[0])
	}
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT
}

func (p *Program) summaryFor(pkg *Package, fd *ast.FuncDecl, sums map[string]*fnSummary) *fnSummary {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return sums[obj.FullName()]
}

// displayName renders fn as Type.Method or Func for diagnostics.
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
