// Package lint implements simlint, the repository's static analyzer. It
// enforces, at analysis time, the invariants the simulator's correctness
// rests on that neither the type system nor a running simulation can check:
//
//   - determinism: simulation packages must not read wall-clock time,
//     ambient randomness or the environment, must not iterate maps into
//     order-sensitive sinks, and must not spawn goroutines outside the
//     sanctioned concurrency layer (internal/exp).
//   - typed invariants: engine packages must not panic with bare strings;
//     they raise typed errors (fault.Invariantf) that the fault-isolation
//     recover in internal/exp can classify.
//
// Every rule is a syntactic walk over one type-checked package; none needs
// control flow or dataflow. A //bear:nolint naming no known rule is itself
// reported, so a suppression cannot outlive the rule it silenced.
//
// Properties a running simulation can check on itself are checked there
// instead: event times by the past-time panics in event.Queue.At and
// dram.Memory.Enqueue, the stats census by TestStatsCensus in the root
// package, freelist leaks by live counts at the -check drain (hier.Sim),
// steady-state allocation by TestSteadyStateAllocs, duplicate experiment
// ids by the registry's init-time panic, and a missing Layout by the
// dramcache controller constructor's required argument.
//
// The analyzer is built on the standard library only (go/parser, go/ast,
// go/types with go/importer's source mode); see cmd/simlint for the CLI and
// ARCHITECTURE.md ("Enforced invariants") for the rule catalogue and the
// //bear:nolint escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Rule names, used in diagnostics and matched by //bear:nolint comments.
const (
	RuleDeterminism = "determinism" // wall clock, ambient randomness, environment
	RuleMapRange    = "maprange"    // map iteration into an order-sensitive sink
	RuleGoroutine   = "goroutine"   // go statement outside the sanctioned layer
	RuleInvariant   = "invariant"   // bare string panic in an engine package
	RuleNolint      = "nolint"      // //bear:nolint naming no known rule
)

// knownRules are the names a //bear:nolint may suppress.
var knownRules = map[string]bool{
	RuleDeterminism: true, RuleMapRange: true, RuleGoroutine: true, RuleInvariant: true,
}

// Diagnostic is one finding, positioned for file:line reporting.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Config selects which rule families apply to which packages, keyed by
// import path. The zero value applies every rule everywhere.
type Config struct {
	// Determinism gates the wall-clock/randomness/environment rules and the
	// goroutine rule. Nil means every package.
	Determinism func(pkgPath string) bool
	// AllowGo exempts a package from the goroutine rule even when
	// Determinism selects it (internal/exp, the worker-pool layer).
	AllowGo func(pkgPath string) bool
	// MapRange gates the map-iteration rule. Nil means every package.
	MapRange func(pkgPath string) bool
	// InvariantPanic gates the bare-string-panic rule. Unlike the other
	// gates, nil disables the rule entirely: it is an engine-package
	// contract (typed invariant errors that recover layers can classify),
	// not a repository-wide one, so it applies only where the caller
	// opts packages in.
	InvariantPanic func(pkgPath string) bool
}

func (c Config) determinism(path string) bool {
	return c.Determinism == nil || c.Determinism(path)
}

func (c Config) allowGo(path string) bool {
	return c.AllowGo != nil && c.AllowGo(path)
}

func (c Config) mapRange(path string) bool {
	return c.MapRange == nil || c.MapRange(path)
}

func (c Config) invariantPanic(path string) bool {
	return c.InvariantPanic != nil && c.InvariantPanic(path)
}

// Package is one parsed and type-checked package under analysis.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// nolint maps file -> line -> suppressed rule set.
	nolint map[string]map[int]map[string]bool
	// badNolint holds the //bear:nolint comments that name no known rule.
	badNolint []Diagnostic
}

// Program is the full set of packages under analysis, sharing one FileSet
// so cross-package positions compare and print uniformly.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Load parses and type-checks the packages in dirs. module is the import
// path of root (the directory containing go.mod, or the fixture root);
// each dir's import path is derived from its location under root.
// Dependencies — standard library and project packages alike — are resolved
// from source via go/importer, so nothing needs to be pre-compiled.
func Load(module, root string, dirs []string) (*Program, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	prog := &Program{Fset: fset}

	for _, dir := range dirs {
		path, err := importPath(module, root, dir)
		if err != nil {
			return nil, err
		}
		pkg, err := loadPackage(fset, imp, path, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			prog.Pkgs = append(prog.Pkgs, pkg)
		}
	}
	return prog, nil
}

func loadPackage(fset *token.FileSet, imp types.Importer, path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var hard []error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok && te.Soft {
				return // e.g. "declared and not used" in fixtures
			}
			hard = append(hard, err)
		},
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(hard) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, hard[0])
	}

	nolint, bad := collectNolint(fset, files)
	return &Package{
		Path:      path,
		Dir:       dir,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		nolint:    nolint,
		badNolint: bad,
	}, nil
}

func importPath(module, root, dir string) (string, error) {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return module, nil
	}
	return module + "/" + filepath.ToSlash(rel), nil
}

// SkipDir reports whether a walk of the module tree rooted at root skips
// the directory at path: testdata, VCS metadata, hidden and underscore
// directories, and nested modules — any directory below root holding its
// own go.mod, which `go list ./...` leaves out as well. The root itself is
// never skipped.
func SkipDir(root, path string) bool {
	if path == root {
		return false
	}
	name := filepath.Base(path)
	if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return true
	}
	_, err := os.Stat(filepath.Join(path, "go.mod"))
	return err == nil
}

// FindPackageDirs walks root collecting directories that contain non-test
// Go files, skipping the directories SkipDir names.
func FindPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			if SkipDir(root, path) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// Run applies every check family and returns the surviving diagnostics in
// position order.
func (p *Program) Run(cfg Config) []Diagnostic {
	var diags []Diagnostic
	report := func(pkg *Package, rule string, pos token.Pos, format string, args ...any) {
		position := p.Fset.Position(pos)
		if pkg.suppressed(position, rule) {
			return
		}
		diags = append(diags, Diagnostic{Pos: position, Rule: rule, Message: fmt.Sprintf(format, args...)})
	}

	for _, pkg := range p.Pkgs {
		p.checkDeterminism(pkg, cfg, report)
		p.checkInvariantPanics(pkg, cfg, report)
		diags = append(diags, pkg.badNolint...)
	}

	// Sort by (file, line, column, rule, message) so output is byte-stable
	// across the source importer's package-walk order.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// Nolint is one parsed //bear:nolint comment.
type Nolint struct {
	Rules  []string // the names before the rationale, in order; none is empty
	Reason string   // the rationale after the first em or double dash, trimmed
}

const nolintMarker = "//bear:nolint"

// ParseNolint parses the text of one comment as go/ast holds it ("//"
// included); ok reports whether it is a //bear:nolint marker. Everything
// after the first em dash or double dash is the rationale; the names before
// it are separated by commas, spaces and tabs:
//
//	//bear:nolint maprange — keys feed an order-insensitive set
//
// A marker glued to more text (//bear:nolintx) is still a marker, and the
// glued word ("nolintx") is its first name. That name is no rule, so the
// slip is reported as an unknown rule instead of passing unseen.
func ParseNolint(text string) (n Nolint, ok bool) {
	body, ok := strings.CutPrefix(text, nolintMarker)
	if !ok {
		return Nolint{}, false
	}
	if body != "" && body[0] != ' ' && body[0] != '\t' {
		body = text[len("//bear:"):]
	}
	names := body
	if i, sep := rationale(body); i >= 0 {
		names, n.Reason = body[:i], strings.TrimSpace(body[i+len(sep):])
	}
	n.Rules = strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	return n, true
}

// rationale returns the index and text of the first rationale separator in
// s, or -1.
func rationale(s string) (int, string) {
	at, sep := -1, ""
	for _, x := range []string{"—", "--"} {
		if i := strings.Index(s, x); i >= 0 && (at < 0 || i < at) {
			at, sep = i, x
		}
	}
	return at, sep
}

// String renders the suppression as simlint -nolint-report lists it: the
// names joined by commas, then " — " and the rationale if there is one.
// ParseNolint of the marker, a space and this text gives n back.
func (n Nolint) String() string {
	s := strings.Join(n.Rules, ",")
	switch {
	case n.Reason == "":
		return s
	case s == "":
		return "— " + n.Reason
	default:
		return s + " — " + n.Reason
	}
}

// collectNolint gathers //bear:nolint comments. A comment suppresses the
// rules it names on its own line and the line below, so it can trail the
// flagged statement or sit on its own line above it.
//
// A comment naming no rule, or a name that is not a rule, comes back as a
// diagnostic: it suppresses nothing, and a stale one would otherwise sit in
// the tree unnoticed after its rule is retired.
type collectT = map[string]map[int]map[string]bool

func collectNolint(fset *token.FileSet, files []*ast.File) (collectT, []Diagnostic) {
	out := collectT{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				n, ok := ParseNolint(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if len(n.Rules) == 0 {
					bad = append(bad, Diagnostic{Pos: pos, Rule: RuleNolint, Message: "//bear:nolint names no rule"})
				}
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					out[pos.Filename] = byLine
				}
				for _, r := range n.Rules {
					if !knownRules[r] {
						bad = append(bad, Diagnostic{Pos: pos, Rule: RuleNolint,
							Message: fmt.Sprintf("//bear:nolint names %q, which is not a rule", r)})
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if byLine[line] == nil {
							byLine[line] = map[string]bool{}
						}
						byLine[line][r] = true
					}
				}
			}
		}
	}
	return out, bad
}

func (pkg *Package) suppressed(pos token.Position, rule string) bool {
	byLine := pkg.nolint[pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pos.Line][rule]
}

// reporter is the shared diagnostic sink passed to check families.
type reporter func(pkg *Package, rule string, pos token.Pos, format string, args ...any)

// funcFor returns the *types.Func a call expression statically resolves to,
// or nil for builtins, conversions, function values and interface methods.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil // dynamic dispatch: unresolvable statically
	}
	return fn
}

// builtinName returns the name of the builtin a call invokes ("append",
// "make", "panic", ...), or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// rootIdent returns the base identifier of expr after stripping selectors,
// indexes, stars and parens: rootIdent(a.b[i].c) == a.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
