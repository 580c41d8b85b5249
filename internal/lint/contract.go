package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Engine-contract checks:
//
//   - dupid: every experiment registered via register(Experiment{ID: ...})
//     must carry a unique string-literal id. The registry panics on
//     duplicates at init time, but only for experiments that actually get
//     linked in; the static check catches the collision at analysis time,
//     before any binary runs.
//   - layout: a Controller composition that installs a TagStore must also
//     set a Layout. A zero Layout silently accounts zero bytes for every
//     bus transfer, which invalidates every bandwidth result the design
//     reports (the NoL4 pass-through, which has no tag store, is the one
//     sanctioned zero-Layout composition).
func (p *Program) checkContracts(pkg *Package, report reporter) {
	p.checkExperimentIDs(pkg, report)
	p.checkLayouts(pkg, report)
}

func (p *Program) checkExperimentIDs(pkg *Package, report reporter) {
	seen := map[string]ast.Node{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcFor(pkg.Info, call)
			if fn == nil || fn.Name() != "register" || fn.Pkg() != pkg.Types || len(call.Args) != 1 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
			if !ok {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "ID" {
					continue
				}
				basic, ok := ast.Unparen(kv.Value).(*ast.BasicLit)
				if !ok {
					report(pkg, RuleDupID, kv.Value.Pos(),
						"experiment id must be a string literal so ids stay statically unique")
					continue
				}
				id, err := strconv.Unquote(basic.Value)
				if err != nil {
					continue
				}
				if prev, dup := seen[id]; dup {
					report(pkg, RuleDupID, basic.Pos(),
						"duplicate experiment id %q (first registered at %s)", id, p.Fset.Position(prev.Pos()))
				} else {
					seen[id] = basic
				}
			}
			return true
		})
	}
}

// checkLayouts inspects every function that builds a Controller composite
// literal (a struct type named Controller with `tags` and `lay` fields):
// if the function installs a tag store — in the literal or via a later
// `<c>.tags = ...` assignment — it must also set `lay`.
func (p *Program) checkLayouts(pkg *Package, report reporter) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLayoutFn(pkg, fd, report)
		}
	}
}

func isControllerType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Controller" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	hasTags, hasLay := false, false
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "tags":
			hasTags = true
		case "lay":
			hasLay = true
		}
	}
	return hasTags && hasLay
}

func checkLayoutFn(pkg *Package, fd *ast.FuncDecl, report reporter) {
	var lit *ast.CompositeLit
	litTags, litLay := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok || lit != nil {
			return true
		}
		t := pkg.Info.TypeOf(cl)
		if t == nil || !isControllerType(t) {
			return true
		}
		lit = cl
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok {
				switch key.Name {
				case "tags":
					litTags = true
				case "lay":
					litLay = true
				}
			}
		}
		return true
	})
	if lit == nil {
		return
	}

	// Scan the whole function for `<controller expr>.tags = ...` and
	// `.lay = ...` assignments (not path-sensitive; setting either
	// anywhere counts).
	setTags, setLay := litTags, litLay
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range asg.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			base := pkg.Info.TypeOf(sel.X)
			if base == nil || !isControllerType(base) {
				continue
			}
			switch sel.Sel.Name {
			case "tags":
				setTags = true
			case "lay":
				setLay = true
			}
		}
		return true
	})

	if setTags && !setLay {
		report(pkg, RuleLayout, lit.Pos(),
			"Controller composition in %s installs a tag store but never sets lay; a zero Layout accounts zero bus bytes for every transfer", fd.Name.Name)
	}
}
