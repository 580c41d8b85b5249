package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Annotation grammar for the timeflow rule: a doc comment on a function
// declaration, or a trailing line comment on a struct field.
//
//	//bear:clock <param>[,<param>...] [result[=<k>]]
//	    on a function: the named parameters are trusted simulated-time
//	    values inside the body and are checked at every call site
//	    (timeflow rule); `result` marks return value <k> (default 0) as a
//	    trusted clock. On a struct field (trailing comment): reads of the
//	    field — and of its elements, if indexable — are trusted.

type clockSpec struct {
	params  map[string]bool
	results map[int]bool
}

// fnSummary is one declared function's annotations, keyed by FullName so
// the timeflow rule can resolve a callee's clock parameters across package
// boundaries.
type fnSummary struct {
	pkg       *Package
	decl      *ast.FuncDecl
	clock     *clockSpec // //bear:clock — trusted/checked clock params
	annotErrs []annotErr
}

// summarize parses the annotations of every declared function.
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
				s := &fnSummary{pkg: pkg, decl: fd}
				parseAnnotations(fd, s)
				sums[obj.FullName()] = s
			}
		}
	}
	return sums
}

// annotErr is a malformed annotation, reported under the timeflow rule.
type annotErr struct {
	pos token.Pos
	msg string
}

// parseAnnotations extracts the semantic annotations from a function's doc
// comment into s, recording malformed ones as errors.
func parseAnnotations(fd *ast.FuncDecl, s *fnSummary) {
	if fd.Doc == nil {
		return
	}
	for _, c := range fd.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, "//bear:clock"); ok {
			s.clock = parseClock(text, c.Pos(), s)
		}
	}
}

func annotFields(text string) []string {
	return strings.FieldsFunc(text, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	})
}

func parseClock(text string, pos token.Pos, s *fnSummary) *clockSpec {
	fields := annotFields(text)
	spec := &clockSpec{params: map[string]bool{}, results: map[int]bool{}}
	for _, f := range fields {
		switch {
		case f == "result":
			spec.results[0] = true
		case strings.HasPrefix(f, "result="):
			n, err := strconv.Atoi(f[len("result="):])
			if err != nil || n < 0 {
				s.annotErrs = append(s.annotErrs, annotErr{pos,
					"malformed //bear:clock: bad result index " + strconv.Quote(f)})
				return nil
			}
			spec.results[n] = true
		default:
			spec.params[f] = true
		}
	}
	if len(spec.params) == 0 && len(spec.results) == 0 {
		s.annotErrs = append(s.annotErrs, annotErr{pos,
			"malformed //bear:clock: name at least one parameter or result"})
		return nil
	}
	return spec
}

// collectClockFields gathers struct fields carrying a trailing //bear:clock
// comment, keyed "pkgpath.Struct.Field" (string keys, because the source
// importer materialises distinct type objects per importing package).
func collectClockFields(pkg *Package) map[string]bool {
	out := map[string]bool{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					if !fieldHasClock(f) {
						continue
					}
					for _, name := range f.Names {
						out[pkg.Path+"."+ts.Name.Name+"."+name.Name] = true
					}
				}
			}
		}
	}
	return out
}

func fieldHasClock(f *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{f.Comment, f.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if c.Text == "//bear:clock" || strings.HasPrefix(c.Text, "//bear:clock ") {
				return true
			}
		}
	}
	return false
}
