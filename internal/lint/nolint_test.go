package lint

import (
	"go/ast"
	"go/token"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestParseNolint(t *testing.T) {
	for _, tc := range []struct {
		text   string
		ok     bool
		rules  []string
		reason string
		report string
	}{
		{text: "//bear:nolint", ok: true, report: ""},
		{text: "//bear:nolintx", ok: true, rules: []string{"nolintx"}, report: "nolintx"},
		{text: "//bear:nolint—why", ok: true, rules: []string{"nolint"}, reason: "why", report: "nolint — why"},
		{text: "//bear:nolint a,b — why", ok: true, rules: []string{"a", "b"}, reason: "why", report: "a,b — why"},
		{text: "//bear:nolint a -- why -- more", ok: true, rules: []string{"a"}, reason: "why -- more", report: "a — why -- more"},
		{text: "//bear:nolint\tmaprange,  goroutine", ok: true, rules: []string{"maprange", "goroutine"}, report: "maprange,goroutine"},
		{text: "//bear:nolint — no rule", ok: true, reason: "no rule", report: "— no rule"},
		{text: "// bear:nolint maprange", ok: false},
		{text: "//bear:nolin maprange", ok: false},
	} {
		n, ok := ParseNolint(tc.text)
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if !slices.Equal(n.Rules, tc.rules) || n.Reason != tc.reason {
			t.Errorf("%q: parsed %q / %q, want %q / %q", tc.text, n.Rules, n.Reason, tc.rules, tc.reason)
		}
		if got := n.String(); got != tc.report {
			t.Errorf("%q: report line %q, want %q", tc.text, got, tc.report)
		}
	}
}

// FuzzNolint: parsing any comment never panics, no parsed name holds a
// rationale separator or a name separator, the -nolint-report line parses
// back to the same suppression, and the suppression set collectNolint
// builds is exactly the known rules of the parse, with one diagnostic per
// unknown name (or one for naming none).
func FuzzNolint(f *testing.F) {
	for _, s := range []string{
		"//bear:nolint maprange — keys feed an order-insensitive set",
		"//bear:nolint", "//bear:nolintx", "//bear:nolint a,b — why",
		"//bear:nolint a -- why", "//bear:nolint\tinvariant,determinism--x",
		"//bear:nolint—", "// want", "//bear:nolint -—-",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		n, ok := ParseNolint(text)
		if ok != strings.HasPrefix(text, nolintMarker) {
			t.Fatalf("%q: ok = %v", text, ok)
		}
		if !ok {
			return
		}
		for _, r := range n.Rules {
			if r == "" || strings.ContainsAny(r, ", \t") || strings.Contains(r, "—") || strings.Contains(r, "--") {
				t.Fatalf("%q: bad name %q", text, r)
			}
		}
		back, ok := ParseNolint(nolintMarker + " " + n.String())
		if !ok || !slices.Equal(back.Rules, n.Rules) || back.Reason != n.Reason {
			t.Fatalf("%q: report line %q parses to %+v, not %+v", text, n.String(), back, n)
		}

		fset := token.NewFileSet()
		tf := fset.AddFile("f.go", -1, 1)
		file := &ast.File{Comments: []*ast.CommentGroup{{List: []*ast.Comment{{Slash: tf.Pos(0), Text: text}}}}}
		supp, bad := collectNolint(fset, []*ast.File{file})
		want := map[string]bool{}
		unknown := 0
		for _, r := range n.Rules {
			if knownRules[r] {
				want[r] = true
			} else {
				unknown++
			}
		}
		if len(n.Rules) == 0 {
			unknown = 1
		}
		got := supp["f.go"][1]
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%q: suppresses %v, parse names known rules %v", text, got, want)
		}
		if len(bad) != unknown {
			t.Fatalf("%q: %d diagnostics for %d unknown names: %v", text, len(bad), unknown, bad)
		}
	})
}
