package lint

import (
	"bufio"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The fixture harness: every file under testdata/src carries
// `// want "regex"` comments naming the diagnostics the analyzer must
// produce on that line (matched against "rule: message"). Diagnostics
// without a want, and wants without a diagnostic, both fail the test.

// testConfig mirrors the repository config's shape: fix/exempt stands in
// for driver packages (cmd/, examples/), fix/gook for the sanctioned
// concurrency layer (internal/exp).
func testConfig() Config {
	return Config{
		Determinism:    func(p string) bool { return p != "fix/exempt" },
		AllowGo:        func(p string) bool { return p == "fix/gook" },
		MapRange:       func(p string) bool { return p != "fix/exempt" },
		InvariantPanic: func(p string) bool { return p == "fix/inv" },
	}
}

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantArgRe = regexp.MustCompile(`// want "([^"]+)"`)

func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	dirs, err := FindPackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load("fix", root, dirs)
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(testConfig())
	wants := collectWants(t, dirs)

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Rule + ": " + d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

func collectWants(t *testing.T, dirs []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				for _, m := range wantArgRe.FindAllStringSubmatch(sc.Text(), -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", path, line, m[1], err)
					}
					wants = append(wants, &expectation{
						file: e.Name(), line: line, re: re, raw: m[1],
					})
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	if len(wants) == 0 {
		t.Fatal("no want expectations found under testdata/src")
	}
	return wants
}

// TestSuppressionIsRuleScoped pins the suppression granularity: a nolint
// naming one rule must not swallow another family's diagnostic on the same
// line. (The fixtures cover the positive direction.)
func TestSuppressionIsRuleScoped(t *testing.T) {
	pkg := &Package{nolint: collectT{
		"f.go": {10: {"maprange": true}},
	}}
	pos := token.Position{Filename: "f.go", Line: 10}
	if !pkg.suppressed(pos, "maprange") {
		t.Error("maprange should be suppressed on f.go:10")
	}
	if pkg.suppressed(pos, RuleDeterminism) {
		t.Error("determinism must not be suppressed by a maprange nolint")
	}
	if pkg.suppressed(token.Position{Filename: "f.go", Line: 11}, "maprange") {
		t.Error("line 11 has no suppression entry of its own in this fixture")
	}
}

// TestFindPackageDirsStopsAtNestedModules pins the ./... scope to what
// `go list ./...` covers: a subdirectory holding its own go.mod is a
// separate module, so neither it nor anything below it is a package of the
// module being linted.
func TestFindPackageDirsStopsAtNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"root.go":             "package root\n",
		"a/a.go":              "package a\n",
		"a/a_test.go":         "package a\n",
		"nested/go.mod":       "module nested\n",
		"nested/n.go":         "package nested\n",
		"nested/sub/s.go":     "package sub\n",
		"a/testdata/fix.go":   "package fix\n",
		"b/inner/go.mod":      "module inner\n",
		"b/inner/i.go":        "package inner\n",
		"b/b.go":              "package b\n",
		"_skip/u.go":          "package skip\n",
		".hidden/h.go":        "package hidden\n",
		"c/only_test_test.go": "package c\n",
		"nested2/go.mod":      "module nested2\n",
		"nested2/deep/x/x.go": "package x\n",
	}
	for rel, body := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := FindPackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{root, filepath.Join(root, "a"), filepath.Join(root, "b")}
	if len(dirs) != len(want) {
		t.Fatalf("FindPackageDirs = %q, want %q", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("FindPackageDirs = %q, want %q", dirs, want)
		}
	}
	// A walk rooted inside a nested module still lints that module.
	if SkipDir(filepath.Join(root, "nested"), filepath.Join(root, "nested")) {
		t.Error("SkipDir skipped the walk's own root")
	}
}
