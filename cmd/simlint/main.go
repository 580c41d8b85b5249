// Command simlint is the repository's static analyzer: it enforces the
// determinism, map-order, goroutine and typed-invariant rules described in
// ARCHITECTURE.md ("Enforced invariants"), using only the Go standard
// library.
//
// Usage:
//
//	simlint [flags] [./...]
//	simlint ./internal/dram ./internal/event
//
// With "./..." (the default) every package under the module is analyzed;
// like `go list ./...`, the walk stops at nested modules (subdirectories
// with their own go.mod) and at testdata, hidden and underscore dirs.
// Diagnostics print as file:line:col: rule: message; the exit status is 1
// when any diagnostic is reported. Suppress a finding with a trailing
// `//bear:nolint <rule> — reason` comment.
//
// Flags:
//
//	-json           print diagnostics as JSON objects, one per line
//	-cache          key the whole run on a hash of every non-test .go file;
//	                replay the stored diagnostics when nothing changed
//	-nolint-report  list every //bear:nolint suppression with its reason
//	                (parse-only; no analysis runs)
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bear/internal/lint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
}

// finding is the JSON shape of one diagnostic (and the cache entry format).
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "print diagnostics as JSON, one object per line")
	useCache := fs.Bool("cache", false, "reuse the previous run's result when no .go file changed")
	nolintReport := fs.Bool("nolint-report", false, "list every //bear:nolint suppression with its reason")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()

	root, module, err := findModule()
	if err != nil {
		return err
	}

	if *nolintReport {
		return reportNolints(os.Stdout, root)
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs []string
	for _, arg := range args {
		if strings.HasSuffix(arg, "...") {
			base := filepath.Join(root, strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/"))
			sub, err := lint.FindPackageDirs(base)
			if err != nil {
				return err
			}
			dirs = append(dirs, sub...)
			continue
		}
		dirs = append(dirs, filepath.Join(root, arg))
	}

	var cacheKey string
	if *useCache {
		cacheKey, err = treeHash(root, module, args)
		if err != nil {
			return err
		}
		if found, ok := readCache(root, cacheKey); ok {
			emit(found, *jsonOut)
			if len(found) > 0 {
				fmt.Fprintf(os.Stderr, "simlint: %d diagnostic(s) (cached)\n", len(found))
				os.Exit(1)
			}
			return nil
		}
	}

	prog, err := lint.Load(module, root, dirs)
	if err != nil {
		return err
	}
	diags := prog.Run(repoConfig(module))
	var found []finding
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		found = append(found, finding{
			File: rel, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Message: d.Message,
		})
	}
	if *useCache {
		writeCache(root, cacheKey, found)
	}
	emit(found, *jsonOut)
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d diagnostic(s)\n", len(found))
		os.Exit(1)
	}
	return nil
}

func emit(found []finding, jsonOut bool) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if jsonOut {
		enc := json.NewEncoder(w)
		for _, f := range found {
			enc.Encode(f)
		}
		return
	}
	for _, f := range found {
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Rule, f.Message)
	}
}

// repoConfig scopes the rule families for this repository:
//
//   - determinism rules cover every internal/ simulation package, including
//     internal/lint itself (the analyzer must be as deterministic as the
//     models it audits); cmd/examples are drivers that legitimately read
//     wall-clock time for progress reporting, and internal/serve is the
//     bearserve control plane — deadlines, backoff and the drain are
//     wall-clock machinery by design, and nothing under internal/serve is
//     on a simulation path (workers are separate processes whose simulation
//     code stays fully covered);
//   - goroutines are allowed only in internal/exp (the worker-pool layer)
//     and internal/serve (the supervision tree);
//   - the map-iteration rule applies everywhere, because map-ordered output
//     from a driver is as nondeterministic as from a model;
//   - the typed-invariant rule (no bare string panics) covers the engine
//     packages whose panics cross the fault-isolation recover in
//     internal/exp and must arrive classifiable.
//
// Event-time monotonicity and the stats census are not static rules: the
// past-time panics in event.Queue.At and dram.Memory.Enqueue and the root
// package's TestStatsCensus check them on real runs.
func repoConfig(module string) lint.Config {
	internal := module + "/internal/"
	engine := map[string]bool{
		internal + "event": true, internal + "dram": true,
		internal + "sram": true, internal + "cpu": true,
		internal + "hier": true, internal + "dramcache": true,
	}
	return lint.Config{
		Determinism: func(path string) bool {
			return strings.HasPrefix(path, internal) && path != internal+"serve"
		},
		AllowGo: func(path string) bool {
			return path == internal+"exp" || path == internal+"serve"
		},
		MapRange:       func(path string) bool { return true },
		InvariantPanic: func(path string) bool { return engine[path] },
	}
}

// --- Result cache. ---

// cacheFile sits at the module root; .gitignore excludes it.
const cacheFile = ".simlint.cache"

type cacheEntry struct {
	Key      string    `json:"key"`
	Findings []finding `json:"findings"`
}

// treeHash fingerprints everything a run's outcome depends on: the module
// path, the argument list, and the content of every non-test .go file the
// walk reaches (lint.SkipDir prunes it the way FindPackageDirs does) plus
// go.mod. Rule changes invalidate the cache automatically because the rules
// live in internal/lint's own .go files.
func treeHash(root, module string, args []string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "module %s\nargs %q\n", module, args)
	var files []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			if lint.SkipDir(root, path) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		fh := sha256.New()
		_, err = io.Copy(fh, f)
		f.Close()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %x\n", filepath.ToSlash(rel), fh.Sum(nil))
	}
	if b, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func readCache(root, key string) ([]finding, bool) {
	b, err := os.ReadFile(filepath.Join(root, cacheFile))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if json.Unmarshal(b, &e) != nil || e.Key != key {
		return nil, false
	}
	return e.Findings, true
}

func writeCache(root, key string, found []finding) {
	b, err := json.Marshal(cacheEntry{Key: key, Findings: found})
	if err != nil {
		return
	}
	os.WriteFile(filepath.Join(root, cacheFile), b, 0o644)
}

// --- Suppression report. ---

// reportNolints lists every //bear:nolint comment in the tree with its rules
// and reason: the audit trail for what the analyzer has been told to ignore.
// Files are parsed, not grepped, so string literals and prose mentions of the
// marker do not count.
func reportNolints(w io.Writer, root string) error {
	type supp struct {
		file string
		line int
		n    lint.Nolint
	}
	var supps []supp
	fset := token.NewFileSet()
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			if lint.SkipDir(root, path) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if f == nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				n, ok := lint.ParseNolint(c.Text)
				if !ok {
					continue
				}
				supps = append(supps, supp{
					file: filepath.ToSlash(rel),
					line: fset.Position(c.Pos()).Line,
					n:    n,
				})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(supps, func(i, j int) bool {
		if supps[i].file != supps[j].file {
			return supps[i].file < supps[j].file
		}
		return supps[i].line < supps[j].line
	})
	for _, s := range supps {
		fmt.Fprintf(w, "%s:%d: %s\n", s.file, s.line, s.n)
	}
	fmt.Fprintf(w, "%d suppression(s)\n", len(supps))
	return nil
}

// findModule locates go.mod upward from the working directory and returns
// the module root and path.
func findModule() (root, module string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if f, err := os.Open(gomod); err == nil {
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
					return dir, strings.TrimSpace(m), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s", gomod)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}
