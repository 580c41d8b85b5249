package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSiblingBearbench(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "bearbench")
	if err := os.WriteFile(bench, []byte("#!/bin/sh\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	cases := []struct {
		name, self, want string
	}{
		{"canonical name", filepath.Join(dir, "bearserve"), bench},
		{"renamed binary", filepath.Join(dir, "bearserve-v2"), bench},
		{"short name", filepath.Join(dir, "bs"), bench},
		{"short path", "/bs", "bearbench"},
		{"no sibling", filepath.Join(empty, "bearserve"), "bearbench"},
		{"unknown executable", "", "bearbench"},
	}
	for _, c := range cases {
		if got := siblingBearbench(c.self); got != c.want {
			t.Errorf("%s: siblingBearbench(%q) = %q, want %q", c.name, c.self, got, c.want)
		}
	}
}
