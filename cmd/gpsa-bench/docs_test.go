package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists pins the documents that tell a reader what
// to run to the tree that has to run it: every `gpsa-bench -exp <id>`
// must be an id this command accepts, every `make <target>` a target in
// the Makefile's .PHONY list, and every Benchmark* name a function some
// _test.go defines. A deleted experiment, target or benchmark that a
// document still advertises fails here, not in a reader's terminal.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs/*.md found (err %v)", err)
	}
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		docs = append(docs, filepath.Join(root, name))
	}

	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(makefile)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	targets := strings.Fields(string(phony[1]))

	benchFunc := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	var benchmarks []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range benchFunc.FindAllSubmatch(src, -1) {
			benchmarks = append(benchmarks, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// `make` counts only at the start of a line (a command in a code
	// block) or right after a backtick, never as the verb in prose.
	checks := []struct {
		what  string
		re    *regexp.Regexp
		valid []string
	}{
		{"gpsa-bench experiment", regexp.MustCompile(`-exp (\w+)`), experiments},
		{"Makefile target", regexp.MustCompile("(?m)(?:^|`)[ \t]*make ([a-z][a-z-]*)"), targets},
		{"benchmark function", regexp.MustCompile(`\b(Benchmark[A-Z]\w*)`), benchmarks},
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, check := range checks {
			for _, m := range check.re.FindAllSubmatch(text, -1) {
				if name := string(m[1]); !slices.Contains(check.valid, name) {
					t.Errorf("%s names %s %q, which does not exist", doc, check.what, name)
				}
			}
		}
	}
}
