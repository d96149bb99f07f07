package lint_test

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// The dispatch loop's zero-alloc guarantee is only as strong as its
// pragma coverage: if someone deletes a //gpsa:noalloc marker from
// dispatcher.go, the escape gate silently stops checking that
// function. This test pins the manifest in noalloc.go against that:
// for every pragma in dispatcher.go, deleting just that one line must
// produce an unsuppressed "must carry a //gpsa:noalloc pragma"
// finding on the real tree.
func TestDeletingDispatcherPragmaFailsGate(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("repro/internal/core")
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: the committed tree has full pragma coverage and every
	// remaining finding is justified, so the analyzer reports nothing.
	pass := lint.NewPass(lint.Noalloc, loader.Fset, pkg)
	lint.Noalloc.Run(pass)
	if diags := unsuppressed(pass.Diagnostics()); len(diags) != 0 {
		for _, d := range diags {
			t.Logf("  %s: %s", d.Pos, d.Message)
		}
		t.Fatalf("baseline: %d unsuppressed noalloc findings on the committed tree, want 0", len(diags))
	}

	dispatcherPath := filepath.Join(pkg.Dir, "dispatcher.go")
	src, err := os.ReadFile(dispatcherPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	var pragmaLines []int
	for i, line := range lines {
		if strings.TrimSpace(line) == lint.NoallocPragma {
			pragmaLines = append(pragmaLines, i)
		}
	}
	if len(pragmaLines) < 4 {
		t.Fatalf("dispatcher.go carries %d %s pragmas, expected at least 4 — did the dispatch loop move?", len(pragmaLines), lint.NoallocPragma)
	}

	// Locate dispatcher.go's parsed file so we can swap it out.
	dispatcherIdx := -1
	for i, f := range pkg.Files {
		if loader.Fset.Position(f.Pos()).Filename == dispatcherPath {
			dispatcherIdx = i
		}
	}
	if dispatcherIdx < 0 {
		t.Fatalf("dispatcher.go not among loaded files of %s", pkg.Path)
	}

	for _, del := range pragmaLines {
		mutated := make([]string, 0, len(lines)-1)
		mutated = append(mutated, lines[:del]...)
		mutated = append(mutated, lines[del+1:]...)
		f, err := parser.ParseFile(loader.Fset, dispatcherPath, strings.Join(mutated, "\n"), parser.ParseComments)
		if err != nil {
			t.Fatalf("pragma at line %d: reparse: %v", del+1, err)
		}
		files := append([]*ast.File(nil), pkg.Files...)
		files[dispatcherIdx] = f
		tpkg, info, err := lint.CheckFiles(loader.Fset, pkg.Path, files, loader)
		if err != nil {
			t.Fatalf("pragma at line %d: recheck: %v", del+1, err)
		}
		mutPkg := &lint.Package{Path: pkg.Path, Dir: pkg.Dir, Files: files, Types: tpkg, Info: info}
		mutPass := lint.NewPass(lint.Noalloc, loader.Fset, mutPkg)
		lint.Noalloc.Run(mutPass)
		found := false
		for _, d := range unsuppressed(mutPass.Diagnostics()) {
			if strings.Contains(d.Message, "must carry a //gpsa:noalloc pragma") {
				found = true
			}
		}
		if !found {
			t.Errorf("deleting the pragma at dispatcher.go:%d produced no missing-pragma finding; the gate would silently stop checking that function", del+1)
		}
	}
}

func unsuppressed(diags []lint.Diagnostic) []lint.Diagnostic {
	var out []lint.Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
