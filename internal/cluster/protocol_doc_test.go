package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolDocMatchesFrameKinds pins the frame kind table in
// docs/PROTOCOL.md to the f* constants of protocol.go, in both
// directions: every frame kind in code has a row with its number and
// name, and every row names a kind that exists. A frame added, renamed
// or retired without its documentation fails here, not in review.
func TestProtocolDocMatchesFrameKinds(t *testing.T) {
	code := codeFrameKinds(t)
	if len(code) < 20 {
		t.Fatalf("parsed only %d frame constants from protocol.go; parser is broken", len(code))
	}
	doc := docFrameKinds(t)
	for kind, name := range code {
		if got, ok := doc[kind]; !ok {
			t.Errorf("frame kind %d (%s) has no row in docs/PROTOCOL.md", kind, name)
		} else if got != name {
			t.Errorf("frame kind %d is %s in protocol.go but %s in docs/PROTOCOL.md", kind, name, got)
		}
	}
	for kind, name := range doc {
		if _, ok := code[kind]; !ok {
			t.Errorf("docs/PROTOCOL.md documents frame kind %d (%s), which protocol.go does not define", kind, name)
		}
	}
}

// frameName normalizes a frame name for comparison: fRollbackOver and
// ROLLBACK_OVER both become "rollbackover".
func frameName(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, "_", ""))
}

// codeFrameKinds parses protocol.go and returns its frame-kind constants
// (lower-case f, then an upper-case letter) by value.
func codeFrameKinds(t *testing.T) map[int]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[int]string)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				n := name.Name
				if len(n) < 2 || n[0] != 'f' || n[1] < 'A' || n[1] > 'Z' || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.INT {
					continue
				}
				v, err := strconv.Atoi(lit.Value)
				if err != nil {
					t.Fatalf("constant %s: %v", n, err)
				}
				if prev, dup := kinds[v]; dup {
					t.Fatalf("frame kind %d is both %s and %s", v, prev, n)
				}
				kinds[v] = frameName(n[1:])
			}
		}
	}
	return kinds
}

// docFrameKinds extracts the `| kind | NAME |` rows of the wire-protocol
// section of docs/PROTOCOL.md.
func docFrameKinds(t *testing.T) map[int]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "PROTOCOL.md"))
	if err != nil {
		t.Fatal(err)
	}
	const section = "## Distributed wire protocol"
	text := string(data)
	at := strings.Index(text, section)
	if at < 0 {
		t.Fatalf("docs/PROTOCOL.md has no %q section", section)
	}
	row := regexp.MustCompile(`^\| (\d+) \| ([A-Z_]+) \|`)
	kinds := make(map[int]string)
	for _, line := range strings.Split(text[at:], "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, _ := strconv.Atoi(m[1])
		if prev, dup := kinds[v]; dup {
			t.Fatalf("docs/PROTOCOL.md documents frame kind %d twice (%s, %s)", v, prev, m[2])
		}
		kinds[v] = frameName(m[2])
	}
	if len(kinds) == 0 {
		t.Fatal("docs/PROTOCOL.md frame table has no rows")
	}
	return kinds
}
