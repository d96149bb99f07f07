package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists pins the documents that tell a reader what
// to run to the tree that has to run it: every `gpsa-bench -exp <id>`
// must be an id this command accepts, every `make <target>` a target in
// the Makefile's .PHONY list, every Benchmark* name a function some
// _test.go defines, every gpsa-<name> command a directory under cmd,
// and every command-line flag one that a repo command declares (see
// checkDocFlags). A deleted experiment, target, benchmark, command or
// flag that a document still advertises fails here, not in a reader's
// terminal.
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
	flags := declaredFlags(t, filepath.Join(root, "cmd"))
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checkDocFlags(t, doc, string(text), flags)
		for _, check := range checks {
			for _, m := range check.re.FindAllSubmatch(text, -1) {
				if name := string(m[1]); !slices.Contains(check.valid, name) {
					t.Errorf("%s names %s %q, which does not exist", doc, check.what, name)
				}
			}
		}
	}
}

// goFlags are the go command's own flags that the documents name in a
// lone flag span (`-race`).
var goFlags = []string{"race", "gcflags"}

// declaredFlags maps each repo command — a directory under cmd — to the
// flags its main.go declares through the flag package, plus the -h and
// -help every flag.Parse accepts.
func declaredFlags(t *testing.T, cmdDir string) map[string][]string {
	t.Helper()
	dirs, err := os.ReadDir(cmdDir)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string][]string{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(cmdDir, d.Name(), "main.go"), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"h", "help"}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if len(call.Args) > 0 { // flag.Int("name", …); the commands use no *Var form
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					names = append(names, name)
				}
			}
			return true
		})
		flags[d.Name()] = names
	}
	return flags
}

var (
	cmdWordRe  = regexp.MustCompile(`^gpsa-[a-z]+$`)
	flagRe     = regexp.MustCompile(`(?:^|[\s\[(])--?([a-zA-Z][\w-]*)`)
	shellSepRe = regexp.MustCompile(`&&|\|\||[|;&]`)
)

// checkDocFlags holds a document's command lines to the commands and
// flags that exist. A repo command is a cmd directory's name, as a bare
// word or the last element of a path (`gpsa`, `./cmd/gpsa`,
// `/tmp/gpsa`); a gpsa-<name> word or path with no such directory is an
// error (`pokec.gpsa-sym` is a file, not a command). Every -flag that
// follows a repo command within a backtick span, or
// within one line of a fenced block (backslash continuations joined,
// shell comments dropped, up to the next |, ;, & or &&), must be
// declared by that command's main.go. A span that is only a flag
// (`-mem-limit`) must name a flag some repo command, or the go command,
// declares. A section whose text opens with "Historical" records runs
// of an older tree and may name flags that have since been deleted.
func checkDocFlags(t *testing.T, doc, text string, flags map[string][]string) {
	t.Helper()
	var anyFlag []string
	for _, names := range flags {
		anyFlag = append(anyFlag, names...)
	}
	anyFlag = append(anyFlag, goFlags...)

	check := func(segment string) {
		fields := strings.Fields(segment)
		for i, f := range fields {
			cmd := f[strings.LastIndex(f, "/")+1:]
			valid, ok := flags[cmd]
			if !ok && cmdWordRe.MatchString(cmd) {
				t.Errorf("%s: %q names %s, which is not a directory under cmd", doc, strings.Join(fields, " "), cmd)
				return
			}
			if !ok {
				continue
			}
			for _, m := range flagRe.FindAllStringSubmatch(strings.Join(fields[i+1:], " "), -1) {
				if !slices.Contains(valid, m[1]) {
					t.Errorf("%s: %q passes -%s, which %s does not declare", doc, strings.Join(fields, " "), m[1], cmd)
				}
			}
			return
		}
		if len(fields) > 0 && strings.HasPrefix(fields[0], "-") && !strings.HasPrefix(fields[0], "--") {
			if m := flagRe.FindStringSubmatch(fields[0]); m != nil && !slices.Contains(anyFlag, m[1]) {
				t.Errorf("%s: `%s` names a flag no repo command declares", doc, fields[0])
			}
		}
	}

	for _, sec := range splitSections(text) {
		if strings.HasPrefix(strings.TrimSpace(sec.prose), "Historical") {
			continue
		}
		for _, line := range sec.fenced {
			if i := strings.Index(line, " #"); i >= 0 {
				line = line[:i]
			}
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			for _, seg := range shellSepRe.Split(line, -1) {
				check(seg)
			}
		}
		// Inline spans: the odd pieces between backticks, per paragraph
		// so one unpaired backtick cannot shift the rest of the document.
		for _, para := range strings.Split(sec.prose, "\n\n") {
			pieces := strings.Split(para, "`")
			for i := 1; i < len(pieces); i += 2 {
				check(pieces[i])
			}
		}
	}
}

// docSection is the text under one Markdown heading: its prose, with
// each fenced block cut out and left as a paragraph break, and the
// fenced blocks' lines, backslash continuations joined.
type docSection struct {
	prose  string
	fenced []string
}

// splitSections cuts a Markdown document at its headings. A # line
// inside a fenced block is a shell comment, not a heading.
func splitSections(text string) []docSection {
	var out []docSection
	var cur docSection
	var prose strings.Builder
	inFence, continued := false, ""
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			inFence = !inFence
			prose.WriteString("\n")
		case inFence && strings.HasSuffix(line, "\\"):
			continued += strings.TrimSuffix(line, "\\") + " "
		case inFence:
			cur.fenced = append(cur.fenced, continued+line)
			continued = ""
		case strings.HasPrefix(line, "#"):
			cur.prose = prose.String()
			out = append(out, cur)
			cur = docSection{}
			prose.Reset()
		default:
			prose.WriteString(line + "\n")
		}
	}
	cur.prose = prose.String()
	return append(out, cur)
}
