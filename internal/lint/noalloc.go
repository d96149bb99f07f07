package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Noalloc pins the zero-alloc hot path at compile time. Engine-lifetime
// slabs keep steady-state allocation below 0.01 B/msg, but that invariant was
// defended only dynamically (a measured B/msg ceiling, today
// core's TestSlabPathAllocCeiling): one innocuous append, closure
// capture, or interface boxing in the dispatch/accumulate/BulkApply path
// silently reintroduces GC pressure until a benchmark run notices. This analyzer makes the discipline
// static.
//
// A function is marked hot with the pragma
//
//	//gpsa:noalloc
//
// on its own line inside the function's doc comment. The analyzer checks
// every marked function AND every function it (transitively) calls
// within the same package for allocation sites:
//
//   - make / new / append (append may grow its backing array);
//   - slice and map composite literals, and &T{...} (address of a
//     composite literal is a heap allocation when it escapes);
//   - function literals (closure capture allocates);
//   - calls into package fmt and errors.New;
//   - string concatenation and string<->[]byte conversions;
//   - interface conversions of non-pointer values (boxing) at call
//     argument positions.
//
// Error construction is cold by definition: a site inside a return
// statement, inside an assignment to an error-typed location, or inside
// a panic argument is exempt — failure paths may allocate, the
// per-message loop may not.
//
// The AST check is deliberately conservative (a non-escaping closure or
// a growth-free append is still flagged); genuine hot-path sites that
// the compiler proves allocation-free carry a //lint:noalloc <reason>
// justification, and `gpsa-lint -escape` closes the loop in the other
// direction by cross-referencing `go build -gcflags='-m -m'` escape
// diagnostics against the pragma set (see escape.go).
//
// The analyzer also enforces pragma coverage: the functions listed in
// noallocRequired — the dispatcher edge loop, the accumulator
// fold/flush/reset, BulkApply, frame encode/decode — must carry the
// pragma, so deleting an annotation (or renaming a hot
// function away from its annotation) fails the gate instead of silently
// shrinking the checked set.
var Noalloc = &Analyzer{
	Name: "noalloc",
	Doc: "allocation sites (make/new/append, literals, closures, fmt, " +
		"boxing) in //gpsa:noalloc hot-path functions and their " +
		"intra-package callees",
	Packages: []string{"internal/core", "internal/vertexfile", "internal/graph", "internal/cluster"},
	Run:      runNoalloc,
}

// NoallocPragma is the comment that marks a hot-path function. Grammar:
// the pragma is exactly this text on its own line in the function's doc
// comment (no arguments; justification for individual sites inside the
// function uses the ordinary //lint:noalloc <reason> suppression).
const NoallocPragma = "//gpsa:noalloc"

// noallocRequired lists, per module-relative package path, the functions
// that MUST carry the //gpsa:noalloc pragma. Methods are spelled
// "(*T).name" / "T.name", package functions plain "name". The list is
// the hot-path manifest: deleting a pragma from any of these — or
// renaming the function away from its annotation — is a lint failure,
// pinned by TestNoallocPragmaDeletionFails.
var noallocRequired = map[string][]string{
	"internal/core": {
		"(*Scan).Run",
		"(*Scan).fold",
		"(*Scan).jumped",
		"(*dispatcher).runSuperstep",
		"(*dispatcher).flushDense",
		"(*computer).processSegment",
		"ApplyBatch",
		"(*Slab).Reset",
	},
	"internal/vertexfile": {
		"(*File).BulkApply",
		"(*Updater).Apply",
		"(*File).NextActive",
		"(*File).Load",
		"(*File).Store",
	},
	"internal/graph": {
		"(*Cursor).Next",
		"(*Cursor).nextCompact",
		"(*Cursor).SkipTo",
		"DecodeEdge",
	},
	"internal/cluster": {
		"(*conn).writeFrame",
		"readFrameFrom",
	},
}

// funcDisplayName renders a FuncDecl as it appears in noallocRequired.
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		if id, ok := st.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// hasNoallocPragma reports whether the declaration's doc comment carries
// the //gpsa:noalloc pragma.
func hasNoallocPragma(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == NoallocPragma {
			return true
		}
	}
	return false
}

// NoallocMarked returns the pragma-bearing function declarations of pkg.
func NoallocMarked(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && hasNoallocPragma(fn) {
				out = append(out, fn)
			}
		}
	}
	return out
}

// requiredNoalloc returns the must-be-marked manifest for pkg's import
// path, or nil when the package has no manifest (fixtures, cmd packages).
func requiredNoalloc(pkgPath string) []string {
	for rel, names := range noallocRequired {
		if pkgPath == rel || strings.HasSuffix(pkgPath, "/"+rel) {
			return names
		}
	}
	return nil
}

func runNoalloc(pass *Pass) {
	info := pass.Pkg.Info

	// Index every function declaration by its types object so the
	// transitive-callee walk can resolve intra-package calls to bodies.
	decls := make(map[types.Object]*ast.FuncDecl)
	var allDecls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			allDecls = append(allDecls, fn)
			if obj := info.Defs[fn.Name]; obj != nil {
				decls[obj] = fn
			}
		}
	}

	// Pragma coverage: the hot-path manifest must be fully annotated.
	if required := requiredNoalloc(pass.Pkg.Path); required != nil {
		byName := make(map[string]*ast.FuncDecl, len(allDecls))
		for _, fn := range allDecls {
			byName[funcDisplayName(fn)] = fn
		}
		for _, name := range required {
			fn, ok := byName[name]
			if !ok {
				pass.Reportf(pass.Files[0].Package,
					"hot-path function %s is in the noalloc manifest but does not exist; update the manifest in internal/lint/noalloc.go", name)
				continue
			}
			if !hasNoallocPragma(fn) {
				pass.Reportf(fn.Pos(),
					"hot-path function %s must carry a %s pragma (it is in the noalloc manifest)", name, NoallocPragma)
			}
		}
	}

	// Transitive closure of intra-package callees from the marked roots.
	type workItem struct {
		fn   *ast.FuncDecl
		root string // display name of the pragma root that reached it
	}
	marked := NoallocMarked(pass.Pkg)
	seen := make(map[*ast.FuncDecl]bool)
	var work []workItem
	for _, fn := range marked {
		if !seen[fn] {
			seen[fn] = true
			work = append(work, workItem{fn, funcDisplayName(fn)})
		}
	}
	for len(work) > 0 {
		item := work[0]
		work = work[1:]
		if item.fn.Body == nil {
			continue
		}
		pass.checkNoallocBody(item.fn, item.root)
		ast.Inspect(item.fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				obj = info.Uses[fun]
			case *ast.SelectorExpr:
				obj = info.Uses[fun.Sel]
			}
			fobj, ok := obj.(*types.Func)
			if !ok || fobj.Pkg() != pass.Pkg.Types {
				return true
			}
			callee, ok := decls[fobj]
			if !ok || seen[callee] {
				return true
			}
			seen[callee] = true
			work = append(work, workItem{callee, item.root})
			return true
		})
	}
}

// checkNoallocBody reports every allocation site in fn's body. root names
// the pragma-marked function whose call graph dragged fn in.
func (p *Pass) checkNoallocBody(fn *ast.FuncDecl, root string) {
	info := p.Pkg.Info
	where := fmt.Sprintf("//gpsa:noalloc function %s", funcDisplayName(fn))
	if name := funcDisplayName(fn); name != root {
		where = fmt.Sprintf("noalloc context %s (callee of //gpsa:noalloc %s)", name, root)
	}

	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if coldAllocPath(info, stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			p.checkNoallocCall(n, where)
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal allocates in %s", where)
			case *types.Map:
				p.Reportf(n.Pos(), "map literal allocates in %s", where)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					p.Reportf(cl.Pos(), "&composite literal is a heap allocation in %s", where)
				}
			}
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "function literal allocates a closure in %s; hoist it or justify with //lint:noalloc", where)
			// Do not descend: the closure body executes in its own frame
			// and is checked only if it is itself reachable hot code; the
			// conservative finding above is the gate.
			stack = stack[:len(stack)-1]
			return false
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if tv, ok := info.Types[n]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						p.Reportf(n.Pos(), "string concatenation allocates in %s", where)
					}
				}
			}
		}
		return true
	})
}

// checkNoallocCall reports allocating calls: builtins, fmt, errors.New,
// string conversions, and interface boxing at argument positions.
func (p *Pass) checkNoallocCall(call *ast.CallExpr, where string) {
	info := p.Pkg.Info

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				p.Reportf(call.Pos(), "make allocates in %s", where)
			case "new":
				p.Reportf(call.Pos(), "new allocates in %s", where)
			case "append":
				p.Reportf(call.Pos(), "append may grow its backing array in %s; prove the capacity bound and justify with //lint:noalloc", where)
			}
			return
		}
	}

	// Type conversions: string <-> byte/rune slice copies.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			dst := tv.Type.Underlying()
			src := info.Types[call.Args[0]].Type
			if src != nil && stringSliceConv(dst, src.Underlying()) {
				p.Reportf(call.Pos(), "string/[]byte conversion copies in %s", where)
			}
		}
		return
	}

	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch pkgOf(info, sel) {
		case "fmt":
			p.Reportf(call.Pos(), "fmt.%s allocates in %s", sel.Sel.Name, where)
			return
		case "errors":
			if sel.Sel.Name == "New" {
				p.Reportf(call.Pos(), "errors.New allocates in %s", where)
				return
			}
		}
	}

	// Interface boxing: a non-pointer concrete argument passed to an
	// interface parameter is heap-boxed (word-sized pointers and
	// interfaces pass through unboxed).
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.Types[arg].Type
		if at == nil {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer:
			continue
		}
		p.Reportf(arg.Pos(), "interface conversion boxes a %s value in %s", at, where)
	}
}

// stringSliceConv reports whether a conversion between dst and src types
// is a copying string <-> []byte/[]rune conversion.
func stringSliceConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStr(src))
}

// coldAllocPath reports whether the innermost node of stack sits on a
// failure path where allocation is acceptable: inside a return
// statement, inside an assignment whose target is error-typed, or inside
// a panic argument. Error construction on the way out of a hot function
// happens at most once per failure, not once per message.
func coldAllocPath(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if tv, ok := info.Types[lhs]; ok && tv.Type != nil && isErrorType(tv.Type) {
					return true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}
