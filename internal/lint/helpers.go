package lint

import (
	"go/ast"
	"go/types"
)

// All returns the full gpsa-lint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		ActorShare,
		ColAlias,
		Determinism,
		CtxBlock,
		SyncErr,
		Noalloc,
		FrameProto,
	}
}

// ByName resolves analyzer names to analyzers; unknown names return nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// pkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now), resolving through the type info.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, isMethodOrField := info.Selections[sel]; isMethodOrField {
		// A method from pkgPath (e.g. (*rand.Rand).Intn) is not the
		// package-level function of the same name.
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// pkgOf returns the import path of the package providing the selector's
// object, or "" when the selector is not a package-level reference.
func pkgOf(info *types.Info, sel *ast.SelectorExpr) string {
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if _, ok := info.Selections[sel]; ok {
		return "" // method or field selection, not a package reference
	}
	return obj.Pkg().Path()
}

// methodOn reports whether call invokes a method with the given name whose
// receiver's named type is typeName (pointer or value receiver alike).
// The receiver type's package is not checked, so fixtures can model the
// real types with local doubles.
func methodOn(info *types.Info, call *ast.CallExpr, typeName, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	return namedTypeName(s.Recv()) == typeName
}

// namedTypeName unwraps pointers and returns the name of a named type, or
// "" for unnamed types.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// lastResultIsError reports whether call's (possibly tuple) result ends in
// error; calls with no results return false.
func lastResultIsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeIdent returns the syntactic name of the called function or method
// (for messages), or "" when unnameable.
func calleeIdent(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// hasDefaultClause reports whether a select statement carries a default
// clause (making its communication attempts non-blocking).
func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// funcHasCtxParam reports whether the declaration takes a context.Context
// parameter.
func funcHasCtxParam(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, f := range fn.Type.Params.List {
		tv, ok := info.Types[f.Type]
		if !ok {
			continue
		}
		if n, ok := tv.Type.(*types.Named); ok {
			o := n.Obj()
			if o.Name() == "Context" && o.Pkg() != nil && o.Pkg().Path() == "context" {
				return true
			}
		}
	}
	return false
}
