package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FrameProto keeps frame-kind dispatch exhaustive. The cluster wire
// protocol (internal/cluster/protocol.go) identifies every frame by a
// one-byte kind drawn from the package-level fXxx constant block —
// fHello through the v3 elastic-membership frames (fJoin, fMigrate*,
// fRouting*). When a new frame is added, every switch over a
// frame kind must either handle it or reject it loudly: a switch with a
// silent default (or no default and a missing case) drops the frame on
// the floor, which for membership traffic means a node that never
// answers a migration and a coordinator that hangs at the barrier.
//
// The analyzer finds every switch statement in internal/cluster whose
// cases compare against frame constants (names matching ^f[A-Z]) and
// requires one of:
//
//   - an explicit default whose body errors — returns, panics, or calls
//     a failure reporter (a name containing "fail", "report", or
//     "fatal");
//   - no default, but cases covering the complete frame set.
//
// Receive loops that only expect a subset (the peer data plane takes
// fPeerHello/fBatch/fEOS only) satisfy the rule with their erroring
// default; a deliberately silent subset switch carries a
// //lint:frameproto <reason> justification.
var FrameProto = &Analyzer{
	Name: "frameproto",
	Doc: "switches over the frame-type byte must be exhaustive over the " +
		"v3 frame set or carry a default that errors",
	Packages: []string{"internal/cluster"},
	Run:      runFrameProto,
}

// framePrefixOK reports whether name is a frame-kind constant name:
// lower-case f followed by an exported-style camel-case tail.
func framePrefixOK(name string) bool {
	return len(name) > 1 && name[0] == 'f' && name[1] >= 'A' && name[1] <= 'Z'
}

// frameConst is one fXxx constant of the package.
type frameConst struct {
	name string
	val  int64
	obj  types.Object
}

// frameSet collects the package's frame-kind constants.
func frameSet(pkg *Package) []frameConst {
	var out []frameConst
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if !framePrefixOK(name) {
			continue
		}
		cn, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		v, ok := constant.Int64Val(constant.ToInt(cn.Val()))
		if !ok {
			continue
		}
		out = append(out, frameConst{name: name, val: v, obj: cn})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].val < out[j].val })
	return out
}

func runFrameProto(pass *Pass) {
	frames := frameSet(pass.Pkg)
	if len(frames) == 0 {
		return
	}
	frameObjs := make(map[types.Object]bool, len(frames))
	for _, fc := range frames {
		frameObjs[fc.obj] = true
	}
	info := pass.Pkg.Info

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			covered := make(map[types.Object]bool)
			var defaultClause *ast.CaseClause
			for _, cl := range sw.Body.List {
				cc := cl.(*ast.CaseClause)
				if cc.List == nil {
					defaultClause = cc
					continue
				}
				for _, e := range cc.List {
					if id, ok := ast.Unparen(e).(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil && frameObjs[obj] {
							covered[obj] = true
						}
					}
				}
			}
			if len(covered) == 0 {
				return true // not a frame-kind switch
			}
			if defaultClause != nil {
				if !clauseErrors(defaultClause) {
					pass.Reportf(defaultClause.Pos(),
						"default clause of a frame-kind switch must error (return, panic, or report the failure): a silent default drops unknown frames; justify with //lint:frameproto")
				}
				return true
			}
			var missing []string
			for _, fc := range frames {
				if !covered[fc.obj] {
					missing = append(missing, fc.name)
				}
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(),
					"frame-kind switch without a default is missing %s: add the cases or an erroring default; justify a deliberate subset with //lint:frameproto",
					strings.Join(missing, ", "))
			}
			return true
		})
	}
}

// clauseErrors reports whether the clause body unmistakably rejects the
// frame: it returns, panics, or calls a failure reporter.
func clauseErrors(cc *ast.CaseClause) bool {
	if len(cc.Body) == 0 {
		return false
	}
	errs := false
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				errs = true
			case *ast.BranchStmt:
				if n.Tok == token.GOTO {
					errs = true // error-handling label
				}
			case *ast.CallExpr:
				name := strings.ToLower(calleeIdent(n))
				if name == "panic" || strings.Contains(name, "fail") ||
					strings.Contains(name, "report") || strings.Contains(name, "fatal") {
					errs = true
				}
			}
			return !errs
		})
		if errs {
			return true
		}
	}
	return false
}
