package analysis

// txnsafe: atomic-block closures handed to the tm/htm/stm backends may
// only touch simulated state through the Txn load/store API. A
// transaction body is re-executed on every abort, so any host-state
// side effect — a captured-variable mutation, a shared slice/map
// write, a counter increment, a channel op, I/O — silently compounds
// or corrupts when the attempt retries (PR 6 found two such bugs at
// runtime in the yada and labyrinth ports; this pass finds them at
// vet time, including through helper calls, using the interprocedural
// effect summaries).
//
// The sanctioned escape hatch is //rtm:oncommit on a helper whose
// effects are commit-gated by construction; plain scalar rebinding of
// a captured variable (the closure-result idiom) is always allowed.

import (
	"go/ast"
	"go/types"
)

// txnBannedEffects are the context-free effects a transaction body may
// not reach. Nondeterminism bits (time/rand/env) are detnondet's
// domain and deliberately not duplicated here.
const txnBannedEffects = EffWriteGlobal | EffWriteAlias | EffIO | EffChan | EffGo |
	EffBoundary | EffUnknown

// txnSafeKinds names the finding kinds that are not "host-effect".
var txnSafeKinds = map[Effect]string{EffUnknown: "unresolved-call"}

// isTxnBody reports whether the closure's signature marks it as an
// atomic body: a parameter of type tm.Tx (or a direct *htm.Txn /
// *stm.Txn backend handle).
func isTxnBody(u *Unit, lit *ast.FuncLit) bool {
	tv, ok := u.Info.Types[lit]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isNamedType(t, "internal/tm", "Tx") ||
			isNamedType(t, "internal/htm", "Txn") ||
			isNamedType(t, "internal/stm", "Txn") {
			return true
		}
	}
	return false
}

// runTxnSafe checks every atomic-body closure in the unit.
func runTxnSafe(u *Unit) []Diagnostic {
	const pass = "txnsafe"
	var diags []Diagnostic
	for _, f := range u.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok || !isTxnBody(u, lit) {
				return true
			}
			sum := u.SummaryForLit(lit)
			if sum == nil {
				return true
			}
			for _, cw := range sum.CapturedWrites() {
				pos, detail := u.causeAt(cw.Cause, lit.Pos())
				how := "mutates"
				if cw.NonIdem {
					how = "non-idempotently mutates"
				}
				diags = append(diags, u.diagKind(pass, "captured-write", pos,
					"atomic body %s captured %s outside the Txn API; the body re-executes on abort%s",
					how, cw.Var.Name(), detail))
			}
			diags = append(diags, u.effectDiags(pass, sum, txnBannedEffects, lit.Pos(), txnSafeKinds,
				"atomic body %s; the body re-executes on abort")...)
			return true
		})
	}
	return diags
}
