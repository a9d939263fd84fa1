package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// detPackages are the module-relative packages whose behavior must be a
// pure function of (config, seed): everything that feeds the simulated
// timeline or the experiment output. cmd/ and the analysis tooling are
// deliberately outside the list.
var detPackages = []string{
	"internal/sim",
	"internal/mem",
	"internal/htm",
	"internal/stm",
	"internal/tm",
	"internal/harness",
	"internal/obs",
	"internal/eigenbench",
	"internal/stamp",
	"internal/energy",
}

// detMarker opts a package into the deterministic checks (used by
// fixtures and by any future package that wants the guarantee).
const detMarker = "//rtmvet:deterministic"

func deterministicUnit(u *Unit) bool {
	for _, p := range detPackages {
		if u.Path == u.Loader.ModulePath+"/"+p {
			return true
		}
	}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == detMarker {
					return true
				}
			}
		}
	}
	return false
}

// runDetNonDet flags nondeterminism sources in deterministic packages.
func runDetNonDet(u *Unit) []Diagnostic {
	const pass = "detnondet"
	if !deterministicUnit(u) {
		return nil
	}
	var diags []Diagnostic
	for _, fn := range funcDecls(u) {
		body := fn.decl.Body

		// Direct calls to wall-clock, global-rand and goroutine-identity
		// sources anywhere in the function. The wall-clock and randomness
		// sources are the effect engine's stdlib intrinsics, which tell
		// package functions (the global stream) from methods (a seeded
		// *rand.Rand).
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(u.Info, call)
			var in intrinsicEffect
			if f, ok := obj.(*types.Func); ok {
				in, _ = intrinsicFor(f)
			}
			switch {
			case in.bits&EffTime != 0:
				diags = append(diags, u.diag(pass, call.Pos(),
					"call to time.%s in deterministic package; time must come from the simulated clock", obj.Name()))
			case in.bits&EffRand != 0:
				diags = append(diags, u.diag(pass, call.Pos(),
					"global %s.%s in deterministic package; use a seeded internal/rng generator", obj.Pkg().Path(), obj.Name()))
			case isPkgFunc(obj, "runtime", "NumGoroutine", "Stack"):
				diags = append(diags, u.diag(pass, call.Pos(),
					"runtime.%s leaks goroutine identity into a deterministic package", obj.Name()))
			default:
				// Interprocedural: a module-internal helper outside the
				// deterministic scope whose effect summary reaches a
				// wall-clock or global-rand source taints this call site.
				if f, sum := crossDetSummary(u, call); sum != nil {
					if sum.Bits&EffTime != 0 {
						diags = append(diags, u.diagKind(pass, "cross-package", call.Pos(),
							"call to %s reaches a wall-clock source outside the deterministic scope: %s",
							f.Name(), causeText(u.Fset, sum.Cause(EffTime))))
					}
					if sum.Bits&EffRand != 0 {
						diags = append(diags, u.diagKind(pass, "cross-package", call.Pos(),
							"call to %s reaches a global randomness source outside the deterministic scope: %s",
							f.Name(), causeText(u.Fset, sum.Cause(EffRand))))
					}
				}
			}
			return true
		})

		diags = append(diags, envBranches(u, pass, body)...)
		diags = append(diags, mapRanges(u, pass, body)...)
	}
	return diags
}

// crossDetSummary returns the callee and effect summary of a call to a
// module-internal function outside the deterministic scope (a helper
// package such as runner or stats). It returns nil for stdlib calls
// (the direct checks cover those), same-package calls (flagged at
// their source), and calls into deterministic packages (vetted in
// their own units — re-flagging them here would force suppression
// cascades at every caller).
func crossDetSummary(u *Unit, call *ast.CallExpr) (*types.Func, *Summary) {
	f, ok := calleeObj(u.Info, call).(*types.Func)
	if !ok || f.Pkg() == u.Pkg || !u.Loader.inModule(f.Pkg()) {
		return nil, nil
	}
	for _, p := range detPackages {
		if pkgPathIs(f.Pkg(), p) {
			return nil, nil
		}
	}
	sum := u.SummaryForFunc(f)
	if sum == nil {
		return nil, nil
	}
	return f, sum
}

// readsEnv reports whether expr contains a call that reads the process
// environment or host configuration: a stdlib call whose intrinsic
// carries EffEnv (os.Getenv, runtime.GOMAXPROCS, ...) or a call whose
// cross-package effect summary does.
func readsEnv(u *Unit, expr ast.Node) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f, ok := calleeObj(u.Info, call).(*types.Func)
		if !ok {
			return true
		}
		if in, _ := intrinsicFor(f); in.bits&EffEnv != 0 {
			found = true
		} else if _, sum := crossDetSummary(u, call); sum != nil && sum.Bits&EffEnv != 0 {
			found = true
		}
		return !found
	})
	return found
}

// envBranches flags branching on the environment: a call that reads it
// (see readsEnv) directly in an if/switch/for condition, or a local
// variable assigned from one and later used in a condition. Through the
// effect summaries the same taint crosses function boundaries: a helper
// that returns a value derived from the environment taints the
// variables it is assigned to and the conditions it appears in.
func envBranches(u *Unit, pass string, body *ast.BlockStmt) []Diagnostic {
	tainted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		fromEnv := false
		for _, rhs := range assign.Rhs {
			fromEnv = fromEnv || readsEnv(u, rhs)
		}
		if !fromEnv {
			return true
		}
		for _, lhs := range assign.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := u.Info.Defs[id]; obj != nil {
					tainted[obj] = true
				} else if obj := u.Info.Uses[id]; obj != nil {
					tainted[obj] = true
				}
			}
		}
		return true
	})

	condSuspicious := func(cond ast.Expr) (token.Pos, bool) {
		if cond == nil {
			return token.NoPos, false
		}
		if readsEnv(u, cond) {
			return cond.Pos(), true
		}
		var pos token.Pos
		ast.Inspect(cond, func(n ast.Node) bool {
			if pos.IsValid() {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && tainted[u.Info.Uses[id]] {
				pos = id.Pos()
				return false
			}
			return true
		})
		return pos, pos.IsValid()
	}

	var diags []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		var cond ast.Expr
		switch s := n.(type) {
		case *ast.IfStmt:
			cond = s.Cond
		case *ast.SwitchStmt:
			cond = s.Tag
		case *ast.ForStmt:
			cond = s.Cond
		default:
			return true
		}
		if pos, bad := condSuspicious(cond); bad {
			diags = append(diags, u.diag(pass, pos,
				"branch depends on os.Getenv or host configuration in deterministic package; thread configuration through arch.Config instead"))
		}
		return true
	})
	return diags
}

// mapRanges flags range statements over maps whose bodies have
// order-dependent effects. Two escapes are recognized: ranging over a
// call result (assumed to be an order-defining producer such as
// detsort.Keys), and appending to a slice that is sorted by a statement
// following the range in the same block.
func mapRanges(u *Unit, pass string, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := u.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if _, isCall := ast.Unparen(rs.X).(*ast.CallExpr); isCall {
			return true // producer defines the order
		}

		sinkPos, sinkDesc, appendTargets := mapRangeBodyEffects(u, rs)
		if sinkPos.IsValid() {
			diags = append(diags, u.diag(pass, sinkPos,
				"map iteration order reaches %s; iterate sorted keys (e.g. detsort.Keys) instead", sinkDesc))
			return true
		}
		if len(appendTargets) == 0 {
			return true
		}
		if sortedAfter(u, rs, appendTargets) {
			return true
		}
		d := u.diag(pass, rs.Range,
			"map iteration order reaches an appended slice that is never sorted; iterate sorted keys (e.g. detsort.Keys) or sort the result")
		d.fix = mapFixFor(u, rs)
		diags = append(diags, d)
		return true
	})
	return diags
}

// mapRangeBodyEffects classifies the body of a map range. It returns a
// position and description of the first unredeemable order-sensitive
// sink (stream writers, recorders, string building), plus the set of
// local slice variables the body appends to (redeemable by sorting).
func mapRangeBodyEffects(u *Unit, rs *ast.RangeStmt) (token.Pos, string, map[types.Object]bool) {
	appendTargets := make(map[types.Object]bool)
	var sinkPos token.Pos
	var sinkDesc string
	note := func(pos token.Pos, desc string) {
		if !sinkPos.IsValid() {
			sinkPos, sinkDesc = pos, desc
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
				if t, ok := u.Info.Types[s.Lhs[0]]; ok {
					if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						note(s.Pos(), "a string built by concatenation")
					}
				}
			}
			for i, rhs := range s.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := u.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && i < len(s.Lhs) {
						if root := rootIdent(s.Lhs[i]); root != nil {
							if obj := u.Info.Uses[root]; obj != nil {
								appendTargets[obj] = true
							} else if obj := u.Info.Defs[root]; obj != nil {
								appendTargets[obj] = true
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			obj := calleeObj(u.Info, s)
			if isPkgFunc(obj, "fmt", "Fprintf", "Fprintln", "Fprint", "Printf", "Println", "Print") {
				note(s.Pos(), "a formatted output stream")
				return true
			}
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				if selInfo, ok := u.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
					recv := selInfo.Recv()
					switch {
					case isNamedType(recv, "strings", "Builder"), isNamedType(recv, "bytes", "Buffer"):
						note(s.Pos(), "a strings.Builder/bytes.Buffer")
					case isNamedType(recv, "internal/obs", "Recorder"):
						note(s.Pos(), "the flight recorder")
					case isNamedType(recv, "bufio", "Writer"):
						note(s.Pos(), "a buffered writer")
					}
				}
			}
		}
		return true
	})
	return sinkPos, sinkDesc, appendTargets
}

// sortedAfter reports whether a statement following rs — in its
// enclosing block or any enclosing block up to the function boundary —
// sorts one of the appended slices. Walking outward covers the common
// collect-in-nested-loops-then-sort-once shape.
func sortedAfter(u *Unit, rs *ast.RangeStmt, targets map[types.Object]bool) bool {
	child := ast.Node(rs)
	for {
		parent := u.Parent(child)
		if parent == nil {
			return false
		}
		switch p := parent.(type) {
		case *ast.BlockStmt:
			for _, st := range p.List {
				if st.Pos() <= child.End() {
					continue
				}
				if sortsTarget(u, st, targets) {
					return true
				}
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
		child = parent
	}
}

// sortsTarget reports whether st contains a sort/slices call whose first
// argument is one of the target slices.
func sortsTarget(u *Unit, st ast.Stmt, targets map[types.Object]bool) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(u.Info, call)
		if !isPkgFunc(obj, "sort") && !isPkgFunc(obj, "slices") {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if root := rootIdent(call.Args[0]); root != nil && targets[u.Info.Uses[root]] {
			found = true
			return false
		}
		return true
	})
	return found
}

// mapFixFor captures the data needed to rewrite a sortable map range to
// iterate detsort.Keys. Only the simple, always-safe shape is fixable:
// `for k := range m` or `for k, v := range m` with := and an ordered,
// non-blank key.
func mapFixFor(u *Unit, rs *ast.RangeStmt) *mapFix {
	if rs.Tok != token.DEFINE {
		return nil
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return nil
	}
	tv, ok := u.Info.Types[rs.X]
	if !ok {
		return nil
	}
	m, ok := tv.Type.Underlying().(*types.Map)
	if !ok {
		return nil
	}
	b, ok := m.Key().Underlying().(*types.Basic)
	if !ok || b.Info()&(types.IsOrdered) == 0 {
		return nil
	}
	valName := ""
	if rs.Value != nil {
		vid, ok := rs.Value.(*ast.Ident)
		if !ok {
			return nil
		}
		if vid.Name != "_" {
			valName = vid.Name
		}
	}
	return &mapFix{rs: rs, keyName: key.Name, valName: valName}
}
