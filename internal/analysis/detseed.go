package analysis

import (
	"go/ast"
	"go/types"
)

// runDetSeed checks every construction/reseeding of an internal/rng
// generator, in every package: the seed expression must not pull from
// wall-clock, pid, environment or ambient-randomness sources (the
// intrinsics table's EffTime, EffRand and EffEnv entries). Seeds are
// experiment inputs — they arrive through flags, config structs or
// parent generators, which is what makes whole runs replayable.
func runDetSeed(u *Unit) []Diagnostic {
	const pass = "detseed"
	if pkgPathIs(u.Pkg, "internal/rng") {
		return nil // the generator package itself defines, not consumes, seeds
	}
	var diags []Diagnostic
	for _, fn := range funcDecls(u) {
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			obj := calleeObj(u.Info, call)
			if obj == nil || !pkgPathIs(obj.Pkg(), "internal/rng") {
				return true
			}
			var seed ast.Expr
			switch obj.Name() {
			case "New", "Seed":
				seed = call.Args[0]
			default:
				return true
			}
			if src, bad := nondetSeedSource(u.Info, seed); bad {
				diags = append(diags, u.diag(pass, seed.Pos(),
					"rng seed for %s derived from nondeterministic source %s; take seeds from a parameter or config struct",
					obj.Name(), src))
			}
			return true
		})
	}
	return diags
}

// nondetSeedSource scans a seed expression for calls the intrinsics
// table marks as reading the wall clock, global randomness or the host
// environment.
func nondetSeedSource(info *types.Info, seed ast.Expr) (string, bool) {
	var found string
	ast.Inspect(seed, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f, ok := calleeObj(info, call).(*types.Func)
		if !ok {
			return true
		}
		if in, _ := intrinsicFor(f); in.bits&(EffTime|EffRand|EffEnv) != 0 {
			found = f.Pkg().Path() + "." + f.Name()
			return false
		}
		return true
	})
	return found, found != ""
}
