package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotDirective marks a function as part of the simulator's steady-state
// hot path (transactional load/store, set probes, tickBetween, cache
// lookups, recorder emission). hotalloc forbids constructs in such
// functions that allocate or box on every call.
const hotDirective = "//rtm:hot"

// runHotAlloc checks //rtm:hot functions for allocation and boxing.
//
// Heuristics, chosen to match what the Go compiler actually does on
// these paths (the AllocsPerRun regression tests are the runtime
// counterpart):
//
//   - &T{...} and slice/map composite literals are flagged; plain value
//     struct/array literals are not (they stay on the stack unless they
//     escape, and escapes of values show up as one of the other shapes).
//   - append is allowed only in the self-append form x = append(x, ...)
//     (amortized growth into retained capacity; zero allocs at steady
//     state), anything else is flagged.
//   - make of any kind, new, map literals and channel operations that
//     create state are flagged.
//   - implicit conversions of concrete values to interface parameters or
//     variables are flagged (boxing), as are all fmt calls.
//   - function literals that capture enclosing variables are flagged
//     (the closure and its captures move to the heap).
//   - string concatenation (+ or +=) with a non-constant operand is
//     flagged once per expression: it builds a fresh string on every
//     call. Build such names once, outside the hot path.
func runHotAlloc(u *Unit) []Diagnostic {
	const pass = "hotalloc"
	var diags []Diagnostic
	for _, fn := range funcDecls(u) {
		if !hasDirective(fn.decl.Doc, hotDirective) {
			continue
		}
		diags = append(diags, hotAllocFunc(u, pass, fn.decl)...)
	}
	return diags
}

func hotAllocFunc(u *Unit, pass string, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	body := fd.Body

	selfAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(u.Info, call, "append") || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(assign.Lhs[i]) == types.ExprString(call.Args[0]) {
				selfAppend[call] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if tv := u.Info.Types[e]; e.Op == token.ADD && tv.Value == nil && isString(tv.Type) {
				diags = append(diags, u.diag(pass, e.Pos(),
					"string concatenation allocates in //rtm:hot function"))
				return false // one finding per a + b + c; its operands are part of it
			}
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok && e.Op.String() == "&" {
				diags = append(diags, u.diag(pass, e.Pos(),
					"&composite literal in //rtm:hot function escapes to the heap"))
			}
		case *ast.CompositeLit:
			if tv, ok := u.Info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					diags = append(diags, u.diag(pass, e.Pos(),
						"slice literal allocates in //rtm:hot function"))
				case *types.Map:
					diags = append(diags, u.diag(pass, e.Pos(),
						"map literal allocates in //rtm:hot function"))
				}
			}
		case *ast.CallExpr:
			diags = append(diags, hotAllocCall(u, pass, e, selfAppend)...)
		case *ast.AssignStmt:
			diags = append(diags, hotBoxingAssign(u, pass, e)...)
			if e.Tok == token.ADD_ASSIGN && isString(u.Info.TypeOf(e.Lhs[0])) {
				diags = append(diags, u.diag(pass, e.Pos(),
					"string concatenation allocates in //rtm:hot function"))
			}
		case *ast.FuncLit:
			if captured := capturedVars(u, fd, e); len(captured) > 0 {
				diags = append(diags, u.diag(pass, e.Pos(),
					"closure in //rtm:hot function captures %s (allocates the closure and its captures)",
					strings.Join(captured, ", ")))
			}
			return false // don't descend: inner body is not the hot path itself
		}
		return true
	})
	return diags
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func hotAllocCall(u *Unit, pass string, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool) []Diagnostic {
	var diags []Diagnostic
	info := u.Info

	switch {
	case isBuiltin(info, call, "append"):
		if !selfAppend[call] {
			diags = append(diags, u.diag(pass, call.Pos(),
				"append outside the self-append form x = append(x, ...) in //rtm:hot function; preallocate or reuse the destination"))
		}
		return diags
	case isBuiltin(info, call, "make"):
		if len(call.Args) > 0 {
			if tv, ok := info.Types[call.Args[0]]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					diags = append(diags, u.diag(pass, call.Pos(), "map creation in //rtm:hot function"))
				case *types.Chan:
					diags = append(diags, u.diag(pass, call.Pos(), "channel creation in //rtm:hot function"))
				default:
					diags = append(diags, u.diag(pass, call.Pos(), "make allocates in //rtm:hot function"))
				}
			}
		}
		return diags
	case isBuiltin(info, call, "new"):
		diags = append(diags, u.diag(pass, call.Pos(), "new allocates in //rtm:hot function"))
		return diags
	}

	if obj := calleeObj(info, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		diags = append(diags, u.diag(pass, call.Pos(),
			"fmt.%s in //rtm:hot function boxes its arguments and formats", obj.Name()))
		return diags
	}

	// Explicit conversion to an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := info.Types[call.Args[0]]; ok && boxes(atv) {
				diags = append(diags, u.diag(pass, call.Pos(),
					"conversion to interface %s boxes in //rtm:hot function", types.ExprString(call.Fun)))
			}
		}
		return diags
	}

	// Implicit boxing: concrete arguments to interface parameters.
	ftv, ok := info.Types[call.Fun]
	if !ok || ftv.Type == nil {
		return diags
	}
	sig, ok := ftv.Type.Underlying().(*types.Signature)
	if !ok {
		return diags
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || !boxes(atv) {
			continue
		}
		diags = append(diags, u.diag(pass, arg.Pos(),
			"argument %s boxes into interface parameter in //rtm:hot function", types.ExprString(arg)))
	}
	return diags
}

// boxes reports whether storing the value described by tv into an
// interface allocates at runtime. Nil values, interface values,
// constants (the compiler materializes them in static data) and
// pointer-shaped values (pointers, maps, channels, funcs — the value
// itself fits the interface data word) do not.
func boxes(tv types.TypeAndValue) bool {
	if tv.Type == nil || tv.IsNil() || tv.Value != nil || types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return tv.Type.Underlying().(*types.Basic).Kind() != types.UnsafePointer
	}
	return true
}

// hotBoxingAssign flags assignments of concrete values to
// interface-typed variables.
func hotBoxingAssign(u *Unit, pass string, assign *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	if len(assign.Lhs) != len(assign.Rhs) {
		return nil
	}
	for i := range assign.Lhs {
		lt, ok := u.Info.Types[assign.Lhs[i]]
		if !ok || lt.Type == nil || !types.IsInterface(lt.Type) {
			continue
		}
		rt, ok := u.Info.Types[assign.Rhs[i]]
		if !ok || !boxes(rt) {
			continue
		}
		diags = append(diags, u.diag(pass, assign.Rhs[i].Pos(),
			"assignment boxes %s into interface in //rtm:hot function", types.ExprString(assign.Rhs[i])))
	}
	return diags
}

// capturedVars returns the names of variables declared in fd but outside
// lit that lit's body references.
func capturedVars(u *Unit, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := u.Info.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos < fd.Pos() || pos > fd.End() {
			return true // package-level or foreign
		}
		if pos >= lit.Pos() && pos <= lit.End() {
			return true // the literal's own locals/params
		}
		seen[obj] = true
		names = append(names, obj.Name())
		return true
	})
	return names
}
