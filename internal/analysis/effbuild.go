package analysis

// Intra-procedural effect collection: one walk over a function body
// classifies every write target against the function's scope (local,
// parameter, receiver, captured, package-level), records host effects
// (I/O, channels, goroutines), and resolves call sites to call-graph
// edges — direct calls, method calls, interface dispatch widened over
// known implementors, closure literals (inline calls, unique local
// bindings, and conservative may-call edges for closure arguments),
// and method values (conservative propagation at the reference site).

import (
	"go/ast"
	"go/token"
	"go/types"
)

type effBuild struct {
	e *effEngine
	n *fnode
	u *Unit
}

// buildDirect computes n's direct summary, provenance map, and edges.
func (e *effEngine) buildDirect(n *fnode) {
	n.sum = newSummary()
	n.ext = make(map[*types.Var]bool)
	if n.body == nil {
		n.sum.addBit(EffUnknown, &Cause{Pos: n.lo, Desc: "declaration without body"}, false)
		return
	}
	b := &effBuild{e: e, n: n, u: n.u}
	b.provenance()
	b.walk()
}

// isLocal reports whether v is declared inside the node (and is not a
// parameter or the receiver).
func (b *effBuild) isLocal(v *types.Var) bool {
	cls, _ := b.n.classOf(v)
	return cls == rcLocal
}

// provenance marks node-local variables whose value derives from calls
// or non-local state, so later writes through them count as alias
// writes rather than private-scratch mutation.
func (b *effBuild) provenance() {
	mark := func(id *ast.Ident, rhs ast.Expr) {
		obj, _ := b.u.Info.Defs[id].(*types.Var)
		if obj == nil {
			obj, _ = b.u.Info.Uses[id].(*types.Var)
		}
		if obj == nil || !b.isLocal(obj) {
			return
		}
		if rhs != nil && b.externalExpr(rhs) {
			b.n.ext[obj] = true
		}
	}
	ast.Inspect(b.n.body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				mark(id, rhs)
			}
		case *ast.ValueSpec:
			for i, id := range s.Names {
				if i < len(s.Values) {
					mark(id, s.Values[i])
				} else if len(s.Values) == 1 {
					mark(id, s.Values[0])
				}
			}
		case *ast.RangeStmt:
			if s.X != nil && b.externalExpr(s.X) {
				if id, ok := s.Key.(*ast.Ident); ok {
					mark(id, s.X)
				}
				if id, ok := s.Value.(*ast.Ident); ok {
					mark(id, s.X)
				}
			}
		}
		return true
	})
}

// externalExpr reports whether evaluating e can yield a reference to
// state outside the node (calls, captured/global/parameter roots,
// channel receives). Fresh allocations (composite literals, make, new)
// and plain values are internal.
func (b *effBuild) externalExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch ee := e.(type) {
	case *ast.BasicLit, *ast.FuncLit, *ast.CompositeLit:
		return false
	case *ast.BinaryExpr:
		return false
	case *ast.TypeAssertExpr:
		return b.externalExpr(ee.X)
	case *ast.UnaryExpr:
		switch ee.Op {
		case token.AND:
			return b.externalExpr(ee.X)
		case token.ARROW:
			return true
		}
		return false
	case *ast.CallExpr:
		if tv, ok := b.u.Info.Types[ee.Fun]; ok && tv.IsType() {
			if len(ee.Args) == 1 {
				return b.externalExpr(ee.Args[0])
			}
			return true
		}
		if obj, ok := calleeObj(b.u.Info, ee).(*types.Builtin); ok {
			switch obj.Name() {
			case "make", "new", "len", "cap":
				return false
			case "append":
				return len(ee.Args) > 0 && b.externalExpr(ee.Args[0])
			}
		}
		return true
	case *ast.Ident:
		obj, _ := b.u.Info.Uses[ee].(*types.Var)
		if obj == nil {
			return false
		}
		return !b.isLocal(obj) || b.n.ext[obj]
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.SliceExpr:
		root := rootIdent(e)
		if root == nil {
			return true
		}
		obj, _ := b.u.Info.Uses[root].(*types.Var)
		if obj == nil {
			return true
		}
		return !b.isLocal(obj) || b.n.ext[obj]
	}
	return true
}

func (b *effBuild) addBit(bit Effect, pos token.Pos, desc string) {
	b.n.sum.addBit(bit, &Cause{Pos: pos, Desc: desc}, false)
}

func (b *effBuild) addWrite(bit Effect, nonIdem bool, pos token.Pos, desc string) {
	b.n.sum.addBit(bit, &Cause{Pos: pos, Desc: desc}, nonIdem)
}

func (b *effBuild) typeOf(e ast.Expr) types.Type {
	if tv, ok := b.u.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// walk is the main collection pass. Nested closure literals are not
// descended into: they are analyzed as their own nodes where an edge
// references them (inline call, unique binding, or closure argument).
func (b *effBuild) walk() {
	ast.Inspect(b.n.body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			b.assign(s)
		case *ast.IncDecStmt:
			b.writeTo(s.X, true, s.TokPos)
		case *ast.SendStmt:
			b.addBit(EffChan, s.Arrow, "channel send")
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				b.addBit(EffChan, s.OpPos, "channel receive")
			}
		case *ast.SelectStmt:
			b.addBit(EffChan, s.Select, "select statement")
		case *ast.RangeStmt:
			if t := b.typeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					b.addBit(EffChan, s.For, "range over channel")
				}
			}
		case *ast.GoStmt:
			b.addBit(EffGo, s.Go, "go statement")
		case *ast.CallExpr:
			b.call(s)
		case *ast.SelectorExpr:
			b.selRef(s)
		case *ast.Ident:
			b.identRef(s)
		}
		return true
	})
}

func (b *effBuild) assign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.DEFINE:
		return
	case token.ASSIGN:
		for i, lhs := range s.Lhs {
			nonIdem := false
			if len(s.Lhs) == len(s.Rhs) {
				nonIdem = selfAppend(b.u.Info, lhs, s.Rhs[i])
			}
			b.writeTo(lhs, nonIdem, lhs.Pos())
		}
	default: // compound: +=, -=, |=, ...
		for _, lhs := range s.Lhs {
			b.writeTo(lhs, true, lhs.Pos())
		}
	}
}

// selfAppend reports the x = append(x, ...) growth idiom (re-executed,
// it compounds).
func selfAppend(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if obj, ok := calleeObj(info, call).(*types.Builtin); !ok || obj.Name() != "append" {
		return false
	}
	lr, ar := rootIdent(lhs), rootIdent(call.Args[0])
	if lr == nil || ar == nil {
		return false
	}
	lo, ao := info.Uses[lr], info.Uses[ar]
	if lo == nil {
		lo = info.Defs[lr]
	}
	return lo != nil && lo == ao
}

// writeTo classifies one write target and records the effect.
func (b *effBuild) writeTo(target ast.Expr, nonIdem bool, pos token.Pos) {
	target = ast.Unparen(target)
	id, bare := target.(*ast.Ident)
	if bare && id.Name == "_" {
		return
	}
	root := rootIdent(target)
	if root == nil {
		b.addWrite(EffWriteAlias, nonIdem, pos, "write through unrooted expression")
		return
	}
	obj := b.u.Info.Uses[root]
	if obj == nil {
		obj = b.u.Info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	cls, idx := b.n.classOf(v)
	switch cls {
	case rcGlobal:
		b.addWrite(EffWriteGlobal, nonIdem, pos, "writes package-level "+v.Name())
	case rcRecv:
		if !bare && derefs(b.u.Info, target) {
			b.n.sum.addRecv(nonIdem, &Cause{Pos: pos, Desc: "writes receiver state"})
		}
	case rcParam:
		if !bare && derefs(b.u.Info, target) {
			b.n.sum.addParam(idx, nonIdem, &Cause{Pos: pos, Desc: "writes through parameter " + v.Name()})
		}
	case rcCaptured:
		// A plain scalar rebinding of a captured variable is the
		// sanctioned closure-result idiom; everything else (aggregate
		// writes, ++/op=/self-append) mutates shared closure state.
		if bare && !nonIdem {
			return
		}
		b.n.sum.addCaptured(v, nonIdem, &Cause{Pos: pos, Desc: "mutates captured " + v.Name()})
	case rcLocal:
		if !bare && b.n.ext[v] {
			b.addWrite(EffWriteAlias, nonIdem, pos,
				"writes through "+v.Name()+", which aliases non-local state")
		}
	}
}

// derefs reports whether the access path of a write target passes
// through a dereference (pointer, slice, or map step), i.e. whether a
// write through a by-value parameter or receiver escapes the local
// copy.
func derefs(info *types.Info, e ast.Expr) bool {
	for {
		switch ee := ast.Unparen(e).(type) {
		case *ast.StarExpr:
			return true
		case *ast.IndexExpr:
			if tv, ok := info.Types[ee.X]; ok && tv.Type != nil {
				if _, isArr := tv.Type.Underlying().(*types.Array); isArr {
					e = ee.X
					continue
				}
			}
			return true
		case *ast.SelectorExpr:
			if tv, ok := info.Types[ee.X]; ok && tv.Type != nil {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					return true
				}
			}
			e = ee.X
		default:
			return false
		}
	}
}

// inCallPos reports whether e is the function operand of a call.
func (b *effBuild) inCallPos(e ast.Expr) bool {
	p := b.u.Parent(e)
	for {
		if pe, ok := p.(*ast.ParenExpr); ok {
			p = b.u.Parent(pe)
			continue
		}
		break
	}
	call, ok := p.(*ast.CallExpr)
	return ok && ast.Unparen(call.Fun) == e
}

// identRef records a reference to a declared function as a value (not
// in call position, not part of a selector): conservative bind edge.
func (b *effBuild) identRef(id *ast.Ident) {
	if par := b.u.Parent(id); par != nil {
		if sel, ok := par.(*ast.SelectorExpr); ok && sel.Sel == id {
			return // handled by selRef
		}
	}
	f, ok := b.u.Info.Uses[id].(*types.Func)
	if !ok || b.inCallPos(id) {
		return
	}
	b.funcValue(f, nil, id.Pos())
}

// selRef records a method value or package-qualified function value.
func (b *effBuild) selRef(sel *ast.SelectorExpr) {
	if b.inCallPos(sel) {
		return
	}
	f, ok := b.u.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	var recv ast.Expr
	if s := b.u.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		recv = sel.X
	}
	b.funcValue(f, recv, sel.Pos())
}

// funcValue handles a function referenced as a value: its effects may
// run later with unknown arguments, so propagate conservatively now.
func (b *effBuild) funcValue(f *types.Func, recv ast.Expr, pos token.Pos) {
	if in, ok := intrinsicFor(f); ok {
		if in.bits != 0 {
			b.addWrite(in.bits, in.nonIdem, pos, "references "+f.Name()+", which "+in.desc)
		}
		return
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		b.ifaceEdge(f, recv, nil, true, pos)
		return
	}
	n := b.e.nodeForFunc(f)
	if n == nil {
		if b.e.l.inModule(f.Pkg()) {
			b.addBit(EffUnknown, pos, "reference to "+f.Name()+" with no analyzable body")
		}
		return
	}
	if n.onCommit {
		return
	}
	b.edgeTo([]*fnode{n}, pos, recv, nil, true, "use of "+n.name+" as a value")
}

func (b *effBuild) edgeTo(targets []*fnode, pos token.Pos, recv ast.Expr, args []ast.Expr, bind bool, desc string) {
	kept := make([]*fnode, 0, len(targets))
	for _, t := range targets {
		if t != nil {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		return
	}
	b.n.edges = append(b.n.edges, &effEdge{
		pos: pos, desc: desc, targets: kept, recv: recv, args: args, bind: bind,
	})
}

// call resolves one call site.
func (b *effBuild) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := b.u.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if lit, ok := fun.(*ast.FuncLit); ok {
		b.edgeTo([]*fnode{b.e.nodeForLit(b.u, lit)}, call.Pos(), nil, call.Args, false, "inline closure call")
		b.litArgs(call)
		return
	}
	switch o := calleeObj(b.u.Info, call).(type) {
	case *types.Builtin:
		b.builtinCall(o.Name(), call)
	case *types.Func:
		if b.funcCall(o, fun, call) {
			return // deferred-closure intrinsic: arguments run at the boundary
		}
	case *types.Var:
		b.varCall(o, call)
	default:
		b.addBit(EffUnknown, call.Pos(), "indirect call rtmvet cannot resolve")
	}
	b.litArgs(call)
}

// litArgs adds conservative may-call edges for closure literals passed
// as arguments: the callee may invoke them with arguments we cannot
// see.
func (b *effBuild) litArgs(call *ast.CallExpr) {
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			b.edgeTo([]*fnode{b.e.nodeForLit(b.u, lit)}, a.Pos(), nil, nil, true, "closure passed as argument")
		}
	}
}

func (b *effBuild) builtinCall(name string, call *ast.CallExpr) {
	switch name {
	case "delete":
		if len(call.Args) > 0 {
			b.writeTo(call.Args[0], false, call.Pos())
		}
	case "copy":
		if len(call.Args) > 0 {
			b.writeTo(call.Args[0], false, call.Pos())
		}
	case "close":
		b.addBit(EffChan, call.Pos(), "close on channel")
	case "print", "println":
		b.addBit(EffIO, call.Pos(), "builtin "+name)
	case "clear":
		if len(call.Args) > 0 {
			b.writeTo(call.Args[0], false, call.Pos())
		}
	}
}

// varCall handles a call through a function-typed variable.
func (b *effBuild) varCall(v *types.Var, call *ast.CallExpr) {
	cls, _ := b.n.classOf(v)
	if cls == rcParam || cls == rcRecv {
		// Calling our own function-typed parameter: the caller accounts
		// for the closure it passed (litArgs / funcValue at its site).
		return
	}
	if !v.IsField() {
		if lit := b.e.bindingFor(b.u, v); lit != nil {
			b.edgeTo([]*fnode{b.e.nodeForLit(b.u, lit)}, call.Pos(), nil, call.Args, false, "call via "+v.Name())
			return
		}
	}
	b.addBit(EffUnknown, call.Pos(), "call through function value "+v.Name())
}

// funcCall handles a direct function or method call. Reports true when
// the callee is a deferred-closure intrinsic (closure arguments run at
// the epoch boundary, so litArgs must not fold them in).
func (b *effBuild) funcCall(f *types.Func, fun ast.Expr, call *ast.CallExpr) bool {
	var recv ast.Expr
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s := b.u.Info.Selections[sel]; s != nil {
			recv = sel.X
		}
	}
	if in, ok := intrinsicFor(f); ok {
		if in.bits != 0 && !b.privateCacheCall(f, recv) {
			b.addWrite(in.bits, in.nonIdem, call.Pos(), "calls "+f.Name()+", which "+in.desc)
		}
		return in.deferred
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		b.ifaceEdge(f, recv, call.Args, false, call.Pos())
		return false
	}
	n := b.e.nodeForFunc(f)
	if n == nil {
		if b.e.l.inModule(f.Pkg()) {
			b.addBit(EffUnknown, call.Pos(), "call to "+f.Name()+" with no analyzable body")
		}
		return false // stdlib without intrinsic entry: assumed effect-free
	}
	if n.onCommit {
		return false // reviewed //rtm:oncommit escape hatch
	}
	b.edgeTo([]*fnode{n}, call.Pos(), recv, call.Args, false, "call to "+n.name)
	return false
}

// privateCacheCall reports whether a (*mem.cache) lookup/insert call
// targets one of the Hierarchy's core-private cache fields (l1[core],
// l2[core]). The EffBoundary intrinsic on those methods models the
// shared L3's LRU/memo state; the same methods on a core's own L1/L2
// mutate single-owner private state, which is legal mid-epoch. Field
// identity is a precise static classifier here because the private
// caches are only ever reached through the l1/l2 fields.
func (b *effBuild) privateCacheCall(f *types.Func, recv ast.Expr) bool {
	if recv == nil || !pkgPathIs(f.Pkg(), "internal/mem") {
		return false
	}
	if f.Name() != "lookup" && f.Name() != "insert" {
		return false
	}
	e := recv
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "l1" && sel.Sel.Name != "l2") {
		return false
	}
	s := b.u.Info.Selections[sel]
	if s == nil {
		return false
	}
	named := namedOf(s.Recv())
	return named != nil && named.Obj().Name() == "Hierarchy"
}

// ifaceEdge widens an interface-method call over the implementors
// visible in the loaded packages. Stdlib interfaces are assumed
// effect-free (module code never hands simulated state to them).
func (b *effBuild) ifaceEdge(f *types.Func, recv ast.Expr, args []ast.Expr, bind bool, pos token.Pos) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	if !b.e.l.inModule(f.Pkg()) {
		return
	}
	impls := b.e.implementors(named, f.Name())
	if len(impls) == 0 {
		b.addBit(EffUnknown, pos, "interface call "+named.Obj().Name()+"."+f.Name()+" with no known implementor")
		return
	}
	b.edgeTo(impls, pos, recv, args, bind, "dynamic call to "+named.Obj().Name()+"."+f.Name())
}
