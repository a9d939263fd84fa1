package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Interprocedural effect-summary engine. Each function (declaration or
// closure literal) gets a Summary: a bitmask of context-free effects
// (I/O, channel ops, wall-clock reads, writes to package state, ...)
// plus context-sensitive write sets — writes through the receiver,
// through each parameter, and to each captured variable — that are
// re-classified at every call site during fix-point propagation. The
// engine is built on go/ast and go/types only, loads module-internal
// callee packages on demand through the Loader, and handles the three
// shapes where a naive analysis diverges or under-reports: method
// values (conservative propagation at the bind site), interface
// dispatch (widening over implementors visible in the loaded
// packages), and recursion (monotone bit-union lattice, so the
// worklist terminates).
//
// Deliberate approximations, chosen to keep the txnsafe/shardfreeze
// passes dogfoodable:
//
//   - a plain scalar rebinding of a captured variable (x = f(...)) is
//     the sanctioned closure-result idiom and is not recorded; captured
//     aggregate writes (x.f = v, x[i] = v) and non-idempotent updates
//     (x++, x = append(x, ...)) are;
//   - stdlib calls without an intrinsic entry are assumed effect-free
//     (the tables in intrinsics.go cover the sources that matter);
//   - a closure passed to (*sim.Proc).DeferFn or Exclusive runs at the
//     epoch boundary under the serial engine, so its effects do not
//     fold into the mid-epoch caller;
//   - a //rtm:oncommit directive on a function marks it as reviewed
//     commit-gated (effects applied only if the transaction commits)
//     and cuts propagation through it.
type Effect uint32

const (
	// EffWriteGlobal: writes package-level state.
	EffWriteGlobal Effect = 1 << iota
	// EffWriteCaptured: writes a variable captured from an enclosing
	// function (derived from Summary.Captured during propagation).
	EffWriteCaptured
	// EffWriteAlias: writes host memory through a pointer of external
	// provenance (assigned from a call or non-local expression).
	EffWriteAlias
	// EffNonIdem: some recorded write is non-idempotent (++, op=,
	// self-append), so re-execution compounds it.
	EffNonIdem
	// EffIO: performs input/output.
	EffIO
	// EffChan: channel operation or host synchronization primitive.
	EffChan
	// EffGo: spawns a goroutine.
	EffGo
	// EffTime: reads the wall clock.
	EffTime
	// EffRand: draws from a global or OS randomness source.
	EffRand
	// EffEnv: reads the process environment or host identity.
	EffEnv
	// EffBoundary: calls an API that is only legal at the shard epoch
	// boundary (serial engine), never mid-epoch.
	EffBoundary
	// EffUnknown: reaches a call the engine cannot resolve.
	EffUnknown
)

// effectLabels maps each bit to diagnostic prose, in report order.
var effectLabels = []struct {
	Bit   Effect
	Label string
}{
	{EffWriteGlobal, "writes package-level state"},
	{EffWriteAlias, "writes host memory through an externally derived pointer"},
	{EffNonIdem, "performs a non-idempotent update"},
	{EffIO, "performs I/O"},
	{EffChan, "uses a channel or host synchronization primitive"},
	{EffGo, "spawns a goroutine"},
	{EffTime, "reads the wall clock"},
	{EffRand, "draws from a global randomness source"},
	{EffEnv, "reads the process environment"},
	{EffBoundary, "calls an epoch-boundary-only API"},
	{EffUnknown, "reaches a call rtmvet cannot resolve"},
}

// A Cause is one link in the chain explaining how an effect reaches a
// function: the outermost link is a call site in the root function, the
// innermost is the primitive operation.
type Cause struct {
	Pos  token.Pos
	Desc string
	Next *Cause
}

// causeText renders a cause chain as "desc at file:line -> ...".
func causeText(fset *token.FileSet, c *Cause) string {
	var parts []string
	for ; c != nil; c = c.Next {
		p := fset.Position(c.Pos)
		parts = append(parts, fmt.Sprintf("%s at %s:%d", c.Desc, filepath.Base(p.Filename), p.Line))
	}
	return strings.Join(parts, " -> ")
}

// targetWrite records that a function writes through one target (its
// receiver, one parameter, or one captured variable).
type targetWrite struct {
	nonIdem bool
	cause   *Cause
}

// Summary is the effect summary of one function.
type Summary struct {
	Bits Effect

	causes   map[Effect]*Cause
	recv     *targetWrite
	params   map[int]*targetWrite
	captured map[*types.Var]*targetWrite
}

func newSummary() *Summary {
	return &Summary{
		causes:   make(map[Effect]*Cause),
		params:   make(map[int]*targetWrite),
		captured: make(map[*types.Var]*targetWrite),
	}
}

// Cause returns the chain explaining bit, or nil.
func (s *Summary) Cause(bit Effect) *Cause { return s.causes[bit] }

// CapturedWrites returns the captured variables the function writes, in
// deterministic order, with their causes.
func (s *Summary) CapturedWrites() []CapturedWrite {
	out := make([]CapturedWrite, 0, len(s.captured))
	for v, w := range s.captured {
		out = append(out, CapturedWrite{Var: v, NonIdem: w.nonIdem, Cause: w.cause})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Var.Name() != out[j].Var.Name() {
			return out[i].Var.Name() < out[j].Var.Name()
		}
		return out[i].Var.Pos() < out[j].Var.Pos()
	})
	return out
}

// CapturedWrite is one captured-variable mutation in a summary.
type CapturedWrite struct {
	Var     *types.Var
	NonIdem bool
	Cause   *Cause
}

func (s *Summary) addBit(bit Effect, c *Cause, nonIdem bool) bool {
	ch := false
	if s.Bits&bit == 0 {
		s.Bits |= bit
		s.causes[bit] = c
		ch = true
	}
	if nonIdem && s.Bits&EffNonIdem == 0 {
		s.Bits |= EffNonIdem
		s.causes[EffNonIdem] = c
		ch = true
	}
	return ch
}

func mergeTarget(slot **targetWrite, nonIdem bool, c *Cause) bool {
	if *slot == nil {
		*slot = &targetWrite{nonIdem: nonIdem, cause: c}
		return true
	}
	if nonIdem && !(*slot).nonIdem {
		(*slot).nonIdem = true
		return true
	}
	return false
}

func (s *Summary) addRecv(nonIdem bool, c *Cause) bool { return mergeTarget(&s.recv, nonIdem, c) }

func (s *Summary) addParam(i int, nonIdem bool, c *Cause) bool {
	w := s.params[i]
	ch := mergeTarget(&w, nonIdem, c)
	s.params[i] = w
	return ch
}

func (s *Summary) addCaptured(v *types.Var, nonIdem bool, c *Cause) bool {
	w := s.captured[v]
	ch := mergeTarget(&w, nonIdem, c)
	s.captured[v] = w
	if s.Bits&EffWriteCaptured == 0 {
		s.Bits |= EffWriteCaptured
		s.causes[EffWriteCaptured] = c
		ch = true
	}
	if nonIdem && s.Bits&EffNonIdem == 0 {
		s.Bits |= EffNonIdem
		s.causes[EffNonIdem] = c
		ch = true
	}
	return ch
}

// unknownSummary is returned for functions the engine cannot model.
func unknownSummary(pos token.Pos, desc string) *Summary {
	s := newSummary()
	s.addBit(EffUnknown, &Cause{Pos: pos, Desc: desc}, false)
	return s
}

// fnode is one call-graph node: a declared function or a closure
// literal, with its direct effects and outgoing edges.
type fnode struct {
	key  string // "" for literals
	name string
	u    *Unit
	body *ast.BlockStmt
	doc  *ast.CommentGroup
	sig  *types.Signature
	lo   token.Pos
	hi   token.Pos

	recvObj *types.Var
	params  []*types.Var

	onCommit bool
	built    bool
	ext      map[*types.Var]bool // locals of external provenance
	edges    []*effEdge
	sum      *Summary
	callers  map[*fnode]bool
}

type rootClass int

const (
	rcLocal rootClass = iota
	rcParam
	rcRecv
	rcCaptured
	rcGlobal
)

// classOf classifies a variable relative to the node's scope.
func (n *fnode) classOf(v *types.Var) (rootClass, int) {
	if n.recvObj != nil && v == n.recvObj {
		return rcRecv, -1
	}
	for i, p := range n.params {
		if v == p {
			return rcParam, i
		}
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return rcGlobal, -1
	}
	if v.Pos() >= n.lo && v.Pos() <= n.hi {
		return rcLocal, -1
	}
	return rcCaptured, -1
}

// effEdge is one resolved call (or conservative may-call) site.
type effEdge struct {
	pos     token.Pos
	desc    string
	targets []*fnode
	recv    ast.Expr   // receiver expression at the call site, or nil
	args    []ast.Expr // argument expressions, or nil
	bind    bool       // method value / closure argument: arguments unknown
}

// effEngine owns the call graph and summaries for one Loader. It is
// shared by every pass so summaries are computed once per process.
type effEngine struct {
	l       *Loader
	nodes   map[string]*fnode
	lits    map[*ast.FuncLit]*fnode
	indexed map[*Unit]bool
	binds   map[*Unit]map[*types.Var]*ast.FuncLit
	impls   map[string][]*fnode
	loadErr map[string]bool
}

// engine returns the loader-wide effect engine, indexing u into it.
func (u *Unit) engine() *effEngine {
	l := u.Loader
	if l.eff == nil {
		l.eff = &effEngine{
			l:       l,
			nodes:   make(map[string]*fnode),
			lits:    make(map[*ast.FuncLit]*fnode),
			indexed: make(map[*Unit]bool),
			binds:   make(map[*Unit]map[*types.Var]*ast.FuncLit),
			impls:   make(map[string][]*fnode),
			loadErr: make(map[string]bool),
		}
	}
	l.eff.indexUnit(u)
	return l.eff
}

// declKey names a declared function stably across type-check universes
// of the same package path.
func declKey(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	return pkg + ":" + name
}

func (e *effEngine) indexUnit(u *Unit) {
	if e.indexed[u] {
		return
	}
	e.indexed[u] = true
	for _, ff := range funcDecls(u) {
		fd := ff.decl
		obj, ok := u.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok {
			continue
		}
		key := declKey(obj)
		if _, dup := e.nodes[key]; dup {
			continue
		}
		n := &fnode{
			key:      key,
			name:     strings.TrimPrefix(key, obj.Pkg().Path()+":"),
			u:        u,
			body:     fd.Body,
			doc:      fd.Doc,
			sig:      sig,
			lo:       fd.Pos(),
			hi:       fd.End(),
			onCommit: hasDirective(fd.Doc, "//rtm:oncommit"),
			callers:  make(map[*fnode]bool),
		}
		if r := sig.Recv(); r != nil {
			n.recvObj = r
		}
		for i := 0; i < sig.Params().Len(); i++ {
			n.params = append(n.params, sig.Params().At(i))
		}
		e.nodes[key] = n
	}
}

// nodeForLit returns (creating if needed) the node for a closure
// literal in u.
func (e *effEngine) nodeForLit(u *Unit, lit *ast.FuncLit) *fnode {
	if n, ok := e.lits[lit]; ok {
		return n
	}
	tv, ok := u.Info.Types[lit]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return nil
	}
	p := u.Fset.Position(lit.Pos())
	n := &fnode{
		name:    fmt.Sprintf("func literal at %s:%d", filepath.Base(p.Filename), p.Line),
		u:       u,
		body:    lit.Body,
		sig:     sig,
		lo:      lit.Pos(),
		hi:      lit.End(),
		callers: make(map[*fnode]bool),
	}
	for i := 0; i < sig.Params().Len(); i++ {
		n.params = append(n.params, sig.Params().At(i))
	}
	e.lits[lit] = n
	return n
}

// nodeForFunc resolves a declared function object to its node, loading
// its defining package on demand when it lives elsewhere in the module.
// Returns nil for stdlib functions (intrinsics cover them) and for
// functions without a loadable body.
func (e *effEngine) nodeForFunc(f *types.Func) *fnode {
	key := declKey(f)
	if n, ok := e.nodes[key]; ok {
		return n
	}
	pkg := f.Pkg()
	if pkg == nil {
		return nil
	}
	path := pkg.Path()
	if path != e.l.ModulePath && !strings.HasPrefix(path, e.l.ModulePath+"/") {
		return nil
	}
	if e.loadErr[path] {
		return nil
	}
	u, err := e.l.UnitFor(path)
	if err != nil {
		e.loadErr[path] = true
		return nil
	}
	e.indexUnit(u)
	return e.nodes[key]
}

// bindingFor resolves a function-typed variable to the unique closure
// literal assigned to it in u, if there is exactly one assignment.
func (e *effEngine) bindingFor(u *Unit, v *types.Var) *ast.FuncLit {
	m, ok := e.binds[u]
	if !ok {
		m = make(map[*types.Var]*ast.FuncLit)
		count := make(map[*types.Var]int)
		record := func(id *ast.Ident, rhs ast.Expr) {
			obj, _ := u.Info.Defs[id].(*types.Var)
			if obj == nil {
				obj, _ = u.Info.Uses[id].(*types.Var)
			}
			if obj == nil {
				return
			}
			count[obj]++
			if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
				m[obj] = lit
			}
		}
		for _, f := range u.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				switch s := x.(type) {
				case *ast.AssignStmt:
					if len(s.Lhs) != len(s.Rhs) {
						return true
					}
					for i, lhs := range s.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							record(id, s.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					if len(s.Names) != len(s.Values) {
						return true
					}
					for i, id := range s.Names {
						record(id, s.Values[i])
					}
				}
				return true
			})
		}
		for obj, c := range count {
			if c != 1 {
				delete(m, obj)
			}
		}
		e.binds[u] = m
	}
	return m[v]
}

// summarize computes (or returns the memoized) summary of root,
// building the reachable subgraph and running the fix-point worklist
// over the newly built nodes.
func (e *effEngine) summarize(root *fnode) *Summary {
	if root == nil {
		return unknownSummary(token.NoPos, "unresolvable function")
	}
	if root.built {
		return root.sum
	}
	var set []*fnode
	todo := []*fnode{root}
	for len(todo) > 0 {
		n := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if n.built {
			continue
		}
		n.built = true
		e.buildDirect(n)
		set = append(set, n)
		for _, ed := range n.edges {
			for _, t := range ed.targets {
				t.callers[n] = true
				if !t.built {
					todo = append(todo, t)
				}
			}
		}
	}
	wl := append([]*fnode(nil), set...)
	inWl := make(map[*fnode]bool, len(wl))
	for _, n := range wl {
		inWl[n] = true
	}
	for len(wl) > 0 {
		n := wl[0]
		wl = wl[1:]
		inWl[n] = false
		if e.evalInto(n) {
			for c := range n.callers {
				if c.built && !inWl[c] {
					inWl[c] = true
					wl = append(wl, c)
				}
			}
		}
	}
	return root.sum
}

// evalInto merges every edge's callee summary into n, reporting change.
func (e *effEngine) evalInto(n *fnode) bool {
	ch := false
	for _, ed := range n.edges {
		for _, t := range ed.targets {
			if t.sum == nil {
				continue
			}
			if e.propagate(n, ed, t.sum) {
				ch = true
			}
		}
	}
	return ch
}

// ctxFreeEffects are the bits that propagate through a call unchanged.
const ctxFreeEffects = EffWriteGlobal | EffWriteAlias | EffNonIdem | EffIO | EffChan |
	EffGo | EffTime | EffRand | EffEnv | EffBoundary | EffUnknown

// propagate folds callee summary s into caller n across edge ed.
func (e *effEngine) propagate(n *fnode, ed *effEdge, s *Summary) bool {
	ch := false
	wrap := func(c *Cause) *Cause { return &Cause{Pos: ed.pos, Desc: ed.desc, Next: c} }
	for _, el := range effectLabels {
		bit := el.Bit
		if bit&ctxFreeEffects == 0 || s.Bits&bit == 0 {
			continue
		}
		if n.sum.addBit(bit, wrap(s.causes[bit]), false) {
			ch = true
		}
	}
	// Captured writes of the callee re-classify against the caller's
	// scope: a variable local to the caller is per-execution state (no
	// effect); anything else stays a shared-state write.
	for v, w := range s.captured {
		if e.writeToVar(n, v, w.nonIdem, wrap(w.cause)) {
			ch = true
		}
	}
	if s.recv != nil {
		switch {
		case ed.recv != nil:
			if e.writeViaExpr(n, ed.recv, s.recv.nonIdem, wrap(s.recv.cause)) {
				ch = true
			}
		case ed.bind:
			if n.sum.addBit(EffWriteAlias, wrap(s.recv.cause), s.recv.nonIdem) {
				ch = true
			}
		}
	}
	if len(s.params) > 0 {
		if ed.bind || ed.args == nil {
			// Arguments unknown (method value, closure handed to a
			// higher-order function): a pointer-writing parameter may
			// alias anything.
			for _, w := range s.params {
				if n.sum.addBit(EffWriteAlias, wrap(w.cause), w.nonIdem) {
					ch = true
				}
			}
		} else {
			variadic := lastParam(ed)
			for i, w := range s.params {
				// Surplus arguments of a variadic call feed the final
				// declared parameter.
				args := ed.args
				lo, hi := i, i+1
				if i == variadic {
					hi = len(args)
				}
				if lo >= len(args) {
					continue
				}
				if hi > len(args) {
					hi = len(args)
				}
				for _, a := range args[lo:hi] {
					if e.writeViaExpr(n, a, w.nonIdem, wrap(w.cause)) {
						ch = true
					}
				}
			}
		}
	}
	return ch
}

// lastParam returns the index of the callee's final declared parameter
// for the edge's first target (variadic clamping), or -1.
func lastParam(ed *effEdge) int {
	if len(ed.targets) == 0 {
		return -1
	}
	t := ed.targets[0]
	if t.sig != nil && t.sig.Variadic() {
		return t.sig.Params().Len() - 1
	}
	return -1
}

// writeViaExpr records that the callee writes through the given caller
// expression (a receiver or argument at a call site).
func (e *effEngine) writeViaExpr(n *fnode, expr ast.Expr, nonIdem bool, c *Cause) bool {
	root := rootIdent(expr)
	if root == nil {
		return n.sum.addBit(EffWriteAlias, c, nonIdem)
	}
	obj := n.u.Info.Uses[root]
	if obj == nil {
		obj = n.u.Info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		// Package selector roots, function results, etc.
		return n.sum.addBit(EffWriteAlias, c, nonIdem)
	}
	return e.writeToVar(n, v, nonIdem, c)
}

// writeToVar records a write reaching variable v, classified against
// caller n's scope.
func (e *effEngine) writeToVar(n *fnode, v *types.Var, nonIdem bool, c *Cause) bool {
	cls, idx := n.classOf(v)
	switch cls {
	case rcGlobal:
		return n.sum.addBit(EffWriteGlobal, c, nonIdem)
	case rcRecv:
		return n.sum.addRecv(nonIdem, c)
	case rcParam:
		return n.sum.addParam(idx, nonIdem, c)
	case rcCaptured:
		return n.sum.addCaptured(v, nonIdem, c)
	default:
		if n.ext[v] {
			return n.sum.addBit(EffWriteAlias, c, nonIdem)
		}
		return false
	}
}

// SummaryForLit returns the effect summary of a closure literal in u.
func (u *Unit) SummaryForLit(lit *ast.FuncLit) *Summary {
	e := u.engine()
	return e.summarize(e.nodeForLit(u, lit))
}

// SummaryForDecl returns the effect summary of a declared function.
func (u *Unit) SummaryForDecl(fd *ast.FuncDecl) *Summary {
	e := u.engine()
	obj, ok := u.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return unknownSummary(fd.Pos(), "untyped declaration")
	}
	return e.summarize(e.nodeForFunc(obj))
}

// SummaryForFunc returns the effect summary of a function object, or
// nil when the function has no analyzable body in the module (stdlib,
// intrinsic-only, or load failure).
func (u *Unit) SummaryForFunc(f *types.Func) *Summary {
	e := u.engine()
	n := e.nodeForFunc(f)
	if n == nil {
		return nil
	}
	return e.summarize(n)
}

// CauseString renders the chain for one effect bit of s for diagnostics.
func (u *Unit) CauseString(s *Summary, bit Effect) string {
	return causeText(u.Fset, s.causes[bit])
}
