package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FrameLease enforces the pooled-buffer ownership contract: every value
// acquired from wire.Pool.Get / wire.Pool.GetTrain / wire.NewPooledFrame /
// Frame.Clone must, on every control-flow path, either be released
// (Release/Recycle), transferred to another component (passed to any
// call — wire.One, Transmit, Push, Enqueue, Receive, ring pushes, ledger
// drops, … — or handed over as a wire.Run by Train.Run), or escape the
// function (returned, stored into a field/slice/map/channel, captured by
// a closure). The analysis is a path-sensitive abstract interpretation of
// each function body; it reports
//
//   - leaks: an owned frame still held at a return (the PR 5 silent-leak
//     class — cold error paths that forget Release),
//   - double releases: Release on a path where the frame is already
//     definitely released,
//   - discarded acquisitions and owned frames overwritten by reassignment.
//
// The check is intra-procedural and modular: passing a frame to any callee
// transfers the obligation to that callee's own framelease check. Frames
// received as parameters are not tracked (their lease belongs to the
// caller until transferred).
var FrameLease = &Analyzer{
	Name: "framelease",
	Doc: "report pooled wire.Frame/wire.Train values that leak, are " +
		"double-released, or are overwritten while owned on some control-flow path",
	Run: runFrameLease,
}

// mark is the per-variable ownership state inside one abstract path.
type mark uint8

const (
	markOwned    mark = iota // acquired, not yet consumed on this path
	markReleased             // definitely released on this path
	markEscaped              // transferred/aliased/unknown — no further obligations
)

// absState is one abstract execution path: ownership marks plus the set of
// variables with a deferred release pending.
type absState struct {
	vars     map[types.Object]mark
	deferred map[types.Object]bool
}

func newState() *absState {
	return &absState{vars: map[types.Object]mark{}, deferred: map[types.Object]bool{}}
}

func (s *absState) clone() *absState {
	n := newState()
	for k, v := range s.vars {
		n.vars[k] = v
	}
	for k := range s.deferred {
		n.deferred[k] = true
	}
	return n
}

// key canonicalises the state for deduplication; objects are ordered by
// declaration position.
func (s *absState) key() string {
	objs := make([]types.Object, 0, len(s.vars))
	for o := range s.vars {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	var b strings.Builder
	for _, o := range objs {
		fmt.Fprintf(&b, "%d=%d;", o.Pos(), s.vars[o])
		if s.deferred[o] {
			b.WriteByte('d')
		}
	}
	return b.String()
}

// maxStates bounds the abstract path set; beyond it the paths merge into
// one conservative state (disagreeing marks become escaped, silencing
// reports rather than inventing them).
const maxStates = 64

func dedupe(states []*absState) []*absState {
	if len(states) <= 1 {
		return states
	}
	seen := map[string]bool{}
	out := states[:0]
	for _, s := range states {
		k := s.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	if len(out) <= maxStates {
		return out
	}
	merged := out[0].clone()
	for _, s := range out[1:] {
		//lint:ignore detorder lattice join: the merged mark per key is independent of visit order
		for o, m := range s.vars {
			if have, ok := merged.vars[o]; !ok || have != m {
				merged.vars[o] = markEscaped
			}
		}
		//lint:ignore detorder lattice join: keys absent from s demote to escaped regardless of order
		for o := range merged.vars {
			if _, ok := s.vars[o]; !ok {
				merged.vars[o] = markEscaped
			}
		}
		for o := range s.deferred {
			merged.deferred[o] = true
		}
	}
	return []*absState{merged}
}

// fnInterp analyses one function body.
type fnInterp struct {
	pass     *Pass
	info     *types.Info
	acquired map[types.Object]token.Pos // where each tracked var was acquired
	reported map[string]bool            // dedupe across paths
	pending  []Diagnostic               // flushed unless the function bails
	bailed   bool                       // goto/labelled branch: give up silently

	breakStack    [][]*absState
	continueStack [][]*absState
}

func runFrameLease(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			it := &fnInterp{
				pass:     pass,
				info:     pass.TypesInfo,
				acquired: map[types.Object]token.Pos{},
				reported: map[string]bool{},
			}
			out := it.stmts(body.List, []*absState{newState()})
			it.exitCheck(out, body.Rbrace)
			if !it.bailed {
				*pass.diags = append(*pass.diags, it.pending...)
			}
			return true // nested FuncLits are analysed independently too
		})
	}
	return nil
}

func (it *fnInterp) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	k := fmt.Sprintf("%d:%s", pos, msg)
	if it.reported[k] {
		return
	}
	it.reported[k] = true
	it.pending = append(it.pending, Diagnostic{Pos: pos, Message: msg, Analyzer: it.pass.Analyzer.Name})
}

// line formats the acquisition site for messages.
func (it *fnInterp) line(o types.Object) string {
	return it.pass.Fset.Position(it.acquired[o]).String()
}

// exitCheck applies pending deferred releases and reports owned frames at
// a function exit.
func (it *fnInterp) exitCheck(states []*absState, at token.Pos) {
	for _, st := range states {
		//lint:ignore detorder per-key mark flip: iteration order cannot affect the result
		for o := range st.deferred {
			if st.vars[o] == markOwned {
				st.vars[o] = markReleased
			}
		}
		objs := make([]types.Object, 0, len(st.vars))
		for o := range st.vars {
			objs = append(objs, o)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
		for _, o := range objs {
			if st.vars[o] == markOwned {
				it.reportf(at, "pooled %s acquired at %s is not released or transferred on this path", o.Name(), it.line(o))
			}
		}
	}
}

// acquireKind reports whether the call acquires a pooled value.
func (it *fnInterp) isAcquire(call *ast.CallExpr) bool {
	fn := calleeFunc(it.info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		switch fn.Name() {
		case "Get", "GetTrain":
			return isNamedFrom(recv.Type(), "wire", "Pool")
		case "Clone":
			return isNamedFrom(recv.Type(), "wire", "Frame")
		}
		return false
	}
	return fn.Name() == "NewPooledFrame" && fn.Pkg() != nil && pkgPathMatches(fn.Pkg().Path(), "wire")
}

// releaseTarget returns the tracked object a call releases (f.Release() /
// t.Recycle()), or nil.
func (it *fnInterp) releaseTarget(call *ast.CallExpr, st *absState) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Release" && sel.Sel.Name != "Recycle") {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	o := it.info.Uses[id]
	if o == nil {
		return nil
	}
	if _, tracked := st.vars[o]; tracked {
		return o
	}
	return nil
}

// runTarget returns the tracked train a call hands over as a wire.Run
// (t.Run()), or nil.
func (it *fnInterp) runTarget(call *ast.CallExpr, st *absState) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Run" {
		return nil
	}
	fn := calleeFunc(it.info, call)
	if fn == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !isNamedFrom(recv.Type(), "wire", "Train") {
		return nil
	}
	return it.trackedIdent(sel.X, st)
}

// trackedIdent resolves e to a tracked object in st, or nil.
func (it *fnInterp) trackedIdent(e ast.Expr, st *absState) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	o := it.info.Uses[id]
	if o == nil {
		return nil
	}
	if _, tracked := st.vars[o]; tracked {
		return o
	}
	return nil
}

// evalExpr walks an expression updating st: Release/Recycle calls consume,
// any other use of a tracked variable as a call argument, composite-literal
// element, address-of operand, channel payload, or closure capture marks it
// escaped (the obligation transfers).
func (it *fnInterp) evalExpr(e ast.Expr, st *absState) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		if o := it.releaseTarget(x, st); o != nil {
			for _, arg := range x.Args {
				it.evalExpr(arg, st)
			}
			if st.vars[o] == markReleased {
				it.reportf(x.Pos(), "double release of pooled %s acquired at %s", o.Name(), it.line(o))
			}
			if st.vars[o] != markEscaped {
				st.vars[o] = markReleased
			}
			return
		}
		// t.Run() hands a train over as a wire.Run value: the obligation
		// moves with the value, exactly as passing t to a call would.
		if o := it.runTarget(x, st); o != nil {
			st.vars[o] = markEscaped
			return
		}
		// A nested acquisition flows straight into the enclosing expression
		// (return f.Clone(), enqueue(f.Clone()), …) — an immediate transfer,
		// so nothing further to track. The truly-discarded case (a bare
		// statement-level acquire) is reported by the ExprStmt handler.
		if it.isAcquire(x) {
			it.evalExpr(receiverOrFun(x), st)
			for _, arg := range x.Args {
				it.evalExpr(arg, st)
			}
			return
		}
		it.evalExpr(x.Fun, st)
		for _, arg := range x.Args {
			if o := it.trackedIdent(arg, st); o != nil {
				st.vars[o] = markEscaped
				continue
			}
			it.evalExpr(arg, st)
		}
	case *ast.FuncLit:
		// Captured frames may be consumed at any later time.
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := it.info.Uses[id]; o != nil {
					if _, tracked := st.vars[o]; tracked {
						st.vars[o] = markEscaped
					}
				}
			}
			return true
		})
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if o := it.trackedIdent(x.X, st); o != nil {
				st.vars[o] = markEscaped
				return
			}
		}
		it.evalExpr(x.X, st)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if o := it.trackedIdent(elt, st); o != nil {
				st.vars[o] = markEscaped
				continue
			}
			it.evalExpr(elt, st)
		}
	case *ast.SelectorExpr:
		it.evalExpr(x.X, st)
	case *ast.ParenExpr:
		it.evalExpr(x.X, st)
	case *ast.StarExpr:
		it.evalExpr(x.X, st)
	case *ast.BinaryExpr:
		it.evalExpr(x.X, st)
		it.evalExpr(x.Y, st)
	case *ast.IndexExpr:
		it.evalExpr(x.X, st)
		it.evalExpr(x.Index, st)
	case *ast.SliceExpr:
		it.evalExpr(x.X, st)
		it.evalExpr(x.Low, st)
		it.evalExpr(x.High, st)
		it.evalExpr(x.Max, st)
	case *ast.TypeAssertExpr:
		it.evalExpr(x.X, st)
	case *ast.KeyValueExpr:
		it.evalExpr(x.Key, st)
		it.evalExpr(x.Value, st)
	}
}

// receiverOrFun returns the callee expression for recursive evaluation.
func receiverOrFun(call *ast.CallExpr) ast.Expr { return call.Fun }

// assign handles one lhs ← rhs pair.
func (it *fnInterp) assign(lhs, rhs ast.Expr, st *absState) {
	call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
	if isCall && it.isAcquire(call) {
		it.evalExpr(call.Fun, st)
		for _, arg := range call.Args {
			it.evalExpr(arg, st)
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			o := it.info.Defs[id]
			if o == nil {
				o = it.info.Uses[id]
			}
			if o != nil {
				if m, tracked := st.vars[o]; tracked && m == markOwned {
					it.reportf(rhs.Pos(), "pooled %s reacquired here while the value from %s is still owned", o.Name(), it.line(o))
				}
				st.vars[o] = markOwned
				it.acquired[o] = call.Pos()
				return
			}
		}
		// Acquired straight into a field/index/blank: stored or discarded.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			it.reportf(rhs.Pos(), "pooled value acquired here is discarded without Release or transfer")
		} else {
			it.evalExpr(lhs, st)
		}
		return
	}

	// Aliasing or storing a tracked value transfers its obligation.
	if o := it.trackedIdent(rhs, st); o != nil {
		st.vars[o] = markEscaped
	} else {
		it.evalExpr(rhs, st)
	}

	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		o := it.info.Uses[id]
		if o == nil {
			o = it.info.Defs[id]
		}
		if o != nil {
			if m, tracked := st.vars[o]; tracked && m == markOwned {
				it.reportf(lhs.Pos(), "pooled %s acquired at %s is overwritten while still owned", o.Name(), it.line(o))
			}
			delete(st.vars, o)
			delete(st.deferred, o)
		}
		return
	}
	it.evalExpr(lhs, st)
}

// isTerminal reports whether a call ends the path abnormally (panic,
// os.Exit, runtime.Goexit, t.Fatal…): owned frames are unreachable for the
// pool either way, so no leak is reported past it.
func (it *fnInterp) isTerminal(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	if fn := calleeFunc(it.info, call); fn != nil && fn.Pkg() != nil {
		full := fn.Pkg().Path() + "." + fn.Name()
		switch full {
		case "os.Exit", "runtime.Goexit":
			return true
		}
	}
	return false
}

// stmts threads the state set through a statement list.
func (it *fnInterp) stmts(list []ast.Stmt, in []*absState) []*absState {
	states := in
	for _, s := range list {
		if it.bailed || len(states) == 0 {
			return nil
		}
		states = it.stmt(s, states)
	}
	return dedupe(states)
}

func (it *fnInterp) stmt(s ast.Stmt, in []*absState) []*absState {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
			if it.isTerminal(call) {
				return nil
			}
			if it.isAcquire(call) {
				it.reportf(call.Pos(), "pooled value acquired here is discarded without Release or transfer")
			}
		}
		for _, st := range in {
			it.evalExpr(x.X, st)
		}
		return in

	case *ast.AssignStmt:
		for _, st := range in {
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					it.assign(x.Lhs[i], x.Rhs[i], st)
				}
			} else {
				// Multi-value assignment: acquires never appear here (all
				// acquire calls are single-result); treat as generic uses.
				for _, r := range x.Rhs {
					it.evalExpr(r, st)
				}
				for _, l := range x.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok {
						o := it.info.Uses[id]
						if o == nil {
							o = it.info.Defs[id]
						}
						if o != nil {
							if m, tracked := st.vars[o]; tracked && m == markOwned {
								it.reportf(l.Pos(), "pooled %s acquired at %s is overwritten while still owned", o.Name(), it.line(o))
							}
							delete(st.vars, o)
						}
						continue
					}
					it.evalExpr(l, st)
				}
			}
		}
		return in

	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for _, st := range in {
					for i := range vs.Names {
						it.assign(vs.Names[i], vs.Values[i], st)
					}
				}
			}
		}
		return in

	case *ast.ReturnStmt:
		for _, st := range in {
			for _, r := range x.Results {
				if o := it.trackedIdent(r, st); o != nil {
					st.vars[o] = markEscaped
					continue
				}
				it.evalExpr(r, st)
			}
		}
		it.exitCheck(in, x.Pos())
		return nil

	case *ast.DeferStmt:
		for _, st := range in {
			if o := it.releaseTarget(x.Call, st); o != nil {
				st.deferred[o] = true
				continue
			}
			it.evalExpr(x.Call.Fun, st)
			for _, arg := range x.Call.Args {
				if o := it.trackedIdent(arg, st); o != nil {
					st.vars[o] = markEscaped
					continue
				}
				it.evalExpr(arg, st)
			}
		}
		return in

	case *ast.GoStmt:
		for _, st := range in {
			it.evalExpr(x.Call.Fun, st)
			for _, arg := range x.Call.Args {
				if o := it.trackedIdent(arg, st); o != nil {
					st.vars[o] = markEscaped
					continue
				}
				it.evalExpr(arg, st)
			}
		}
		return in

	case *ast.SendStmt:
		for _, st := range in {
			it.evalExpr(x.Chan, st)
			if o := it.trackedIdent(x.Value, st); o != nil {
				st.vars[o] = markEscaped
				continue
			}
			it.evalExpr(x.Value, st)
		}
		return in

	case *ast.IncDecStmt:
		for _, st := range in {
			it.evalExpr(x.X, st)
		}
		return in

	case *ast.BlockStmt:
		return it.stmts(x.List, in)

	case *ast.IfStmt:
		if x.Init != nil {
			in = it.stmt(x.Init, in)
		}
		for _, st := range in {
			it.evalExpr(x.Cond, st)
		}
		var thenIn, elseIn []*absState
		for _, st := range in {
			thenIn = append(thenIn, st.clone())
			elseIn = append(elseIn, st)
		}
		out := it.stmts(x.Body.List, thenIn)
		if x.Else != nil {
			out = append(out, it.stmt(x.Else, elseIn)...)
		} else {
			out = append(out, elseIn...)
		}
		return dedupe(out)

	case *ast.SwitchStmt:
		if x.Init != nil {
			in = it.stmt(x.Init, in)
		}
		for _, st := range in {
			it.evalExpr(x.Tag, st)
		}
		return it.caseClauses(x.Body, in, func(cc *ast.CaseClause, st *absState) {
			for _, e := range cc.List {
				it.evalExpr(e, st)
			}
		})

	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			in = it.stmt(x.Init, in)
		}
		for _, st := range in {
			if as, ok := x.Assign.(*ast.AssignStmt); ok {
				for _, r := range as.Rhs {
					it.evalExpr(r, st)
				}
			} else if es, ok := x.Assign.(*ast.ExprStmt); ok {
				it.evalExpr(es.X, st)
			}
		}
		return it.caseClauses(x.Body, in, nil)

	case *ast.SelectStmt:
		it.pushBreak()
		var out []*absState
		hasDefault := false
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
			}
			branch := cloneAll(in)
			if cc.Comm != nil {
				branch = it.stmt(cc.Comm, branch)
			}
			out = append(out, it.stmts(cc.Body, branch)...)
		}
		_ = hasDefault // a select with no ready case blocks; all exits covered above
		out = append(out, it.popBreak()...)
		return dedupe(out)

	case *ast.ForStmt:
		if x.Init != nil {
			in = it.stmt(x.Init, in)
		}
		return it.loop(in, func(states []*absState) []*absState {
			for _, st := range states {
				if x.Cond != nil {
					it.evalExpr(x.Cond, st)
				}
			}
			states = it.stmts(x.Body.List, cloneAll(states))
			states = append(states, it.popContinueKeep()...)
			if x.Post != nil {
				states = it.stmt(x.Post, states)
			}
			return states
		}, x.Cond == nil)

	case *ast.RangeStmt:
		for _, st := range in {
			it.evalExpr(x.X, st)
		}
		return it.loop(in, func(states []*absState) []*absState {
			body := cloneAll(states)
			for _, st := range body {
				// Loop variables shadow/overwrite each iteration.
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e == nil {
						continue
					}
					if id, ok := e.(*ast.Ident); ok {
						o := it.info.Defs[id]
						if o == nil {
							o = it.info.Uses[id]
						}
						if o != nil {
							delete(st.vars, o)
						}
					}
				}
			}
			body = it.stmts(x.Body.List, body)
			body = append(body, it.popContinueKeep()...)
			return body
		}, false)

	case *ast.BranchStmt:
		if x.Label != nil || x.Tok == token.GOTO {
			it.bailed = true
			return nil
		}
		switch x.Tok {
		case token.BREAK:
			it.addBreak(in)
			return nil
		case token.CONTINUE:
			it.addContinue(in)
			return nil
		case token.FALLTHROUGH:
			// Approximated: treated as the end of the case body. The next
			// clause is analysed from the switch entry states as well, so
			// no consume is missed, only correlated precision.
			return in
		}
		return in

	case *ast.LabeledStmt:
		// Labels exist to be branch targets; the targeted branches bail.
		return it.stmt(x.Stmt, in)

	case *ast.EmptyStmt:
		return in
	}
	return in
}

// caseClauses runs each case body from a copy of the entry states (plus a
// no-match fall-through when there is no default clause).
func (it *fnInterp) caseClauses(body *ast.BlockStmt, in []*absState, evalCase func(*ast.CaseClause, *absState)) []*absState {
	it.pushBreak()
	var out []*absState
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		branch := cloneAll(in)
		if evalCase != nil {
			for _, st := range branch {
				evalCase(cc, st)
			}
		}
		out = append(out, it.stmts(cc.Body, branch)...)
	}
	if !hasDefault {
		out = append(out, in...)
	}
	out = append(out, it.popBreak()...)
	return dedupe(out)
}

// loop iterates body to a fixpoint over the abstract states. always marks
// `for {}` loops, whose only normal exits are breaks.
func (it *fnInterp) loop(in []*absState, body func([]*absState) []*absState, always bool) []*absState {
	it.pushBreak()
	it.pushContinue()
	seen := map[string]bool{}
	frontier := cloneAll(in)
	var exits []*absState
	if !always {
		exits = append(exits, cloneAll(in)...) // zero iterations
	}
	for iter := 0; iter < 4 && len(frontier) > 0; iter++ {
		var next []*absState
		for _, st := range frontier {
			if k := st.key(); !seen[k] {
				seen[k] = true
				next = append(next, st)
			}
		}
		if len(next) == 0 {
			break
		}
		after := body(next)
		if !always {
			exits = append(exits, cloneAll(after)...)
		}
		frontier = after
	}
	it.popContinue()
	exits = append(exits, it.popBreak()...)
	return dedupe(exits)
}

func (it *fnInterp) pushBreak()    { it.breakStack = append(it.breakStack, nil) }
func (it *fnInterp) pushContinue() { it.continueStack = append(it.continueStack, nil) }

func (it *fnInterp) addBreak(states []*absState) {
	if n := len(it.breakStack); n > 0 {
		it.breakStack[n-1] = append(it.breakStack[n-1], cloneAll(states)...)
	}
}

func (it *fnInterp) addContinue(states []*absState) {
	if n := len(it.continueStack); n > 0 {
		it.continueStack[n-1] = append(it.continueStack[n-1], cloneAll(states)...)
	}
}

func (it *fnInterp) popBreak() []*absState {
	n := len(it.breakStack)
	out := it.breakStack[n-1]
	it.breakStack = it.breakStack[:n-1]
	return out
}

func (it *fnInterp) popContinue() {
	it.continueStack = it.continueStack[:len(it.continueStack)-1]
}

// popContinueKeep drains accumulated continue states back into the loop
// body flow without popping the collector (the loop driver pops it).
func (it *fnInterp) popContinueKeep() []*absState {
	n := len(it.continueStack)
	out := it.continueStack[n-1]
	it.continueStack[n-1] = nil
	return out
}

func cloneAll(states []*absState) []*absState {
	out := make([]*absState, len(states))
	for i, s := range states {
		out[i] = s.clone()
	}
	return out
}
