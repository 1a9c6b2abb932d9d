package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimTime enforces virtual-time hygiene outside internal/sim, where the
// picosecond representation of sim.Time is an implementation detail:
//
//   - raw binary arithmetic (+ - * / %) on sim.Time operands is banned —
//     instants combine with durations through Time.Add / Time.Sub, which
//     keep instants and spans distinct (t+t, t*2 and untyped-constant
//     mixing like t+800 are all meaningless or unit-unsafe);
//   - time arguments of every call that queues an event — Engine.Schedule,
//     Engine.Arm and Engine.ScheduleEvery — built from a
//     subtraction or a negated Add offset are flagged: a time that can
//     precede the engine's now is the statically visible half of the
//     causality-violation panic.
var SimTime = &Analyzer{
	Name: "simtime",
	Doc: "report raw integer arithmetic on sim.Time and Schedule time " +
		"arguments that can precede the engine's now, outside internal/sim",
	Run: runSimTime,
}

func runSimTime(pass *Pass) error {
	// The sim package itself implements Time and owns its representation.
	if pkgPathMatches(pass.Pkg.Path(), "sim") || pkgPathMatches(pass.Pkg.Path(), "internal/sim") {
		return nil
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				switch x.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
				default:
					return true
				}
				if isSimTimeExpr(info, x.X) || isSimTimeExpr(info, x.Y) {
					pass.Reportf(x.Pos(), "raw %s arithmetic on sim.Time; use Time.Add(sim.Duration) / Time.Sub to keep instants and durations distinct", x.Op)
				}

			case *ast.CallExpr:
				fn := calleeFunc(info, x)
				if fn == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil {
					return true
				}
				recv := sig.Recv().Type()
				switch fn.Name() {
				case "Schedule", "Arm", "ScheduleEvery":
					if !isNamedFrom(recv, "sim", "Engine") {
						return true
					}
				default:
					return true
				}
				params := sig.Params()
				for i, arg := range x.Args {
					if i >= params.Len() {
						break
					}
					if !isNamedFrom(params.At(i).Type(), "sim", "Time") {
						continue
					}
					if reason := backwardTimeExpr(info, arg); reason != "" {
						pass.Reportf(arg.Pos(), "%s time argument %s: it can precede the engine's now and panic at runtime; clamp or restructure (lint:ignore simtime with the invariant if provably monotone)", fn.Name(), reason)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isSimTimeExpr reports whether e's static type is sim.Time.
func isSimTimeExpr(info *types.Info, e ast.Expr) bool {
	t, ok := info.Types[e]
	if !ok {
		return false
	}
	// A conversion like sim.Time(x) is an explicit, visible cast; only
	// flag operands that are already Time-typed values or constants the
	// checker implicitly converted.
	return isNamedFrom(t.Type, "sim", "Time")
}

// backwardTimeExpr describes why a time expression may run backward, or
// returns "" when it cannot tell.
func backwardTimeExpr(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		if x.Op == token.SUB {
			return "is a subtraction"
		}
	case *ast.CallExpr:
		// Unwrap conversions like sim.Time(expr) to inspect the payload.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return backwardTimeExpr(info, x.Args[0])
		}
		sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		switch sel.Sel.Name {
		case "Sub":
			return "is built from Time.Sub"
		case "Add":
			if len(x.Args) != 1 {
				return ""
			}
			arg := ast.Unparen(x.Args[0])
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.SUB {
				return "adds a negated duration"
			}
			if t, ok := info.Types[x.Args[0]]; ok && t.Value != nil {
				if v, exact := constInt64(t.Value); exact && v < 0 {
					return "adds a negative constant duration"
				}
			}
		}
	}
	return ""
}
