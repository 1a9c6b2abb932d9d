package osnt_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"osnt/internal/analysis"
)

// TestEveryExportedNameHasACaller is the regrowth guard for exported API:
// every exported package-level func, var or type under internal/, and
// every exported method of an exported type there, must be referenced by
// non-test code somewhere in the module (cmd, examples and perfbench
// included). A name only tests call is API the program does not use;
// point the test at what the system itself reads, or delete both.
//
// A mention in a method's receiver list is not a use, and a method that
// implements an interface method counts as used (it is reached through
// the interface). Fields and constants are outside the guard.
func TestEveryExportedNameHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	// allowed names the exported API that stays without a non-test
	// caller, keyed as "pkg.Name" or "pkg.Type.Method", with the reason.
	const (
		gauge   = "telemetry gauge, read by the virtual-time sampler the ROADMAP plans"
		decoder = "decoder of a layer the system builds: the encoders' test oracle"
		clock   = "the card's GPS-disciplined timestamping, driven end to end by the integration tests"
		settled = "the only count of losses on a hand-built link with no ledger (ROADMAP, Settled)"
	)
	allowed := map[string]string{
		"analysistest.Run":           "test support: runs an analyzer over a testdata corpus",
		"wire.Link.Utilisation":      gauge,
		"mon.Monitor.RingDepth":      gauge,
		"sim.Ticker.Stop":            "ends a sampler's ticker at the end of a run",
		"shard.Cluster.Windows":      "cost-ledger input: barrier windows per run",
		"wire.Link.Drops":            settled,
		"wire.Link.SetDropSite":      settled,
		"packet.IPv4.VerifyChecksum": decoder,
		"packet.UDP.DecodeFromBytes": decoder,
		"packet.UDP.Payload":         decoder,
		"packet.UDP.VerifyChecksum":  decoder,
		"packet.TCP.DecodeFromBytes": decoder,
		"packet.TCP.Payload":         decoder,
		"packet.TCP.VerifyChecksum":  decoder,
		"timing.FreeClock":           clock,
		"timing.DisciplinedClock":    clock,
	}

	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	seenPkg := make(map[*types.Package]bool)
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, pkg := range pkgs {
		addScope(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		receivers := make(map[*ast.Ident]bool)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			if receivers[id] {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
	}

	type offender struct {
		pos  token.Position
		name string
	}
	var bad []offender
	found := make(map[string]bool)
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.PkgPath, "osnt/internal/")
		if !ok {
			continue
		}
		short := rel[strings.LastIndex(rel, "/")+1:]
		check := func(id *ast.Ident, name string) {
			obj := pkg.Info.Defs[id]
			if obj == nil || used[obj] {
				return
			}
			if fn, ok := obj.(*types.Func); ok && implementsInterface(fn, ifaces) {
				return
			}
			key := short + "." + name
			if _, ok := allowed[key]; ok {
				found[key] = true
				return
			}
			bad = append(bad, offender{pkg.Fset.Position(id.Pos()), key})
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						check(d.Name, d.Name.Name)
						continue
					}
					recv := receiverName(d.Recv.List[0].Type)
					if ast.IsExported(recv) {
						check(d.Name, recv+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR && d.Tok != token.TYPE {
						continue
					}
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								check(s.Name, s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									check(n, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].name < bad[j].name })
	for _, b := range bad {
		t.Errorf("%s: %s has no caller outside tests", b.pos, b.name)
	}
	for key := range allowed {
		if !found[key] {
			t.Errorf("allowlist entry %s matches no uncalled name; drop it", key)
		}
	}
}

// receiverName is the base type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// implementsInterface reports whether fn's receiver type satisfies some
// interface that declares a method of fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}
