package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BudgetPaths are the packages implementing the shared recovery budget
// Retries+Restarts+Failovers+Reconnects ≤ MaxRetries: the analytic
// twin, the TCP client, and the fault model that owns the sentinel.
var BudgetPaths = []string{"internal/sim", "internal/netcast", "internal/fault"}

// recoveryCounters are the Metrics fields charged against the shared
// budget.
var recoveryCounters = map[string]bool{
	"Retries": true, "Restarts": true, "Failovers": true, "Reconnects": true,
}

// BudgetFlow keeps the shared budget true by construction: in non-test
// files, only the body of internal/sim's (*Metrics).charge, which tests
// the budget on every call, may write a recovery counter — by ++/--,
// assignment, a Metrics literal, or taking its address. The float64
// Summary aggregates are out of scope.
var BudgetFlow = &Analyzer{
	Name: "budgetflow",
	Doc: "in internal/sim, internal/netcast, and internal/fault, only (*Metrics).charge may write a recovery counter " +
		"(Retries/Restarts/Failovers/Reconnects), so every recovery meets the shared-budget check",
	Run: runBudgetFlow,
}

func runBudgetFlow(pass *Pass) {
	if !pathMatches(pass.Path, BudgetPaths) {
		return
	}
	report := func(at ast.Node, name string) {
		pass.Reportf(at.Pos(), "recovery counter %s is written outside (*Metrics).charge; charge it there so the shared budget is tested", name)
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "charge" && fd.Recv != nil && isSimMetrics(pass.Info.TypeOf(fd.Recv.List[0].Type)) {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				var written []ast.Expr
				switch n := n.(type) {
				case *ast.IncDecStmt:
					written = []ast.Expr{n.X}
				case *ast.AssignStmt:
					written = n.Lhs
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written = []ast.Expr{n.X}
					}
				case *ast.CompositeLit:
					if t := pass.Info.TypeOf(n); isSimMetrics(t) {
						st, _ := namedType(t).Underlying().(*types.Struct)
						for i, e := range n.Elts {
							name := st.Field(i).Name()
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								name = kv.Key.(*ast.Ident).Name
							}
							if recoveryCounters[name] {
								report(e, "Metrics."+name)
							}
						}
					}
				}
				for _, e := range written {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && isMetricsRecoveryField(pass.Info, sel) {
						report(e, types.ExprString(sel))
					}
				}
				return true
			})
		}
	}
}

// isMetricsRecoveryField matches a Retries/Restarts/Failovers/Reconnects
// field selected on internal/sim's Metrics, not on the float64 Summary.
func isMetricsRecoveryField(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	return recoveryCounters[sel.Sel.Name] && ok && s.Kind() == types.FieldVal && isSimMetrics(s.Recv())
}

// isSimMetrics reports whether t, pointers stripped, is internal/sim's
// Metrics.
func isSimMetrics(t types.Type) bool {
	return typeNameIs(t, "Metrics") && pathMatches(declaredPkgPath(t), []string{"internal/sim"})
}
