package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PooledReturn enforces the free-list ownership contract from PR 1
// (repro/internal/pool and any sync.Pool): a function that takes values
// out of a pool must also contain the matching Put — dominated work
// goes back, survivors escape by being returned — and a value must not
// be used after it has been Put. Get/Put matching is function-scoped
// with closures counted as part of their enclosing declaration,
// matching how the search loops wrap Get in a reset helper; the
// use-after-Put rule runs on the control-flow graph, so a Put inside
// one branch taints uses after the merge (the branch-insensitive
// false negative the pre-CFG version had).
var PooledReturn = &Analyzer{
	Name: "pooledreturn",
	Doc: "every pool Get must be matched by a Put on the same pool in the same function (or the value must be " +
		"returned), and pooled values must not be used after Put on any path",
	Run: runPooledReturn,
}

// isPoolType reports whether t is sync.Pool or a type declared in an
// internal/pool package.
func isPoolType(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return (path == "sync" && n.Obj().Name() == "Pool") || pathMatches(path, []string{"internal/pool"})
}

type poolPut struct {
	call   *ast.CallExpr
	key    string
	argObj types.Object
}

func runPooledReturn(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPoolFunc(pass, fd)
			}
		}
		for _, body := range funcBodies(f) {
			checkPoolFlow(pass, body)
		}
	}
}

// poolCallOf matches pool.Get() / pool.Put(x) on sync.Pool or an
// internal/pool type, keyed by the printed pool expression.
func poolCallOf(info *types.Info, n *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(n.Fun).(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
		return "", "", false
	}
	tv, okT := info.Types[sel.X]
	if !okT || !isPoolType(tv.Type) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	gets := map[string][]*ast.CallExpr{} // pool expr -> Get calls
	putsByKey := map[string]int{}
	var puts []poolPut
	assigned := map[string][]types.Object{} // pool expr -> objects holding Get results
	returned := map[types.Object]bool{}
	getInReturn := map[*ast.CallExpr]bool{}

	poolCall := func(n *ast.CallExpr) (key, method string, ok bool) {
		return poolCallOf(pass.Info, n)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			key, method, ok := poolCall(n)
			if !ok {
				return true
			}
			if method == "Get" {
				gets[key] = append(gets[key], n)
			} else {
				p := poolPut{call: n, key: key}
				if len(n.Args) == 1 {
					if id := rootIdent(n.Args[0]); id != nil {
						p.argObj = pass.Info.Uses[id]
					}
				}
				putsByKey[key]++
				puts = append(puts, p)
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				rhs := ast.Unparen(n.Rhs[0])
				if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
					rhs = ast.Unparen(ta.X) // b := pool.Get().(*T)
				}
				if call, ok := rhs.(*ast.CallExpr); ok {
					if key, method, ok := poolCall(call); ok && method == "Get" {
						for _, lhs := range n.Lhs {
							if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
								if obj := pass.Info.Defs[id]; obj != nil {
									assigned[key] = append(assigned[key], obj)
								} else if obj := pass.Info.Uses[id]; obj != nil {
									assigned[key] = append(assigned[key], obj)
								}
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				// Only the variable itself escapes: `return s.v` and
				// `return s.get()` hand out a value derived from s, not s.
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						returned[obj] = true
					}
				}
				ast.Inspect(res, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if _, method, ok := poolCall(call); ok && method == "Get" {
							getInReturn[call] = true
						}
					}
					return true
				})
			}
		}
		return true
	})

	// Rule 1: a Get with no Put anywhere in the function, whose result
	// neither is returned directly nor through a variable, leaks pooled
	// storage (or silently abandons the recycling the hot loop relies on).
	for key, calls := range gets {
		if putsByKey[key] > 0 {
			continue
		}
		escapes := false
		for _, obj := range assigned[key] {
			if returned[obj] {
				escapes = true
			}
		}
		for _, call := range calls {
			if escapes || getInReturn[call] {
				continue
			}
			pass.Reportf(call.Pos(), "%s.Get has no matching %s.Put in this function and the value does not escape by return; recycle it or hand ownership off explicitly", key, key)
		}
	}

}

// checkPoolFlow is rule 2 — no use after Put — as a forward may-put
// dataflow over the CFG: Put(x) adds x to the tainted set, a top-level
// reassignment (or a fresh := / range binding) clears it, and any use
// of a tainted variable is reported. A Put inside one branch therefore
// taints uses after the merge point, and a Put followed by `continue`
// is cleared by the next iteration's Get rebinding. Deferred Puts run
// at function exit, so they never taint the body. Function literals
// get their own flow; a closure that captures a tainted variable still
// counts as a use at the statement mentioning it.
func checkPoolFlow(pass *Pass, body *ast.BlockStmt) {
	g := pass.CFGOf(body)

	type taint map[types.Object]string // object -> pool key
	clone := func(s taint) taint {
		out := make(taint, len(s))
		for k, v := range s {
			out[k] = v
		}
		return out
	}

	// kills removes objects rebound by n: assignment targets and fresh
	// definitions (:= and range key/value bindings, which the CFG
	// surfaces as bare defining idents at the loop body's head).
	kills := func(n ast.Node, s taint) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						delete(s, obj)
					} else if obj := pass.Info.Uses[id]; obj != nil {
						delete(s, obj)
					}
				}
			}
		case *ast.DeclStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						delete(s, obj)
					}
				}
				return true
			})
		case *ast.Ident:
			if obj := pass.Info.Defs[n]; obj != nil {
				delete(s, obj)
			}
		}
	}

	// putsIn records non-deferred Put(x) calls in n and returns their
	// source ranges so the argument itself is not counted as a use.
	type span struct{ lo, hi token.Pos }
	putsIn := func(n ast.Node) (found []poolPut, ranges []span) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return nil, nil
		}
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			key, method, ok := poolCallOf(pass.Info, call)
			if !ok || method != "Put" || len(call.Args) != 1 {
				return true
			}
			p := poolPut{call: call, key: key}
			if id := rootIdent(call.Args[0]); id != nil {
				p.argObj = pass.Info.Uses[id]
			}
			found = append(found, p)
			ranges = append(ranges, span{call.Pos(), call.End()})
			return true
		})
		return found, ranges
	}

	apply := func(n ast.Node, s taint, report bool) {
		kills(n, s)
		puts, ranges := putsIn(n)
		if report && len(s) > 0 {
			ast.Inspect(n, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.Info.Uses[id]
				if obj == nil {
					return true
				}
				key, tainted := s[obj]
				if !tainted {
					return true
				}
				for _, r := range ranges {
					if r.lo <= id.Pos() && id.Pos() < r.hi {
						return true // the Put's own argument
					}
				}
				pass.Reportf(id.Pos(), "%s is used after %s.Put returned it to the pool", obj.Name(), key)
				delete(s, obj) // one report per hand-back
				return true
			})
		}
		for _, p := range puts {
			if p.argObj != nil {
				s[p.argObj] = p.key
			}
		}
	}

	spec := FlowSpec[taint]{
		Init:   func() taint { return taint{} },
		Bottom: func() taint { return taint{} },
		Join: func(dst, src taint) taint {
			out := clone(dst)
			for k, v := range src {
				out[k] = v
			}
			return out
		},
		Equal: func(a, b taint) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if b[k] != v {
					return false
				}
			}
			return true
		},
		Transfer: func(bl *Block, in taint) taint {
			out := clone(in)
			for _, n := range bl.Nodes {
				apply(n, out, false)
			}
			return out
		},
	}
	in := ForwardDataflow(g, spec)

	reach := g.Reachable()
	for _, bl := range g.Blocks {
		if !reach[bl.Index] {
			continue
		}
		s := clone(in[bl.Index])
		for _, n := range bl.Nodes {
			apply(n, s, true)
		}
	}
}
