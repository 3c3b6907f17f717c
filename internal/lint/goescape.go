package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The goescape pass catches the race the goroutine rule cannot see:
// sharing a non-thread-safe value between the spawning goroutine and a
// spawned one. The curated unsafe set is the repository's actual
// single-threaded state: *rand.Rand (every draw mutates the source),
// maps (unsynchronised writes corrupt), *sim.Engine (the arena-backed
// event heap), *telemetry.SpanLog and *telemetry.Set (flat record slabs
// with intern tables), and *storage.Array (free-extent bookkeeping).
//
// Two spawn shapes are inspected:
//
//   - go statements — a closure (or method call) escaping onto a new
//     goroutine. A captured unsafe value is flagged only when it is
//     *also* used by the spawning function outside the closure:
//     transferring ownership into the goroutine (build, hand off, never
//     touch again) is the sanctioned idiom and stays silent.
//   - sweep task functions — the fn argument of sweep.Map.
//     The pool invokes the task from many workers concurrently, so a
//     captured unsafe value is flagged with no reachability condition:
//     the parallel invocations alone share it.
//
// Map captures are the exception to "any use counts": concurrent map
// reads are legal, so a captured map is flagged only when the closure
// writes it (index assignment or delete).
//
// Indirect sharing is traced through the call graph: a pointer-receiver
// method called on a captured variable is flagged when the method —
// transitively, over the call graph's shared reverse-reachability walk —
// touches a non-thread-safe value that is not local to the touching
// function (method calls on unsafe receivers, map operations on fields or
// globals). The diagnostic carries the shortest method→unsafe-touch
// chain, like every other interprocedural rule.
//
// Limitations: values smuggled through channels, struct fields, or
// function values are not traced; captured-variable analysis is lexical
// (aliasing through assignment is invisible); and the curated type set
// is deliberately small. go test -race remains the dynamic backstop.

// unsafeConcDesc classifies t as concurrency-unsafe, returning a short
// description or "".
func unsafeConcDesc(modpath string, t types.Type) string {
	if t == nil {
		return ""
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if obj.Name() == "Rand" {
			return "*rand.Rand"
		}
	case modpath + "/internal/sim":
		if obj.Name() == "Engine" {
			return "*sim.Engine"
		}
	case modpath + "/internal/telemetry":
		if obj.Name() == "SpanLog" || obj.Name() == "Set" {
			return "*telemetry." + obj.Name()
		}
	case modpath + "/internal/storage":
		if obj.Name() == "Array" {
			return "*storage.Array"
		}
	}
	return ""
}

// unsafeTouches scans one function body for direct touches of
// concurrency-unsafe state that is not local to the function: method
// calls whose receiver type is in the curated set, and map index /
// delete / range operations. Purely local values (a map built and used
// inside the function) never count.
func (g *CallGraph) unsafeTouches(n *cgNode) []site {
	info := n.pkg.Info
	var out []site
	nonLocalRoot := func(e ast.Expr) bool {
		root, _, ok := pathOf(info, e)
		if !ok {
			return false
		}
		return !objLocalTo(root, n)
	}
	addMapOp := func(e ast.Expr, pos token.Pos, op string) {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		if !nonLocalRoot(e) {
			return
		}
		out = append(out, site{desc: fmt.Sprintf("map %s (%s)", op, types.ExprString(e)), pos: pos})
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if se, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if sel, selOK := info.Selections[se]; selOK && sel.Kind() == types.MethodVal {
					if tv, tvOK := info.Types[se.X]; tvOK {
						if desc := unsafeConcDesc(g.cfg.ModulePath, tv.Type); desc != "" && nonLocalRoot(se.X) {
							out = append(out, site{
								desc: fmt.Sprintf("%s.%s on %s", desc, se.Sel.Name, types.ExprString(se.X)),
								pos:  se.Pos(),
							})
						}
					}
				}
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 2 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					addMapOp(x.Args[0], x.Pos(), "delete")
				}
			}
		case *ast.IndexExpr:
			addMapOp(x.X, x.Pos(), "access")
		case *ast.RangeStmt:
			addMapOp(x.X, x.Pos(), "range")
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// objLocalTo reports whether obj is declared inside n's body — a purely
// function-local value. Parameters and the receiver sit before the body
// and so count as shared.
func objLocalTo(obj types.Object, n *cgNode) bool {
	return obj.Pos() >= n.decl.Body.Pos() && obj.Pos() < n.decl.Body.End()
}

// runGoEscape inspects every go statement and sweep-task closure for
// captured non-thread-safe values shared with the spawning goroutine.
func runGoEscape(cfg *Config, g *CallGraph, allows *allowIndex) []Diagnostic {
	// Seed at each node's first unsafe touch, so a pointer-receiver
	// method call can render the shortest chain to the state it reaches.
	r := g.reachBack(func(n *cgNode) *site {
		if ts := g.unsafeTouches(n); len(ts) > 0 {
			return &ts[0]
		}
		return nil
	})

	var out []Diagnostic
	for _, n := range g.order {
		pass := &Pass{Cfg: cfg, Pkg: n.pkg, rule: "goescape", allows: allows, out: &out}
		g.scanSpawns(n, pass, r)
	}
	return out
}

// scanSpawns finds the spawn sites in one function and checks their
// captures.
func (g *CallGraph) scanSpawns(n *cgNode, pass *Pass, r reach) {
	info := n.pkg.Info
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				g.checkClosure(n, pass, lit, x.Pos(), "goroutine closure", true, r)
			} else {
				g.checkSpawnedCall(n, pass, x.Call, x.Pos(), r)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, ast.Unparen(x.Fun)); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == g.cfg.ModulePath+"/internal/sweep" &&
				fn.Name() == "Map" && len(x.Args) > 2 {
				if lit, ok := ast.Unparen(x.Args[2]).(*ast.FuncLit); ok {
					g.checkClosure(n, pass, lit, x.Pos(), "sweep task", false, r)
				}
			}
		}
		return true
	})
}

// checkClosure examines the variables a spawn-site closure captures from
// its enclosing function. needOutsideUse distinguishes go statements
// (ownership handoff is fine) from sweep tasks (workers share the
// capture regardless).
func (g *CallGraph) checkClosure(n *cgNode, pass *Pass, lit *ast.FuncLit, reportPos token.Pos, what string, needOutsideUse bool, r reach) {
	info := n.pkg.Info
	type capture struct {
		v        *types.Var
		firstUse token.Pos
	}
	var caps []capture
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= n.decl.Pos() && v.Pos() < lit.Pos() {
			seen[v] = true
			caps = append(caps, capture{v: v, firstUse: id.Pos()})
		}
		return true
	})
	sort.Slice(caps, func(i, j int) bool { return caps[i].firstUse < caps[j].firstUse })

	for _, c := range caps {
		shared := !needOutsideUse || usedOutside(info, n, c.v, lit.Pos(), lit.End())
		if !shared {
			continue
		}
		if desc := unsafeConcDesc(g.cfg.ModulePath, c.v.Type()); desc != "" {
			if desc == "map" && !mapWrittenIn(info, lit, c.v) {
				continue // concurrent map reads are legal
			}
			racyWith := "is still used by the spawning goroutine"
			if !needOutsideUse {
				racyWith = "is shared across the pool's concurrent workers"
			}
			pass.reportChain(reportPos,
				[]string{fmt.Sprintf("%s captured by %s (%s)", c.v.Name(), what, g.relPos(c.firstUse))},
				"%s captures %s (%s), which is not thread-safe and %s; hand off ownership or guard it",
				what, c.v.Name(), desc, racyWith)
			continue
		}
		// Indirect: pointer-receiver module methods called on the
		// capture that transitively touch unsafe state.
		g.checkCapturedCalls(n, pass, lit, c.v, reportPos, what, r)
	}
}

// checkCapturedCalls flags pointer-receiver method calls on a captured
// variable whose callee transitively touches non-thread-safe state.
func (g *CallGraph) checkCapturedCalls(n *cgNode, pass *Pass, lit *ast.FuncLit, v *types.Var, reportPos token.Pos, what string, r reach) {
	info := n.pkg.Info
	reported := false
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if reported {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		root, _, ok := pathOf(info, se.X)
		if !ok || root != v {
			return true
		}
		fn, ok := info.Uses[se.Sel].(*types.Func)
		if !ok {
			return true
		}
		fn = fn.Origin()
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		if _, isPtr := sig.Recv().Type().Underlying().(*types.Pointer); !isPtr {
			return true
		}
		callee := g.nodes[fn]
		if _, touched := r[callee]; !touched {
			return true
		}
		chain := g.chain(r, callee)
		pass.reportChain(reportPos, chain,
			"%s calls %s on captured %s, which reaches non-thread-safe state shared with the spawning goroutine: %s",
			what, g.shortName(fn), v.Name(), chainArrow(chain))
		reported = true
		return false
	})
}

// checkSpawnedCall handles `go x.m(...)` and `go f(rng)`: a method value
// spawned directly, or unsafe values passed as arguments.
func (g *CallGraph) checkSpawnedCall(n *cgNode, pass *Pass, call *ast.CallExpr, reportPos token.Pos, r reach) {
	info := n.pkg.Info
	goEnd := call.End()
	if se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if root, _, ok := pathOf(info, se.X); ok {
			if rv, isVar := root.(*types.Var); isVar && usedOutside(info, n, rv, call.Pos(), goEnd) {
				if fn, ok := info.Uses[se.Sel].(*types.Func); ok {
					callee := g.nodes[fn.Origin()]
					if _, touched := r[callee]; touched {
						chain := g.chain(r, callee)
						pass.reportChain(reportPos, chain,
							"goroutine runs %s on %s, which reaches non-thread-safe state shared with the spawning goroutine: %s",
							g.shortName(fn.Origin()), rv.Name(), chainArrow(chain))
					}
				}
			}
		}
	}
	for _, a := range call.Args {
		root, _, ok := pathOf(info, a)
		if !ok {
			continue
		}
		rv, isVar := root.(*types.Var)
		if !isVar {
			continue
		}
		desc := unsafeConcDesc(g.cfg.ModulePath, rv.Type())
		if desc == "" || !usedOutside(info, n, rv, call.Pos(), goEnd) {
			continue
		}
		pass.reportChain(reportPos,
			[]string{fmt.Sprintf("%s passed to spawned call (%s)", rv.Name(), g.relPos(a.Pos()))},
			"goroutine receives %s (%s), which is not thread-safe and is still used by the spawning goroutine; hand off ownership or guard it",
			rv.Name(), desc)
	}
}

// usedOutside reports whether v is referenced in n's body outside the
// [from, to] range — the spawning goroutine still reaching the value.
func usedOutside(info *types.Info, n *cgNode, v *types.Var, from, to token.Pos) bool {
	found := false
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if found {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		if id.Pos() >= from && id.Pos() <= to {
			return true
		}
		if info.Uses[id] == v {
			found = true
		}
		return true
	})
	return found
}

// mapWrittenIn reports whether the closure writes the captured map:
// an index assignment, ++/--, or delete rooted at v.
func mapWrittenIn(info *types.Info, lit *ast.FuncLit, v *types.Var) bool {
	written := false
	rootedAtV := func(e ast.Expr) bool {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				root, _, ok := pathOf(info, e)
				return ok && root == v
			}
		}
	}
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if written {
			return false
		}
		switch x := node.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok && rootedAtV(ix.X) {
					written = true
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok && rootedAtV(ix.X) {
				written = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 2 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && rootedAtV(x.Args[0]) {
					written = true
				}
			}
		}
		return true
	})
	return written
}
