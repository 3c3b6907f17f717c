package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The allocflow pass statically guards the model's zero-allocation hot
// paths. A function opts in with a //dhllint:hotpath comment directive on
// its declaration; the pass then verifies that neither the function body
// nor anything it transitively calls (over the module call graph's one
// reverse-reachability walk, shared with purity and goescape) can allocate
// in steady state.
//
// Allocation sites are classified from the go/types-resolved AST:
// make/new, growing append, escaping composite literals (&T{…}, slice and
// map literals), string concatenation, allocating conversions
// (string↔[]byte/[]rune, int→string), interface boxing of non-pointer-
// shaped concrete values, capturing closures, map writes, variadic
// ...interface{} argument slices, go statements, and calls into a curated
// set of stdlib functions that allocate by contract (fmt.*, errors.New,
// strconv formatters, …).
//
// Deliberate exemptions keep the pass aligned with what the compiler and
// runtime actually do: x = append(x, …) is the amortised-growth idiom
// (within capacity after warm-up, the invariant hotpath_allocs_test.go
// pins dynamically); constant-folded concatenations and conversions cost
// nothing; boxing a constant or a pointer-shaped value (pointer, map,
// chan, func) does not allocate; non-capturing closures are static; and
// variadic calls with a non-interface element type keep their argument
// slice on the caller's stack.
//
// Justified cold branches — error returns, lazy first-use growth — are
// silenced in place with //dhllint:allow allocflow; an allowed site
// neither reports nor seeds taint, so a hot function whose only
// allocations are justified stays callable from other hot paths.
//
// Limitations, shared with purity: calls through interface methods and
// function values are not resolved, and uncurated third-party functions
// are assumed allocation-free — the dynamic AllocsPerRun tests backstop
// both gaps.

// hotpathDirective marks a function whose steady-state execution must be
// allocation-free.
const hotpathDirective = "//dhllint:hotpath"

// isHotpath reports whether fd carries the //dhllint:hotpath directive.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// runAllocFlow verifies every //dhllint:hotpath function: classify each
// function's allocation sites, propagate "may allocate" backwards over the
// call graph, and report every surviving site or tainted call reachable
// from an annotated root, with the shortest site→root chain.
func runAllocFlow(cfg *Config, g *CallGraph, allows *allowIndex) []Diagnostic {
	// Classify sites, dropping those justified in place: an allowed site
	// is consumed immediately (so the allow never reads as unused) and
	// neither reports nor seeds taint.
	sites := make(map[*cgNode][]site)
	for _, n := range g.order {
		for _, s := range g.allocSites(n) {
			pos := g.fset.Position(s.pos)
			if e := allows.lookup(pos.Filename, pos.Line, "allocflow"); e != nil {
				e.used = true
				continue
			}
			sites[n] = append(sites[n], s)
		}
	}
	// Seed at each node's first surviving site by position.
	r := g.reachBack(func(n *cgNode) *site {
		if ss := sites[n]; len(ss) > 0 {
			return &ss[0]
		}
		return nil
	})

	var out []Diagnostic
	for _, n := range g.order {
		if !isHotpath(n.decl) {
			continue
		}
		pass := &Pass{Cfg: cfg, Pkg: n.pkg, rule: "allocflow", allows: allows, out: &out}
		name := g.shortName(n.fn)
		for i := range sites[n] {
			s := &sites[n][i]
			chain := []string{fmt.Sprintf("%s (%s)", s.desc, g.relPos(s.pos))}
			pass.reportChain(s.pos, chain, "hot path %s allocates: %s", name, s.desc)
		}
		for _, e := range n.calls {
			callee := g.nodes[e.callee]
			if _, tainted := r[callee]; !tainted {
				continue
			}
			chain := g.chain(r, callee)
			pass.reportChain(e.pos, chain,
				"hot path %s calls %s, which allocates: %s",
				name, g.shortName(e.callee), chainArrow(chain))
		}
	}
	return out
}

// allocSites classifies every potential allocation in one function body,
// in position order.
func (g *CallGraph) allocSites(n *cgNode) []site {
	info := n.pkg.Info
	var sites []site
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, site{desc: fmt.Sprintf(format, args...), pos: pos})
	}
	body := n.decl.Body
	selfAppend := selfAppendCalls(body)

	// Function literals in lexical (pre-order) entry order, so a return
	// statement can be matched to its innermost enclosing signature.
	type litScope struct {
		lit *ast.FuncLit
		sig *types.Signature
	}
	var lits []litScope
	enclosingSig := func(pos token.Pos) *types.Signature {
		for i := len(lits) - 1; i >= 0; i-- {
			if lits[i].lit.Pos() <= pos && pos <= lits[i].lit.End() {
				return lits[i].sig
			}
		}
		sig, _ := n.fn.Type().(*types.Signature)
		return sig
	}

	ast.Inspect(body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.CallExpr:
			g.scanCall(info, e, selfAppend, add)
		case *ast.BinaryExpr:
			// Non-constant string concatenation builds a new backing array.
			if e.Op == token.ADD {
				tv := info.Types[e]
				if tv.Value == nil && isStringType(tv.Type) {
					add(e.Pos(), "string concatenation")
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					add(e.Pos(), "escaping composite literal &%s{}", compositeName(cl))
				}
			}
		case *ast.CompositeLit:
			// Plain struct/array values live in their enclosing frame;
			// slice and map literals always carry a backing allocation.
			if t := info.Types[e].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(e.Pos(), "slice literal")
				case *types.Map:
					add(e.Pos(), "map literal")
				}
			}
		case *ast.GoStmt:
			add(e.Pos(), "go statement (new goroutine)")
		case *ast.FuncLit:
			sig, _ := info.Types[e].Type.(*types.Signature)
			lits = append(lits, litScope{lit: e, sig: sig})
			if closureCaptures(info, e, n.decl) {
				add(e.Pos(), "capturing closure")
			}
		case *ast.AssignStmt:
			for i, lhs := range e.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := info.Types[ix.X].Type; t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							add(lhs.Pos(), "map write")
						}
					}
				}
				if len(e.Lhs) == len(e.Rhs) {
					g.checkBoxing(info, e.Rhs[i], assignTargetType(info, lhs), add)
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
				if t := info.Types[ix.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						add(e.Pos(), "map write")
					}
				}
			}
		case *ast.ValueSpec:
			// var x I = concrete — boxing at declared-type bindings. (With
			// no declared type the variable's type is the value's own, so
			// no conversion happens.)
			if e.Type != nil && len(e.Values) > 0 {
				if t := info.Types[e.Type].Type; t != nil {
					for _, v := range e.Values {
						g.checkBoxing(info, v, t, add)
					}
				}
			}
		case *ast.ReturnStmt:
			sig := enclosingSig(e.Pos())
			if sig != nil && len(e.Results) == sig.Results().Len() {
				for i, r := range e.Results {
					g.checkBoxing(info, r, sig.Results().At(i).Type(), add)
				}
			}
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites
}

// scanCall classifies one call expression: allocating builtins,
// allocating conversions, known-allocating stdlib calls, variadic
// interface argument slices, and interface boxing of fixed arguments.
func (g *CallGraph) scanCall(info *types.Info, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool, add func(token.Pos, string, ...any)) {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make(%s)", types.ExprString(call.Args[0]))
			case "new":
				add(call.Pos(), "new(%s)", types.ExprString(call.Args[0]))
			case "append":
				if !selfAppend[call] {
					add(call.Pos(), "growing append")
				}
			}
			return
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		// Conversion. Constant-folded ones (info records a value for the
		// whole expression) cost nothing.
		if len(call.Args) == 1 && info.Types[call].Value == nil {
			from := info.Types[call.Args[0]].Type
			if from != nil && conversionAllocates(tv.Type, from) {
				add(call.Pos(), "allocating conversion %s(%s)",
					types.ExprString(fun), typeString(from))
			}
		}
		return
	}
	if callee := calleeFunc(info, fun); callee != nil && callee.Pkg() != nil &&
		!g.isModuleFunc(callee) && knownAllocating(callee) {
		// One site per call: the callee's own formatting/allocation
		// subsumes the boxing of the arguments passed to it.
		add(call.Pos(), "%s.%s (allocates)", callee.Pkg().Name(), callee.Name())
		return
	}
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
		elem := sig.Params().At(fixed).Type().(*types.Slice).Elem()
		// A variadic ...interface{} call materialises a boxed argument
		// slice (the fmt.* shape). Non-interface element types keep the
		// slice on the caller's stack; xs... forwards an existing slice.
		if types.IsInterface(elem) && !call.Ellipsis.IsValid() && len(call.Args) > fixed {
			add(call.Pos(), "variadic ...%s argument slice", typeString(elem))
		}
	}
	for i, arg := range call.Args {
		if i >= fixed {
			break
		}
		g.checkBoxing(info, arg, sig.Params().At(i).Type(), add)
	}
}

// checkBoxing records an interface-boxing site when a concrete value
// flows into an interface-typed slot. Exempt: interface-to-interface
// assignment, nil, constants (the compiler materialises them statically),
// and pointer-shaped types (pointer, map, chan, func), which fit the
// interface word directly.
func (g *CallGraph) checkBoxing(info *types.Info, e ast.Expr, to types.Type, add func(token.Pos, string, ...any)) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return
	}
	from := tv.Type
	if types.IsInterface(from) || isUntypedNil(from) || pointerShaped(from) {
		return
	}
	add(e.Pos(), "interface boxing (%s → %s)", typeString(from), typeString(to))
}

// selfAppendCalls finds the append calls in `x = append(x, …)` form — the
// amortised-growth idiom, exempt because steady-state appends stay within
// capacity after warm-up (the dynamic AllocsPerRun tests pin that).
func selfAppendCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		if types.ExprString(as.Lhs[0]) == types.ExprString(call.Args[0]) {
			out[call] = true
		}
		return true
	})
	return out
}

// closureCaptures reports whether lit references a variable declared in
// the enclosing function outside the literal itself — the case where the
// closure needs a heap-allocated environment. Non-capturing literals are
// static values.
func closureCaptures(info *types.Info, lit *ast.FuncLit, decl *ast.FuncDecl) bool {
	captured := false
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if captured {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= decl.Pos() && v.Pos() < lit.Pos() {
			captured = true
		}
		return true
	})
	return captured
}

// conversionAllocates reports whether converting from → to copies into a
// fresh backing array: []byte/[]rune/rune/int → string and
// string → []byte/[]rune. Same-representation conversions (string→string,
// numeric, named↔underlying) are free.
func conversionAllocates(to, from types.Type) bool {
	if isStringType(to) {
		return !isStringType(from)
	}
	if isStringType(from) {
		if sl, ok := to.Underlying().(*types.Slice); ok {
			if b, ok := sl.Elem().Underlying().(*types.Basic); ok {
				return b.Kind() == types.Uint8 || b.Kind() == types.Int32
			}
		}
	}
	return false
}

// knownAllocating classifies non-module stdlib functions that allocate by
// contract. Methods never qualify (mirroring ambientSource); the set is
// curated, not exhaustive — uncurated calls are assumed clean, with the
// dynamic hot-path tests as the backstop.
func knownAllocating(fn *types.Func) bool {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		// Every fmt entry point formats through an allocating printer.
		return true
	case "errors":
		return fn.Name() == "New" || fn.Name() == "Join"
	case "strconv":
		switch fn.Name() {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote":
			return true
		}
	case "strings":
		switch fn.Name() {
		case "Join", "Repeat", "Split", "SplitN", "Fields", "Replace", "ReplaceAll", "ToUpper", "ToLower":
			return true
		}
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Strings":
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function object, if the callee is a
// direct identifier or selector (method/package function).
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// callSignature returns the signature a call invokes, or nil for builtins
// and conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// assignTargetType resolves the static type of an assignment LHS: the
// declared type for := definitions, the expression type otherwise.
func assignTargetType(info *types.Info, lhs ast.Expr) types.Type {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := info.Types[lhs]; ok {
		return tv.Type
	}
	return nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t fit an interface's data word
// without a heap copy.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// compositeName renders a composite literal's type for diagnostics.
func compositeName(cl *ast.CompositeLit) string {
	if cl.Type == nil {
		return "composite"
	}
	return types.ExprString(cl.Type)
}

// typeString renders a type with package-name (not path) qualifiers, to
// keep diagnostics short.
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
