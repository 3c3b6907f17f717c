package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// The call graph is the substrate for the module-level passes: every
// function declaration in the loaded packages is a node, every static call
// or reference from one module function to another is an edge, and every
// reach into ambient state (wall clock, global RNG, environment, an
// order-sensitive map range) is a taint source pinned to the node that
// contains it. Function literals are attributed to their enclosing
// declaration, so a source inside a closure taints the declaring function.
//
// The graph is read-only once built. The purity, allocflow and goescape
// passes differ only in where they seed: each hands reachBack its seeding
// rule, and reachBack's one breadth-first walk over the callers index
// gives every reached function its shortest chain to a seed.
//
// Limitations, by construction: calls through interface methods and
// function values are not resolved (no edge), so taint does not propagate
// through them — the intra-package determinism rule still catches direct
// ambient reads wherever they occur.

// CallGraph is the module-wide static call graph over the loaded packages.
type CallGraph struct {
	cfg   *Config
	fset  *token.FileSet
	nodes map[*types.Func]*cgNode
	order []*cgNode // deterministic: package input order, then position
}

// cgNode is one function declaration. Nodes are read-only once
// buildCallGraph returns; the passes keep their search state in a reach.
type cgNode struct {
	fn      *types.Func
	pkg     *Package
	decl    *ast.FuncDecl
	calls   []cgEdge
	callers []*cgNode // one entry per edge into this node, in graph order
	sources []site    // ambient-state reaches, in position order
}

// cgEdge is one static call (or function-value reference) site.
type cgEdge struct {
	callee *types.Func
	pos    token.Pos
}

// site is one positioned reason a function is flagged: an ambient-state
// source (purity), an allocation (allocflow) or a touch of
// non-thread-safe state (goescape).
type site struct {
	desc string // e.g. "time.Now (wall clock)"
	pos  token.Pos
	rule string // ambient sources only: the intra-package rule whose allow also silences the seed
}

// Graph loads the import paths and builds their call graph — the `-graph`
// debug entry point of cmd/dhllint.
func Graph(cfg Config, importPaths []string) (*CallGraph, error) {
	ld := NewLoader(cfg.ModuleRoot, cfg.ModulePath)
	pkgs := make([]*Package, 0, len(importPaths))
	for _, ip := range importPaths {
		pkg, err := ld.Load(ip)
		if err != nil {
			return nil, fmt.Errorf("lint: load %s: %w", ip, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return buildCallGraph(&cfg, pkgs), nil
}

func buildCallGraph(cfg *Config, pkgs []*Package) *CallGraph {
	g := &CallGraph{cfg: cfg, nodes: make(map[*types.Func]*cgNode)}
	if len(pkgs) > 0 {
		g.fset = pkgs[0].Fset
	}
	// First pass: one node per function declaration.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, fd := range funcDecls(f) {
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &cgNode{fn: fn, pkg: pkg, decl: fd}
				g.nodes[fn] = n
				g.order = append(g.order, n)
			}
		}
	}
	// Second pass: edges and taint sources from each body, then the
	// reverse index every interprocedural pass walks.
	for _, n := range g.order {
		g.scanBody(n)
	}
	for _, n := range g.order {
		for _, e := range n.calls {
			if callee := g.nodes[e.callee]; callee != nil {
				callee.callers = append(callee.callers, n)
			}
		}
	}
	return g
}

// reach is the result of one reverse-reachability walk: every node that
// reaches a seed, with its hop toward the nearest one.
type reach map[*cgNode]hop

type hop struct {
	via  *cgNode // next function toward the seed; nil at the seed itself
	seed *site   // the seed site this node reaches
}

// reachBack walks the call graph backwards from the seeds seedOf picks:
// seeds in graph order, then callers breadth-first, each node keeping the
// first hop that reaches it. Every reached node thus records a shortest
// path to a seed, and the same one on every run.
func (g *CallGraph) reachBack(seedOf func(*cgNode) *site) reach {
	r := reach{}
	var queue []*cgNode
	for _, n := range g.order {
		if s := seedOf(n); s != nil {
			r[n] = hop{seed: s}
			queue = append(queue, n)
		}
	}
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		for _, caller := range n.callers {
			if _, seen := r[caller]; !seen {
				r[caller] = hop{via: n, seed: r[n].seed}
				queue = append(queue, caller)
			}
		}
	}
	return r
}

// chain renders the shortest call chain from a reached node down to its
// seed: one "name (file:line)" frame per function, with the seed site
// itself as the final frame.
func (g *CallGraph) chain(r reach, n *cgNode) []string {
	s := r[n].seed
	var frames []string
	for ; n != nil; n = r[n].via {
		frames = append(frames, fmt.Sprintf("%s (%s)", g.shortName(n.fn), g.relPos(n.decl.Pos())))
	}
	return append(frames, fmt.Sprintf("%s (%s)", s.desc, g.relPos(s.pos)))
}

// scanBody records, for one function declaration, every call/reference to
// another module function and every direct ambient-state reach.
func (g *CallGraph) scanBody(n *cgNode) {
	info := n.pkg.Info
	seenEdge := map[*types.Func]map[token.Pos]bool{}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		fn = fn.Origin()
		if g.isModuleFunc(fn) {
			if fn != n.fn { // ignore self-recursion edges
				if seenEdge[fn] == nil {
					seenEdge[fn] = map[token.Pos]bool{}
				}
				if !seenEdge[fn][id.Pos()] {
					seenEdge[fn][id.Pos()] = true
					n.calls = append(n.calls, cgEdge{callee: fn, pos: id.Pos()})
				}
			}
			return true
		}
		if desc, _ := ambientSource(fn); desc != "" {
			n.sources = append(n.sources, site{desc: desc, pos: id.Pos(), rule: "determinism"})
		}
		return true
	})
	// Map ranges whose body is iteration-order-sensitive are ambient
	// state too: the traversal order changes run to run.
	for _, r := range orderSensitiveRanges(info, n.decl) {
		n.sources = append(n.sources, site{
			desc: fmt.Sprintf("map iteration order (%s)", r.reason),
			pos:  r.pos,
			rule: "maporder",
		})
	}
	sort.Slice(n.sources, func(i, j int) bool { return n.sources[i].pos < n.sources[j].pos })
}

func (g *CallGraph) isModuleFunc(fn *types.Func) bool {
	path := fn.Pkg().Path()
	return path == g.cfg.ModulePath || strings.HasPrefix(path, g.cfg.ModulePath+"/")
}

// seededConstructors are the math/rand entry points that take an explicit
// seed or source and are therefore deterministic.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 seeded generators.
	"NewPCG": true, "NewChaCha8": true,
}

// ambientSource classifies a function as an ambient-state source: wall
// clock, global math/rand draws, and environment reads. It returns the
// short description call-graph chains print and the advice the
// determinism analyzer reports at a direct use, or two empty strings.
// Methods never qualify — a seeded *rand.Rand's Float64 is the sanctioned
// idiom.
func ambientSource(fn *types.Func) (desc, advice string) {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return fmt.Sprintf("time.%s (wall clock)", name),
				fmt.Sprintf("time.%s reads the wall clock; model code must take time from the simulation engine or an injected clock", name)
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[name] {
			return fmt.Sprintf("rand.%s (global random source)", name),
				fmt.Sprintf("rand.%s draws from the global source; thread a seeded *rand.Rand through the constructor instead", name)
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return fmt.Sprintf("os.%s (environment read)", name),
				fmt.Sprintf("os.%s makes model output depend on the environment; pass configuration explicitly", name)
		}
	}
	return "", ""
}

// shortName renders a function for chains and dumps: the package path with
// the module prefix trimmed, then the receiver (if any) and name.
func (g *CallGraph) shortName(fn *types.Func) string {
	pkgPath := strings.TrimPrefix(fn.Pkg().Path(), g.cfg.ModulePath+"/")
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return pkgPath + "." + name
}

// relPos renders pos relative to the module root.
func (g *CallGraph) relPos(pos token.Pos) string {
	p := g.fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(g.cfg.ModuleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// Dump writes the graph in a stable text form: a summary line, one
// `caller -> callee (pos)` line per edge, and one `fn => source (pos)`
// line per ambient seed, all sorted.
func (g *CallGraph) Dump(w io.Writer) {
	edges, seeds := 0, 0
	var lines []string
	for _, n := range g.order {
		for _, e := range n.calls {
			edges++
			lines = append(lines, fmt.Sprintf("%s -> %s (%s)", g.shortName(n.fn), g.shortName(e.callee), g.relPos(e.pos)))
		}
		for _, s := range n.sources {
			seeds++
			lines = append(lines, fmt.Sprintf("%s => %s (%s)", g.shortName(n.fn), s.desc, g.relPos(s.pos)))
		}
	}
	sort.Strings(lines)
	fmt.Fprintf(w, "# call graph: %d functions, %d edges, %d ambient sources\n", len(g.order), edges, seeds)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
