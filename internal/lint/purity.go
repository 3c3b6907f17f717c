package lint

import "strings"

// The purity pass is the interprocedural half of the determinism story.
// The intra-package determinism rule flags a model function that calls
// time.Now directly; this pass flags the model function that reaches it
// through any number of helpers — including helpers in non-model packages,
// where the determinism rule deliberately stays quiet. Taint seeds at the
// ambient sources recorded in the call graph (wall clock, global RNG,
// environment reads, order-sensitive map ranges) and propagates backwards
// over call edges; every call site in a model package whose callee is
// tainted is reported with the full source→sink chain.
//
// Seeds can be silenced at the source with //dhllint:allow purity (or the
// matching intra-package rule: determinism for ambient reads, maporder for
// map ranges) — a justified source does not taint its callers.

// runPurity computes taint over the call graph and reports tainted call
// sites in model packages. Runs after the per-package pool, sequentially.
func runPurity(cfg *Config, g *CallGraph, allows *allowIndex) []Diagnostic {
	// Seed at each node's first ambient source not justified in place.
	r := g.reachBack(func(n *cgNode) *site {
		for i := range n.sources {
			if !g.seedSuppressed(n, &n.sources[i], allows) {
				return &n.sources[i]
			}
		}
		return nil
	})

	var out []Diagnostic
	for _, n := range g.order {
		if !cfg.isModelPackage(n.pkg.ImportPath) {
			continue
		}
		for _, e := range n.calls {
			callee := g.nodes[e.callee]
			h, tainted := r[callee]
			if !tainted {
				continue
			}
			chain := g.chain(r, callee)
			pass := &Pass{Cfg: cfg, Pkg: n.pkg, rule: "purity", allows: allows, out: &out}
			pass.reportChain(e.pos, chain,
				"%s transitively reaches %s: %s; model code must be a pure function of its inputs",
				g.shortName(e.callee), h.seed.desc, chainArrow(chain))
		}
	}
	return out
}

// seedSuppressed reports whether an ambient source is justified in place:
// an allow for "purity" at the source line, or for the intra-package rule
// that owns the construct (determinism in model packages, maporder for map
// ranges). A consumed allow is marked used.
func (g *CallGraph) seedSuppressed(n *cgNode, s *site, allows *allowIndex) bool {
	pos := g.fset.Position(s.pos)
	if e := allows.lookup(pos.Filename, pos.Line, "purity"); e != nil {
		e.used = true
		return true
	}
	if s.rule == "maporder" {
		if e := allows.lookup(pos.Filename, pos.Line, "maporder"); e != nil {
			return true
		}
	}
	// An ambient read in a model package carries a determinism allow when
	// justified; honour it here too so the justification silences both
	// the direct report and the transitive ones.
	if s.rule == "determinism" && g.cfg.isModelPackage(n.pkg.ImportPath) {
		if e := allows.lookup(pos.Filename, pos.Line, "determinism"); e != nil {
			return true
		}
	}
	return false
}

// chainArrow compacts chain frames into "a → b → c" using just the names.
func chainArrow(chain []string) string {
	names := make([]string, len(chain))
	for i, frame := range chain {
		if j := strings.IndexByte(frame, '('); j > 0 {
			names[i] = strings.TrimSpace(frame[:j])
		} else {
			names[i] = frame
		}
	}
	return strings.Join(names, " → ")
}
