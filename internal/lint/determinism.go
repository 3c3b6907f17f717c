package lint

import (
	"go/ast"
	"go/types"
)

// Determinism forbids ambient nondeterminism in model code. The sweep
// engine's byte-identity guarantee (parallel == sequential) holds only if
// every model evaluation is a pure function of its inputs: no wall clock,
// no global-source randomness, no environment reads. Randomness must come
// from a seeded *rand.Rand threaded through a constructor; time must come
// from the simulation engine's virtual clock.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no time.Now, global-source rand, or env reads in model packages",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	if !p.Cfg.isModelPackage(p.Pkg.ImportPath) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if _, advice := ambientSource(fn); advice != "" {
				p.Report(id.Pos(), "%s", advice)
			}
			return true
		})
	}
}
