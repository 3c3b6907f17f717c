package repro

// Benchmarks for the dhllint engine itself: the sequential reference path
// (Workers=1) against the GOMAXPROCS-bounded pool, both over the whole
// module with a pre-warmed loader so the measured work is analysis, not
// parsing and type-checking. Regenerate the regression record,
// BENCH_sweep.json, with
//
//	scripts/bench.sh

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/lint"
)

func lintBenchSetup(b *testing.B) (lint.Config, *lint.Loader, []string) {
	b.Helper()
	root, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	cfg := lint.DefaultConfig(root, "repro")
	paths, err := lint.ModulePackages(root, "repro")
	if err != nil {
		b.Fatal(err)
	}
	ld := lint.NewLoader(root, "repro")
	// Warm the loader: parsing and type-checking are memoized, so the
	// timed loop measures the analysis passes.
	if _, err := lint.RunWithLoader(cfg, ld, paths); err != nil {
		b.Fatal(err)
	}
	return cfg, ld, paths
}

func benchLintModule(b *testing.B, workers int) {
	cfg, ld, paths := lintBenchSetup(b)
	cfg.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := lint.RunWithLoader(cfg, ld, paths)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("module not lint-clean: %v", diags)
		}
	}
}

// BenchmarkLintModuleSequential is the single-worker baseline.
func BenchmarkLintModuleSequential(b *testing.B) { benchLintModule(b, 1) }

// BenchmarkLintModuleParallel analyzes packages on the worker pool;
// diagnostics are byte-identical to the sequential path
// (TestParallelMatchesSequential in internal/lint). On a single-core host
// GOMAXPROCS(0) is 1 and this degenerates to the sequential schedule —
// compare against Sequential only where GOMAXPROCS > 1 (see gomaxprocs and
// the notes in BENCH_sweep.json).
func BenchmarkLintModuleParallel(b *testing.B) { benchLintModule(b, runtime.GOMAXPROCS(0)) }
