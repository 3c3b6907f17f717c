// Command dhllint runs the repository's domain-specific static analyzers
// (internal/lint) over the module: determinism, map-order, unit-safety,
// dimensional-flow, float-equality, and goroutine-hygiene rules, plus the
// interprocedural purity, allocflow, lockcheck, lockorder, and goescape
// passes over the module call graph — pure stdlib end to end.
//
// Usage:
//
//	go run ./cmd/dhllint ./...             # lint every package
//	go run ./cmd/dhllint ./internal/core   # lint specific directories
//	go run ./cmd/dhllint -json ./...       # machine-readable report
//	go run ./cmd/dhllint -sarif ./...      # SARIF 2.1.0 log for code scanning
//	go run ./cmd/dhllint -rules determinism,maporder ./...
//	go run ./cmd/dhllint -disable floateq ./...
//	go run ./cmd/dhllint -graph ./...      # dump the call graph and exit
//	go run ./cmd/dhllint -j 4 ./...        # bound the analysis worker pool
//	                                       # (default: runtime.GOMAXPROCS)
//
// Exit status: 0 clean, 1 diagnostics found, 2 usage or load error.
// Interprocedural findings carry the full source→sink call chain, in the
// message and in the JSON "chain" field. Suppress a finding in place with
// a justified escape hatch:
//
//	//dhllint:allow <rule> -- <why this is safe>
//
// An allow that suppresses nothing is itself reported (rule unusedallow).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/lint"
)

type report struct {
	Module string `json:"module"`
	// GoMaxProcs records the host parallelism the worker pool defaulted
	// to, so single-core no-speedup runs are self-explaining in recorded
	// reports (see BENCH_sweep.json).
	GoMaxProcs  int               `json:"gomaxprocs"`
	Total       int               `json:"total"`
	Counts      map[string]int    `json:"counts"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
}

func main() {
	os.Exit(runCLI(os.Args[1:], os.Stdout, os.Stderr))
}

// runCLI is main with the process edges injected, so tests can drive the
// whole command without forking.
func runCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dhllint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit a JSON report instead of file:line:col lines")
		sarifOut = fs.Bool("sarif", false, "emit a SARIF 2.1.0 log (for GitHub code scanning)")
		rules    = fs.String("rules", "", "comma-separated rules to run (default: all)")
		disable  = fs.String("disable", "", "comma-separated rules to skip")
		list     = fs.Bool("list", false, "list available rules and exit")
		graph    = fs.Bool("graph", false, "dump the module call graph and exit")
		workers  = fs.Int("j", runtime.GOMAXPROCS(0), "analysis workers")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "dhllint: -json and -sarif are mutually exclusive")
		return 2
	}

	if *list {
		for _, r := range lint.Rules() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	root, modpath, err := findModule()
	if err != nil {
		fmt.Fprintln(stderr, "dhllint:", err)
		return 2
	}
	cfg := lint.DefaultConfig(root, modpath)
	cfg.Workers = *workers
	if cfg.Enabled, err = ruleSet(*rules, *disable); err != nil {
		fmt.Fprintln(stderr, "dhllint:", err)
		return 2
	}

	paths, err := targetPaths(fs.Args(), root, modpath)
	if err != nil {
		fmt.Fprintln(stderr, "dhllint:", err)
		return 2
	}

	if *graph {
		g, err := lint.Graph(cfg, paths)
		if err != nil {
			fmt.Fprintln(stderr, "dhllint:", err)
			return 2
		}
		g.Dump(stdout)
		return 0
	}

	diags, err := lint.Run(cfg, paths)
	if err != nil {
		fmt.Fprintln(stderr, "dhllint:", err)
		return 2
	}
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil {
			diags[i].File = filepath.ToSlash(rel)
		}
	}

	switch {
	case *jsonOut:
		r := report{Module: modpath, GoMaxProcs: runtime.GOMAXPROCS(0),
			Total: len(diags), Counts: map[string]int{}, Diagnostics: diags}
		if r.Diagnostics == nil {
			r.Diagnostics = []lint.Diagnostic{}
		}
		for _, d := range diags {
			r.Counts[d.Rule]++
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(stderr, "dhllint:", err)
			return 2
		}
	case *sarifOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sarifReport(diags)); err != nil {
			fmt.Fprintln(stderr, "dhllint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stdout, "dhllint: %d issue(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// ruleSet resolves -rules/-disable into the config's Enabled map,
// rejecting unknown rule names. The name set is lint.Rules(): the
// analyzers plus the module-level passes (purity, allocflow, lockcheck,
// lockorder, goescape, unusedallow) and the "allow" justification check.
func ruleSet(rules, disable string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, r := range lint.Rules() {
		known[r.Name] = true
	}
	check := func(names []string) error {
		for _, n := range names {
			if !known[n] {
				return fmt.Errorf("unknown rule %q (use -list)", n)
			}
		}
		return nil
	}
	if rules == "" && disable == "" {
		return nil, nil
	}
	enabled := map[string]bool{}
	if rules == "" {
		for name := range known {
			enabled[name] = true
		}
	} else {
		names := splitList(rules)
		if err := check(names); err != nil {
			return nil, err
		}
		for _, n := range names {
			enabled[n] = true
		}
	}
	names := splitList(disable)
	if err := check(names); err != nil {
		return nil, err
	}
	for _, n := range names {
		delete(enabled, n)
	}
	return enabled, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// findModule locates go.mod upward from the working directory and reads
// the module path.
func findModule() (root, modpath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// targetPaths maps command-line patterns to import paths. "./..." (or no
// arguments) selects every package in the module; other arguments name
// package directories.
func targetPaths(args []string, root, modpath string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		if arg == "./..." || arg == "..." || arg == "all" {
			pkgs, err := lint.ModulePackages(root, modpath)
			if err != nil {
				return nil, err
			}
			for _, p := range pkgs {
				add(p)
			}
			continue
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside the module", arg)
		}
		if rel == "." {
			add(modpath)
		} else {
			add(modpath + "/" + filepath.ToSlash(rel))
		}
	}
	sort.Strings(out)
	return out, nil
}
