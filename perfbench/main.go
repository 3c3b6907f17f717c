// Command perfbench is the repository's end-to-end benchmark. It drives
// the two long-running user paths from outside, through their public
// functions, and prints every metric by name and unit:
//
//   - serve-io and serve-observe run the §III-D control plane the way
//     cmd/dhlserve builds it (dhlsys.DefaultOptions with telemetry on,
//     controlplane.DefaultServerOptions) behind a loopback listener, and
//     load it closed-loop with one cpclient connection per cart;
//   - campus-chaos runs 1,000-cart campus replicas under the
//     campus-partition chaos scenario, as `dhlsim -campus` does.
//
// Usage:
//
//	perfbench -workload serve-io -seed 1 -seconds 10 -trace 0
//	perfbench -write-reference perfbench/campus_reference.json
//
// Each run repeats a fixed amount of work (a round) until -seconds have
// passed and reports medians over rounds. With -trace 0 it prints the
// end-to-end metrics; with -trace 1 it alternates untraced and traced
// rounds, prints the per-layer metrics, and writes the first traced
// round's spans to .bench_build/trace. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
// correctness check prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef declares one reported metric. The lists below mirror
// BENCHMARK.json; a run that fails to produce one of them is an error.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"live_heap_mb", "MB"},
}

// throughput is measured by every run and printed with the end-to-end
// metrics, but kept out of the result line: on a shared host its spread
// over ten runs reached 0.3–0.4 while the latency medians stayed under
// 0.21, and a metric in the result line is gated by a bound of at most
// 0.25.
var throughput = []metricDef{
	{"ok_rps", "1/s"},
	{"ms_per_1k_carts", "ms"},
}

var perLayer = []metricDef{
	{"error_ratio", "ratio"},
	{"controlplane.handle_us", "us"},
	{"controlplane.writes_per_resp", "count"},
	{"controlplane.write_us", "us"},
	{"controlplane.resp_bytes", "B"},
	{"controlplane.encode_ns", "ns"},
	{"controlplane.decode_ns", "ns"},
	{"controlplane.refresh_us", "us"},
	{"controlplane.stale_ratio", "ratio"},
	{"cpclient.self_us", "us"},
	{"cpclient.attempts_per_req", "count"},
	{"cpclient.redials", "count"},
	{"admit.queued_ratio", "ratio"},
	{"admit.shed", "count"},
	{"dhlsys.op_us.open", "us"},
	{"dhlsys.op_us.close", "us"},
	{"dhlsys.op_us.read", "us"},
	{"dhlsys.op_us.write", "us"},
	{"sim.events_per_req", "count"},
	{"telemetry.spans_per_req", "count"},
	{"telemetry.prom_text_us", "us"},
	{"tubenet.router.epochs", "count"},
	{"tubenet.router.epoch_us", "us"},
	{"tubenet.router.recompute_us", "us"},
	{"tubenet.router.share", "ratio"},
	{"tubenet.dispatch.ns_per_event", "ns"},
	{"tubenet.dispatch.share", "ratio"},
	{"faults.transition_us", "us"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"process.alloc_bytes_per_op", "B"},
	{"process.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// traceDir, relative to the repository root the benchmark runs from,
// receives a traced run's spans; it lies in the ignored build directory.
const traceDir = ".bench_build/trace"

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	epoch    time.Time // zero of every span timestamp
}

// outcome is what a workload hands back: counts, metric values by name,
// workload parameters for the manifest, correctness problems, and the
// spans of the first traced round.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	params            map[string]any
	problems          []string
	spans             *spanLog
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), params: make(map[string]any)}
}

// borrow completes a traced run's per-layer metrics for layers the
// workload does not run: their unit costs come from the traced probe
// round p of the other path, and their shares and counts, which describe
// the workload, read 0. The probe's operations and failures count as the
// run's own.
func (o *outcome) borrow(p *outcome, costs, counts []string) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
	for _, name := range costs {
		o.values[name] = p.values[name]
	}
	for _, name := range counts {
		o.values[name] = 0
	}
}

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"serve-io", func(cfg config) (*outcome, error) { return runServe(cfg, serveIO) }},
	{"serve-observe", func(cfg config) (*outcome, error) { return runServe(cfg, serveObserve) }},
	{"campus-chaos", runCampus},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-io, serve-observe or campus-chaos")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "how long to measure, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		refOut  = flag.String("write-reference", "", "recompute the campus reference results into this file and exit")
	)
	flag.Parse()
	if *refOut != "" {
		if err := writeCampusReference(*refOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds ≥ 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, epoch: time.Now()}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// report prints the manifest, a human summary, and the result line, and
// writes the traced round's spans.
func report(cfg config, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	man, err := json.Marshal(manifest(cfg, out.params))
	if err != nil {
		return err
	}
	fmt.Printf("manifest %s\n", man)
	for _, p := range out.problems {
		fmt.Printf("CORRECTNESS FAILURE: %s\n", p)
	}
	for _, d := range defs {
		fmt.Printf("%-32s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if !cfg.trace {
		for _, d := range throughput {
			fmt.Printf("%-32s %16.6g %s (not gated)\n", d.name, out.values[d.name], d.unit)
		}
	}
	if cfg.trace && out.spans != nil {
		path := filepath.Join(traceDir, cfg.workload+".spans.csv")
		if err := writeSpans(path, man, out.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d of %d written to %s\n", len(out.spans.spans), out.spans.total, path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// manifest records the host and build a result came from, and the
// workload's parameters, so every number traces to what produced it.
func manifest(cfg config, params map[string]any) map[string]any {
	commit, modified := "unknown (not built from a git checkout)", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       commit,
		"vcs_modified": modified,
		"params":       params,
	}
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// roundKind tells a round whether to keep its measurements and whether to
// trace. Every kind runs the correctness checks.
type roundKind int

const (
	warmUp   roundKind = iota // run and check, keep no measurement
	untraced                  // end-to-end and process measurements
	traced                    // per-layer measurements
)

// rounds drives a workload's round function: one warm-up round, then
// measured rounds until the run's seconds have passed (and at least
// minRounds ran). With tracing on, every second measured round is traced.
func rounds(cfg config, minRounds int, round func(roundKind) error) error {
	if err := round(warmUp); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		kind := untraced
		if cfg.trace && i%2 == 1 {
			kind = traced
		}
		if err := round(kind); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
	return nil
}
