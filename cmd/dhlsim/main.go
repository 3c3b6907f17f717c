// Command dhlsim runs the event-driven DHL system simulation: a cart fleet
// shuttling a dataset between the library and an endpoint through the
// §III-D software API, with optional endpoint reads, dual-rail operation,
// in-flight SSD failure injection, and named chaos scenarios replayed
// byte-identically from a seed.
//
// Usage:
//
//	dhlsim [-dataset-pb N] [-carts N] [-docks N] [-dual] [-read]
//	       [-failure-rate F] [-seed N] [-raid5]
//	       [-chaos NAME] [-horizon S] [-fault-log] [-strict]
//	       [-timeout S] [-backoff S] [-failure-sweep R1,R2,...]
//	       [-metrics] [-trace-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//	dhlsim -campus [-campus-carts N] [-campus-trips N] [-campus-epoch S]
//	       [-campus-alpha F] [-campus-workers N] [-chaos campus-partition]
//	       [-fault-log] [-metrics] [-bench-out FILE] [-campus-study S1,S2,...]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dhlsys"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dhlsim: ")
	var (
		datasetPB = flag.Float64("dataset-pb", 2.56, "dataset size in PB")
		datasetS  = flag.String("dataset", "", "dataset size with units (e.g. \"512TB\", \"29PB\"); overrides -dataset-pb")
		carts     = flag.Int("carts", 2, "fleet size")
		docks     = flag.Int("docks", 4, "endpoint docking stations")
		dual      = flag.Bool("dual", false, "dual-rail track (§VI)")
		read      = flag.Bool("read", false, "read cart contents at the endpoint (enables pipelining study)")
		failRate  = flag.Float64("failure-rate", 0, "per-launch probability of an in-flight SSD failure")
		seed      = flag.Int64("seed", 1, "failure-injection and chaos-scenario RNG seed")
		raid5     = flag.Bool("raid5", false, "use RAID5 cart arrays (tolerates one in-flight failure)")
		chaos     = flag.String("chaos", "", "named chaos scenario: "+strings.Join(faults.ScenarioNames(), ", "))
		horizon   = flag.Float64("horizon", 0, "chaos fault horizon in seconds (0 = 1.1× the analytical transfer time)")
		faultLog  = flag.Bool("fault-log", false, "print the fault event log (byte-identical across replays of a seed)")
		strict    = flag.Bool("strict", false, "strict SSD mode: a RAID0 SSD failure fails the whole cart instead of degrading reads")
		timeoutS  = flag.Float64("timeout", 0, "launch timeout in seconds; slower launches report an error (0 = none)")
		backoffS  = flag.Float64("backoff", 0, "initial delivery retry backoff in seconds, doubling per failure (0 = immediate)")
		sweepSpec = flag.String("failure-sweep", "", "comma-separated failure rates: print the availability-vs-failure-rate table and exit")
		metrics   = flag.Bool("metrics", false, "collect telemetry and print the metrics summary and span rollup after the run")
		traceOut  = flag.String("trace-out", "", "collect telemetry and write a Chrome trace_event JSON file of the run")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")

		campus        = flag.Bool("campus", false, "run the campus tube-network simulation (internal/tubenet) instead of the shuttle")
		campusCarts   = flag.Int("campus-carts", 1000, "campus fleet size")
		campusTrips   = flag.Int("campus-trips", 2, "station-to-station trips per campus cart")
		campusEpoch   = flag.Float64("campus-epoch", 30, "congestion route-recompute period in seconds (0 = recompute only on faults)")
		campusAlpha   = flag.Float64("campus-alpha", 0.25, "queue-depth weight in the congestion-aware edge cost")
		campusWorkers = flag.Int("campus-workers", 1, "sweep workers for route recomputes and studies (output identical at any count)")
		campusStudy   = flag.String("campus-study", "", "comma-separated seeds: run the chaos-vs-calm campus replica study and exit (implies -campus)")
		benchOut      = flag.String("bench-out", "", "campus mode: write p50/p99 transit and reroute counts as benchmark JSON to this file")
	)
	flag.Parse()

	if *campus || *campusStudy != "" {
		runCampus(campusOptions{
			carts:    *campusCarts,
			trips:    *campusTrips,
			seed:     *seed,
			epoch:    *campusEpoch,
			alpha:    *campusAlpha,
			workers:  *campusWorkers,
			chaos:    *chaos,
			horizon:  *horizon,
			faultLog: *faultLog,
			metrics:  *metrics,
			benchOut: *benchOut,
			study:    *campusStudy,
		})
		return
	}
	if *benchOut != "" {
		log.Fatal("-bench-out is only meaningful with -campus")
	}
	if *datasetPB <= 0 {
		log.Fatalf("-dataset-pb must be positive, got %v", *datasetPB)
	}
	dataset := units.Bytes(*datasetPB) * units.PB
	if *datasetS != "" {
		var err error
		dataset, err = units.ParseBytes(*datasetS)
		if err != nil {
			log.Fatal(err)
		}
		if dataset <= 0 {
			log.Fatalf("-dataset must be positive, got %v", dataset)
		}
	}

	opt := dhlsys.DefaultOptions()
	opt.NumCarts = *carts
	opt.DockStations = *docks
	opt.FailureRate = *failRate
	opt.Seed = *seed
	opt.Recovery.StrictSSD = *strict
	opt.Recovery.LaunchTimeout = units.Seconds(*timeoutS)
	opt.Recovery.RetryBackoff = units.Seconds(*backoffS)
	if *dual {
		opt.RailMode = track.DualRail
	}
	if *raid5 {
		opt.RAID = storage.RAID5
	}

	an, err := core.Transfer(opt.Core, dataset)
	if err != nil {
		log.Fatal(err)
	}

	if *sweepSpec != "" {
		failureSweep(opt, dataset, *read, *sweepSpec)
		return
	}

	if *chaos != "" {
		h := units.Seconds(*horizon)
		if h <= 0 {
			h = an.Time * 1.1
		}
		script, err := faults.ScenarioDims(*chaos, *seed, h, opt.Dims())
		if err != nil {
			if errors.Is(err, faults.ErrUnknownScenario) {
				log.Fatal(unknownChaosMessage(err))
			}
			log.Fatal(err)
		}
		opt.Faults = &script
	}

	// Telemetry is opt-in: an uninstrumented run pays only nil checks.
	var set *telemetry.Set
	if *metrics || *traceOut != "" {
		set = telemetry.NewSet()
		opt.Telemetry = set
	}

	sys, err := dhlsys.New(opt)
	if err != nil {
		log.Fatal(err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	res, err := sys.Shuttle(dhlsys.ShuttleOptions{Dataset: dataset, ReadAtEndpoint: *read})
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()

	fmt.Printf("DHL system simulation: %v over %v (%d carts, %d docks, %v, read=%v)\n",
		dataset, opt.Core, opt.NumCarts, opt.DockStations, opt.RailMode, *read)
	fmt.Printf("  deliveries:        %d (+%d retries, %d degraded, %d timeouts)\n",
		res.Deliveries, res.Retries, res.DegradedDeliveries, res.Timeouts)
	fmt.Printf("  duration:          %v\n", res.Duration)
	fmt.Printf("  launch energy:     %v\n", res.Energy)
	fmt.Printf("  effective BW:      %v\n", res.EffectiveBandwidth())
	fmt.Printf("  launches/dock ops: %d / %d\n", st.Launches, st.DockOps)
	fmt.Printf("  bytes read:        %v\n", st.BytesRead)
	fmt.Printf("  failures injected: %d (API errors reported: %d)\n", st.FailuresSeen, len(res.FailureErrors))

	rep := sys.Report()
	if *chaos != "" || st.FailuresSeen > 0 {
		fmt.Printf("\nFault report (%s):\n", scenarioLabel(*chaos))
		fmt.Printf("  %v\n", rep)
		fmt.Printf("  degraded launches: %d  stalls: %d (+%vs delay)  reroutes: %d\n",
			st.DegradedLaunches, st.Stalls, float64(st.StallTime), st.Reroutes)
		fmt.Printf("  degraded reads:    %d (%v)  backoffs: %d (+%vs wait)\n",
			st.DegradedReads, st.DegradedBytes, st.Backoffs, float64(st.BackoffWait))
	}
	if *faultLog {
		fmt.Println("\nFault event log:")
		for _, line := range sys.FaultLog() {
			fmt.Println("  " + line)
		}
	}

	fmt.Printf("\nAnalytical model (sequential, no reads): %v, %v\n", an.Time, an.Energy)
	fmt.Printf("Simulated vs analytical duration: %.3fx\n", float64(res.Duration)/float64(an.Time))

	if *metrics {
		fmt.Println("\nTelemetry:")
		fmt.Print(telemetry.SummaryTable(sys.MetricsSnapshot()))
		if rollup := telemetry.SpanSummary(set.Spans); rollup != "" {
			fmt.Println()
			fmt.Print(rollup)
		}
	}
	if *traceOut != "" {
		b, err := telemetry.ChromeTrace(set.Spans)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nChrome trace (%d span-log entries) written to %s\n", set.Spans.Len(), *traceOut)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

func scenarioLabel(name string) string {
	if name == "" {
		return "stochastic only"
	}
	return "scenario " + name
}

// chaosScenarios pairs every valid -chaos value with its one-line
// description, in faults.ScenarioNames order (a unit test keeps the two in
// lockstep).
var chaosScenarios = []struct{ name, desc string }{
	{faults.ScenarioSSDStorm, "a burst of in-flight SSD deaths"},
	{faults.ScenarioLeakyTube, "repeated vacuum leaks of varying severity"},
	{faults.ScenarioBlockedTrack, "cart stalls and debris on the rail"},
	{faults.ScenarioBrownout, "LIM power losses and dock-station failures"},
	{faults.ScenarioRoughDay, "all of the above at once, at lower per-kind rates"},
	{faults.ScenarioCampusPartition, "junction and tube-segment failures carving a campus apart (-campus only)"},
}

// unknownChaosMessage renders the fatal message for an unrecognised -chaos
// value: the error itself plus one usage line per valid scenario.
func unknownChaosMessage(err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", err)
	b.WriteString("valid -chaos scenarios:\n")
	width := 0
	for _, s := range chaosScenarios {
		if len(s.name) > width {
			width = len(s.name)
		}
	}
	for _, s := range chaosScenarios {
		fmt.Fprintf(&b, "  %-*s  %s\n", width, s.name, s.desc)
	}
	b.WriteString("replay any scenario byte-identically with -chaos NAME -seed N")
	return b.String()
}

// failureSweep prints the availability-vs-failure-rate table: one fresh
// deterministic system per rate, same seed.
func failureSweep(opt dhlsys.Options, dataset units.Bytes, read bool, spec string) {
	fmt.Printf("Availability vs failure rate: %v, %d carts, %d docks, %v, read=%v, seed=%d\n",
		dataset, opt.NumCarts, opt.DockStations, opt.RAID, read, opt.Seed)
	fmt.Printf("%-10s %-12s %-9s %-10s %-10s %-14s %-14s\n",
		"rate", "deliveries", "retries", "degraded", "failures", "duration-s", "goodput-GB/s")
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		rate, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			log.Fatalf("-failure-sweep: bad rate %q: %v", tok, err)
		}
		o := opt
		o.FailureRate = rate
		sys, err := dhlsys.New(o)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Shuttle(dhlsys.ShuttleOptions{Dataset: dataset, ReadAtEndpoint: read})
		if err != nil {
			log.Fatalf("rate %v: %v", rate, err)
		}
		st := sys.Stats()
		goodput := float64(st.BytesRead) / float64(res.Duration) / 1e9
		if !read {
			goodput = float64(res.BytesDelivered) / float64(res.Duration) / 1e9
		}
		fmt.Printf("%-10.3g %-12d %-9d %-10d %-10d %-14.3f %-14.3f\n",
			rate, res.Deliveries, res.Retries, res.DegradedDeliveries,
			st.FailuresSeen, float64(res.Duration), goodput)
	}
}
