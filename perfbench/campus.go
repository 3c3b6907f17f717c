package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/tubenet"
)

// The campus-chaos workload: the dhlsim -campus defaults (1,000 carts × 2
// trips on the default 20-station campus, 30 s route epochs, α = 0.25,
// one router worker, telemetry off) under the campus-partition scenario
// over a 300 s fault horizon.
const (
	campusCarts    = 1000
	campusTrips    = 2
	campusEpoch    = 30
	campusAlpha    = 0.25
	campusHorizon  = 300
	campusScenario = faults.ScenarioCampusPartition
	// replicasPerRound campus runs make one round: the anchor replica and
	// replicasPerRound-1 replicas drawn from the reference pool by seed.
	// Drawing most of the pool keeps the seed-to-seed change in the mix
	// of replicas, and so in the work per round, to a few percent.
	replicasPerRound = 48
	// referencePool is the number of replica seeds (1..referencePool)
	// whose results campus_reference.json pins.
	referencePool = 64
	// anchorSeed's replica is the one BENCH_campus.json records; it runs
	// in every round.
	anchorSeed = 3
)

// The anchor replica's outcome as BENCH_campus.json records it.
const (
	anchorEvents   = 15578
	anchorEpochs   = 156
	anchorReroutes = 11
	anchorTrips    = 2000
)

// The campus layers' metrics, split into unit costs, which a serve
// workload's traced run measures on a campus probe round, and shares and
// counts, which describe a workload and read 0 where it runs no campus.
var (
	campusCosts = []string{
		"tubenet.router.epoch_us", "tubenet.router.recompute_us",
		"tubenet.dispatch.ns_per_event", "faults.transition_us",
	}
	campusCounts = []string{"tubenet.router.epochs", "tubenet.router.share", "tubenet.dispatch.share"}
)

// campusRef is the deterministic part of one replica's tubenet.Result.
type campusRef struct {
	Seed           int64   `json:"seed"`
	Events         int     `json:"events"`
	RouteEpochs    int     `json:"route_epochs"`
	TripsCompleted int     `json:"trips_completed"`
	TripsPending   int     `json:"trips_pending"`
	Reroutes       int     `json:"reroutes"`
	Loiters        int     `json:"loiters"`
	Stalls         int     `json:"stalls"`
	TransitP50S    float64 `json:"transit_p50_s"`
	TransitP99S    float64 `json:"transit_p99_s"`
}

func refOf(seed int64, r tubenet.Result) campusRef {
	return campusRef{
		Seed: seed, Events: r.Events, RouteEpochs: r.RouteEpochs,
		TripsCompleted: r.TripsCompleted, TripsPending: r.TripsPending,
		Reroutes: r.Reroutes, Loiters: r.Loiters, Stalls: r.Stalls,
		TransitP50S: float64(r.TransitP50), TransitP99S: float64(r.TransitP99),
	}
}

// same compares two references exactly, floats bit for bit.
func (a campusRef) same(b campusRef) bool {
	return a.Seed == b.Seed && a.Events == b.Events && a.RouteEpochs == b.RouteEpochs &&
		a.TripsCompleted == b.TripsCompleted && a.TripsPending == b.TripsPending &&
		a.Reroutes == b.Reroutes && a.Loiters == b.Loiters && a.Stalls == b.Stalls &&
		math.Float64bits(a.TransitP50S) == math.Float64bits(b.TransitP50S) &&
		math.Float64bits(a.TransitP99S) == math.Float64bits(b.TransitP99S)
}

// campusRefFile is campus_reference.json: the workload parameters and the
// results of every replica seed in the pool.
type campusRefFile struct {
	Carts        int         `json:"carts"`
	TripsPerCart int         `json:"trips_per_cart"`
	Scenario     string      `json:"scenario"`
	HorizonS     float64     `json:"horizon_s"`
	EpochS       float64     `json:"epoch_s"`
	Alpha        float64     `json:"alpha"`
	Replicas     []campusRef `json:"replicas"`
}

//go:embed campus_reference.json
var campusReferenceJSON []byte

// loadCampusReference parses the embedded reference and checks that it
// describes this workload and that its anchor replica is the one
// BENCH_campus.json records.
func loadCampusReference() (map[int64]campusRef, error) {
	var f campusRefFile
	if err := json.Unmarshal(campusReferenceJSON, &f); err != nil {
		return nil, fmt.Errorf("campus reference: %w", err)
	}
	if f.Carts != campusCarts || f.TripsPerCart != campusTrips || f.Scenario != campusScenario ||
		int(f.HorizonS) != campusHorizon || int(f.EpochS) != campusEpoch || int(f.Alpha*100) != int(campusAlpha*100) ||
		len(f.Replicas) != referencePool {
		return nil, fmt.Errorf("campus reference was made for another workload; regenerate it with -write-reference")
	}
	refs := make(map[int64]campusRef, len(f.Replicas))
	for _, r := range f.Replicas {
		refs[r.Seed] = r
	}
	if err := checkAnchor(refs[anchorSeed]); err != nil {
		return nil, err
	}
	return refs, nil
}

func checkAnchor(r campusRef) error {
	if r.Events != anchorEvents || r.RouteEpochs != anchorEpochs || r.Reroutes != anchorReroutes ||
		r.TripsCompleted != anchorTrips || r.TripsPending != 0 {
		return fmt.Errorf("campus reference seed %d: %d events, %d epochs, %d reroutes, %d trips; BENCH_campus.json records %d, %d, %d, %d",
			anchorSeed, r.Events, r.RouteEpochs, r.Reroutes, r.TripsCompleted,
			anchorEvents, anchorEpochs, anchorReroutes, anchorTrips)
	}
	return nil
}

// writeCampusReference reruns every pool replica and writes the reference
// file. Run it only when a change is meant to alter campus outcomes.
func writeCampusReference(path string) error {
	f := campusRefFile{
		Carts: campusCarts, TripsPerCart: campusTrips, Scenario: campusScenario,
		HorizonS: campusHorizon, EpochS: campusEpoch, Alpha: campusAlpha,
	}
	for seed := int64(1); seed <= referencePool; seed++ {
		c, err := newReplica(seed)
		if err != nil {
			return err
		}
		res, err := c.Run()
		if err != nil {
			return err
		}
		f.Replicas = append(f.Replicas, refOf(seed, res))
	}
	if err := checkAnchor(f.Replicas[anchorSeed-1]); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// newReplica builds one campus with its chaos injector armed: the
// topology, router, fleet and fault script, as dhlsim -campus does.
func newReplica(seed int64) (*tubenet.Campus, error) {
	c, err := tubenet.New(tubenet.Options{
		Carts:         campusCarts,
		TripsPerCart:  campusTrips,
		Seed:          seed,
		EpochEvery:    campusEpoch,
		Alpha:         campusAlpha,
		RouterWorkers: 1,
	})
	if err != nil {
		return nil, err
	}
	script, err := faults.ScenarioDims(campusScenario, seed, campusHorizon, c.Dims())
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(c.Engine(), c, script)
	if err != nil {
		return nil, err
	}
	if err := inj.Arm(); err != nil {
		return nil, err
	}
	return c, nil
}

// campusReplicaSeeds picks a round's replicas: the anchor first, then
// distinct pool seeds drawn from the workload seed.
func campusReplicaSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := []int64{anchorSeed}
	for _, i := range rng.Perm(referencePool) {
		if s := int64(i + 1); s != anchorSeed && len(seeds) < replicasPerRound {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// The layers the campus tracer attributes host time to.
const (
	layerRouter   = iota // route epochs and the initial route computation
	layerDispatch        // cart departures, arrivals, dwells and parking
	layerFaults          // fault injections and repairs, with their recomputes
	layerRoot            // the per-replica root span
	numLayers
)

// layerOf classifies a campus span by the layer whose code it runs.
func layerOf(name string) (int, error) {
	switch {
	case name == "campus.start" || name == "route-epoch":
		return layerRouter, nil
	case name == "campus-depart" || name == "campus-arrive" || name == "campus-dwell" || name == "campus-park":
		return layerDispatch, nil
	case strings.HasPrefix(name, "fault:") || strings.HasPrefix(name, "repair:"):
		return layerFaults, nil
	case name == "campus.run":
		return layerRoot, nil
	}
	return 0, fmt.Errorf("campus event %q belongs to no known layer", name)
}

type campusBench struct {
	cfg   config
	seeds []int64
	refs  map[int64]campusRef
	out   *outcome
	span  *spanLog
	// pending counts trips left unfinished over every replica run.
	pending int64

	// Untraced rounds.
	setup                        []float64 // per replica
	okRPS, p50, p90, msPer1k     []float64 // per round
	heapMB, allocPerOp, gcCycles []float64
	untracedS                    []float64
	// Traced rounds.
	layer   map[string][]float64
	tracedS []float64
}

func runCampus(cfg config) (*outcome, error) {
	refs, err := loadCampusReference()
	if err != nil {
		return nil, err
	}
	b := &campusBench{cfg: cfg, seeds: campusReplicaSeeds(cfg.seed), refs: refs, out: newOutcome(), layer: make(map[string][]float64)}
	b.out.params = map[string]any{
		"carts":              campusCarts,
		"trips_per_cart":     campusTrips,
		"scenario":           campusScenario,
		"horizon_s":          campusHorizon,
		"epoch_s":            campusEpoch,
		"alpha":              campusAlpha,
		"router_workers":     1,
		"telemetry":          false,
		"replica_seeds":      b.seeds,
		"replicas_per_round": replicasPerRound,
		"latency":            "wall time of one Campus.Run; p50/p90 per round, median over rounds",
	}
	if err := rounds(cfg, 4, b.round); err != nil {
		return nil, err
	}
	b.finish()
	if cfg.trace {
		p, err := serveProbe(cfg)
		if err != nil {
			return nil, err
		}
		b.out.borrow(p, serveCosts, serveCounts)
	}
	return b.out, nil
}

// campusProbe runs a warm-up and a traced round of the anchor replica
// alone, for the campus unit costs a serve workload's traced run reports.
func campusProbe(cfg config) (*outcome, error) {
	refs, err := loadCampusReference()
	if err != nil {
		return nil, err
	}
	b := &campusBench{cfg: cfg, seeds: []int64{anchorSeed}, refs: refs, out: newOutcome(), layer: make(map[string][]float64)}
	for _, kind := range []roundKind{warmUp, traced} {
		if err := b.round(kind); err != nil {
			return nil, fmt.Errorf("campus probe: %w", err)
		}
	}
	b.finish()
	return b.out, nil
}

// round runs every replica once: set-up timed per replica, then the run,
// whose result must match the reference exactly.
func (b *campusBench) round(kind roundKind) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var log *spanLog
	if kind == traced {
		if b.span == nil {
			b.span = newSpanLog()
		}
		log = b.span
		log.reset()
	}
	var (
		total          time.Duration
		events, epochs int
		setups, runs   []float64
		last           *tubenet.Campus
	)
	for j, seed := range b.seeds {
		t0 := time.Now()
		c, err := newReplica(seed)
		if err != nil {
			return err
		}
		setup := time.Since(t0)
		var finish func(end int64)
		if kind == traced {
			finish = traceCampus(log, c.Engine(), int64(j), b.cfg.epoch)
		}
		t1 := time.Now()
		res, err := c.Run()
		d := time.Since(t1)
		if finish != nil {
			finish(int64(t1.Add(d).Sub(b.cfg.epoch)))
		}
		if err != nil {
			return err
		}
		b.out.attempted++
		b.pending += int64(res.TripsPending)
		if got, want := refOf(seed, res), b.refs[seed]; !got.same(want) {
			b.out.failed++
			b.out.problem("replica seed %d: got %+v, reference %+v", seed, got, want)
		}
		total += d
		events += res.Events
		epochs += res.RouteEpochs
		setups = append(setups, setup.Seconds())
		runs = append(runs, float64(d.Nanoseconds())/1e3)
		last = c
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6
	runtime.KeepAlive(last)

	n := float64(len(b.seeds))
	switch kind {
	case warmUp:
		return nil
	case untraced:
		b.setup = append(b.setup, setups...)
		b.p50 = append(b.p50, quantile(runs, 0.50))
		b.p90 = append(b.p90, quantile(runs, 0.90))
		b.okRPS = append(b.okRPS, n/total.Seconds())
		b.msPer1k = append(b.msPer1k, total.Seconds()*1e3/n*1000/campusCarts)
		b.heapMB = append(b.heapMB, heapMB)
		b.allocPerOp = append(b.allocPerOp, float64(after.TotalAlloc-before.TotalAlloc)/n)
		b.gcCycles = append(b.gcCycles, float64(after.NumGC-before.NumGC))
		b.untracedS = append(b.untracedS, total.Seconds())
		return nil
	}
	b.tracedS = append(b.tracedS, total.Seconds())
	put := func(name string, v float64) { b.layer[name] = append(b.layer[name], v) }
	put("sim.events", float64(events))
	put("tubenet.router.epochs", float64(epochs))

	// Per-layer self time from the round's spans.
	self := log.selfTimes()
	var sum [numLayers]layerTime
	var all int64
	for id, name := range log.names {
		l, err := layerOf(name)
		if err != nil {
			return err
		}
		sum[l].selfNs += self[id].selfNs
		sum[l].count += self[id].count
		all += self[id].selfNs
	}
	epoch := selfOf(log, self, "route-epoch")
	put("tubenet.router.epoch_us", float64(epoch.selfNs)/float64(max(epoch.count, 1))/1e3)
	router, dispatch, flt := sum[layerRouter], sum[layerDispatch], sum[layerFaults]
	put("tubenet.router.share", float64(router.selfNs)/float64(all))
	put("tubenet.dispatch.ns_per_event", float64(dispatch.selfNs)/float64(max(dispatch.count, 1)))
	put("tubenet.dispatch.share", float64(dispatch.selfNs)/float64(all))
	put("faults.transition_us", float64(flt.selfNs)/float64(max(flt.count, 1))/1e3)
	put("sim.ns_per_event", float64(total.Nanoseconds())/float64(events))
	if b.out.spans == nil {
		b.out.spans = log.clone(maxWrittenSpans)
	}
	us, err := replayRecompute(b.cfg.seed)
	if err != nil {
		return err
	}
	put("tubenet.router.recompute_us", us)
	return nil
}

// traceCampus adds a tracer that turns the campus run into spans: one
// root per replica and, under it, one span per event covering the host
// time from that event firing to the next (the first child, campus.start,
// covers the initial route computation). finish closes the open spans.
func traceCampus(log *spanLog, eng *sim.Engine, req int64, epoch time.Time) (finish func(end int64)) {
	now := int64(time.Since(epoch))
	root := log.add(log.intern("campus.run"), -1, req, now, 0)
	open := log.add(log.intern("campus.start"), root, req, now, 0)
	eng.AddTracer(func(ev sim.Event) {
		t := int64(time.Since(epoch))
		log.spans[open].end = t
		open = log.add(log.intern(ev.Name), root, req, t, 0)
	})
	return func(end int64) {
		log.spans[open].end = end
		log.spans[root].end = end
	}
}

// replayRecompute times Router.Recompute directly on the default campus
// with every node and segment up and entry-queue depths drawn from the
// seed, in microseconds per recompute.
func replayRecompute(seed int64) (float64, error) {
	topo, err := tubenet.NewCampus(tubenet.DefaultCampusConfig())
	if err != nil {
		return 0, err
	}
	base, err := topo.TransitTimes(tubenet.DefaultCartMass, 0)
	if err != nil {
		return 0, err
	}
	r, err := tubenet.NewRouter(topo, base, campusAlpha, 1)
	if err != nil {
		return 0, err
	}
	live := tubenet.Liveness{NodeUp: make([]bool, topo.NumNodes()), EdgeUp: make([]bool, topo.NumEdges())}
	for i := range live.NodeUp {
		live.NodeUp[i] = true
	}
	for i := range live.EdgeUp {
		live.EdgeUp[i] = true
	}
	rng := rand.New(rand.NewSource(seed))
	queues := make([]int, topo.NumEdges())
	for i := range queues {
		queues[i] = rng.Intn(8)
	}
	ctx := context.Background()
	t := time.Now()
	for i := 0; i < replayReps; i++ {
		if err := r.Recompute(ctx, live, queues); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3 / replayReps, nil
}

// finish turns the rounds into the run's metrics.
func (b *campusBench) finish() {
	v := b.out.values
	v["setup_s"] = median(b.setup)
	v["ok_rps"] = median(b.okRPS)
	v["latency_p50_us"] = median(b.p50)
	v["latency_p90_us"] = median(b.p90)
	v["ms_per_1k_carts"] = median(b.msPer1k)
	v["live_heap_mb"] = median(b.heapMB)
	v["process.alloc_bytes_per_op"] = median(b.allocPerOp)
	v["process.gc_cycles"] = median(b.gcCycles)
	v["error_ratio"] = ratio(b.pending, b.out.attempted*campusCarts*campusTrips)
	for name, xs := range b.layer {
		v[name] = median(xs)
	}
	if len(b.tracedS) > 0 && len(b.untracedS) > 0 {
		v["trace.overhead_pct"] = (median(b.tracedS)/median(b.untracedS) - 1) * 100
	}
	b.out.params["rounds"] = len(b.okRPS)
	b.out.params["traced_rounds"] = len(b.tracedS)
	b.out.params["latency_samples"] = len(b.setup)
}
