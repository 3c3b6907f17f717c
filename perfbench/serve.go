package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/cpclient"
	"repro/internal/dhlsys"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// The control-plane layers' metrics, split into unit costs, which the
// campus workload's traced run measures on a serve probe round, and shares
// and counts, which describe a workload and read 0 where it serves nothing.
var (
	serveCosts = []string{
		"controlplane.handle_us", "controlplane.write_us", "controlplane.encode_ns",
		"controlplane.decode_ns", "controlplane.refresh_us", "cpclient.self_us",
		"dhlsys.op_us.open", "dhlsys.op_us.close", "dhlsys.op_us.read", "dhlsys.op_us.write",
		"telemetry.prom_text_us",
	}
	serveCounts = []string{
		"controlplane.writes_per_resp", "controlplane.resp_bytes", "controlplane.stale_ratio",
		"cpclient.attempts_per_req", "cpclient.redials", "admit.queued_ratio", "admit.shed",
		"sim.events_per_req", "telemetry.spans_per_req",
	}
)

// serveSpec is one control-plane workload: a closed loop in which each
// connection owns one cart and repeats cycle `cycles` times per round.
type serveSpec struct {
	name   string
	conns  int
	cycles int
	cycle  []controlplane.Op
}

var (
	serveIO = serveSpec{
		name: "serve-io", conns: 2, cycles: 1000,
		cycle: []controlplane.Op{
			controlplane.OpOpen, controlplane.OpWrite, controlplane.OpRead,
			controlplane.OpWrite, controlplane.OpRead, controlplane.OpClose,
		},
	}
	serveObserve = serveSpec{
		name: "serve-observe", conns: 2, cycles: 500,
		cycle: []controlplane.Op{
			controlplane.OpOpen, controlplane.OpWrite, controlplane.OpStatus,
			controlplane.OpRead, controlplane.OpMetrics, controlplane.OpClose,
		},
	}
)

const (
	gigabyte = 1e9
	// maxOpGB bounds one read or write. With the cycle counts above a
	// round writes at most 2×16 GB per cycle, far below a cart's 256 TB.
	maxOpGB = 16
	// maxCapture bounds the frames and replies a traced round keeps per
	// connection for the decode and encode replays.
	maxCapture = 4096
	// replayReps repeats the in-process replays of one snapshot or one
	// recompute, and codecReps the replays of a round's captured frames
	// and replies, so each is timed over milliseconds, not microseconds.
	replayReps = 200
	codecReps  = 10
	// probeCycles is the per-connection cycle count of the serve probe.
	probeCycles = 100
)

// connPlan is one connection's request sequence for a round. Sizes are
// whole gigabytes, so the byte sums the check compares are exact floats.
type connPlan struct {
	cart          int
	reqs          []controlplane.Request
	read, written float64
}

// planServe draws every connection's requests from the seed. Each read
// asks for no more than the cart holds, so no read is out of range.
func planServe(spec serveSpec, seed int64) ([]connPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]connPlan, spec.conns)
	for i := range plans {
		p := &plans[i]
		p.cart = i
		p.reqs = make([]controlplane.Request, 0, spec.cycles*len(spec.cycle))
		for c := 0; c < spec.cycles; c++ {
			for _, op := range spec.cycle {
				req := controlplane.Request{Op: op}
				switch op {
				case controlplane.OpOpen, controlplane.OpClose:
					req.Cart = p.cart
				case controlplane.OpWrite:
					req.Cart = p.cart
					req.Bytes = float64(1+rng.Intn(maxOpGB)) * gigabyte
					p.written += req.Bytes
				case controlplane.OpRead:
					held := min(int(p.written/gigabyte), maxOpGB)
					if held < 1 {
						return nil, fmt.Errorf("%s: cycle reads before it writes", spec.name)
					}
					req.Cart = p.cart
					req.Bytes = float64(1+rng.Intn(held)) * gigabyte
					p.read += req.Bytes
				}
				p.reqs = append(p.reqs, req)
			}
		}
	}
	return plans, nil
}

// serveConn is one load connection's per-round state. Its goroutine is
// its only writer until the round joins.
type serveConn struct {
	plan             *connPlan
	lat              []float64 // round-trip µs of each request
	ok, failed       int64
	control, stale   int64
	sendAt, recvAt   []int64 // traced: client-side request span per request
	replies          []controlplane.Response
	firstFailure     string
	firstFailureSeen bool
}

func (c *serveConn) reset() {
	c.ok, c.failed, c.control, c.stale = 0, 0, 0, 0
	c.sendAt, c.recvAt, c.replies = c.sendAt[:0], c.recvAt[:0], c.replies[:0]
	c.firstFailure, c.firstFailureSeen = "", false
}

// drive runs the connection's whole plan closed-loop: the next request is
// sent only when the previous reply has arrived.
func (c *serveConn) drive(cl *cpclient.Client, trace bool, epoch time.Time) {
	for k, req := range c.plan.reqs {
		t0 := time.Now()
		resp, err := cl.Do(req)
		t1 := time.Now()
		c.lat[k] = float64(t1.Sub(t0)) / float64(time.Microsecond)
		if err != nil || !resp.OK {
			c.failed++
			if !c.firstFailureSeen {
				c.firstFailureSeen = true
				c.firstFailure = fmt.Sprintf("%s cart %d: err=%v code=%q %s", req.Op, req.Cart, err, resp.Code, resp.Error)
			}
		} else {
			c.ok++
		}
		if req.Op == controlplane.OpStatus || req.Op == controlplane.OpMetrics {
			c.control++
			if resp.Stale {
				c.stale++
			}
		}
		if trace {
			c.sendAt = append(c.sendAt, int64(t0.Sub(epoch)))
			c.recvAt = append(c.recvAt, int64(t1.Sub(epoch)))
			if len(c.replies) < maxCapture {
				c.replies = append(c.replies, resp)
			}
		}
	}
}

// serveBench accumulates a serve workload's rounds.
type serveBench struct {
	cfg   config
	spec  serveSpec
	plans []connPlan
	conns []serveConn
	out   *outcome
	span  *spanLog

	// Untraced rounds: end-to-end samples and process counters.
	setup, okRPS, p50, p90, msPer1k, heapMB []float64
	allocPerOp, gcCycles, untracedLoad      []float64
	// Traced rounds: per-layer samples by metric name, and load times.
	layer      map[string][]float64
	tracedLoad []float64
	scratch    []float64
}

func newServeBench(cfg config, spec serveSpec) (*serveBench, error) {
	plans, err := planServe(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &serveBench{cfg: cfg, spec: spec, plans: plans, out: newOutcome(), layer: make(map[string][]float64)}
	b.conns = make([]serveConn, spec.conns)
	for i := range b.conns {
		b.conns[i] = serveConn{plan: &b.plans[i], lat: make([]float64, len(plans[i].reqs))}
	}
	b.scratch = make([]float64, 0, spec.conns*spec.cycles*len(spec.cycle))
	return b, nil
}

func runServe(cfg config, spec serveSpec) (*outcome, error) {
	b, err := newServeBench(cfg, spec)
	if err != nil {
		return nil, err
	}
	ops := make([]string, len(spec.cycle))
	for i, op := range spec.cycle {
		ops[i] = string(op)
	}
	b.out.params = map[string]any{
		"connections":                      spec.conns,
		"cycle":                            ops,
		"cycles_per_conn":                  spec.cycles,
		"requests_per_round":               spec.conns * spec.cycles * len(spec.cycle),
		"loop":                             "closed",
		"max_op_bytes":                     maxOpGB * gigabyte,
		"deployment":                       "dhlsys.DefaultOptions + telemetry",
		"server":                           "controlplane.DefaultServerOptions",
		"latency":                          "client-side round trip per request; p50/p90 per round, median over rounds",
		"bytes_written_per_cart_per_round": plansWritten(b.plans),
	}
	if err := rounds(cfg, 4, b.round); err != nil {
		return nil, err
	}
	b.finish()
	if cfg.trace {
		p, err := campusProbe(cfg)
		if err != nil {
			return nil, err
		}
		b.out.borrow(p, campusCosts, campusCounts)
	}
	return b.out, nil
}

// serveProbe runs a warm-up and a traced round of a small serve-io load,
// for the control-plane unit costs the campus workload's traced run
// reports.
func serveProbe(cfg config) (*outcome, error) {
	spec := serveIO
	spec.cycles = probeCycles
	b, err := newServeBench(cfg, spec)
	if err != nil {
		return nil, err
	}
	for _, kind := range []roundKind{warmUp, traced} {
		if err := b.round(kind); err != nil {
			return nil, fmt.Errorf("serve probe: %w", err)
		}
	}
	b.finish()
	return b.out, nil
}

func plansWritten(plans []connPlan) []float64 {
	w := make([]float64, len(plans))
	for i, p := range plans {
		w[i] = p.written
	}
	return w
}

// round builds a fresh deployment, server and connections (timed as set
// up), drives the fixed load, checks the deployment's counters against
// what was sent, and tears everything down.
func (b *serveBench) round(kind roundKind) (err error) {
	runtime.GC()
	t0 := time.Now()
	opt := dhlsys.DefaultOptions()
	opt.Telemetry = telemetry.NewSet()
	if b.spec.conns > opt.NumCarts {
		return fmt.Errorf("%d connections but a %d-cart fleet: each connection must own a cart", b.spec.conns, opt.NumCarts)
	}
	sys, err := dhlsys.New(opt)
	if err != nil {
		return err
	}
	for i := range b.plans {
		c, err := sys.Cart(track.CartID(b.plans[i].cart))
		if err != nil {
			return err
		}
		if capacity := float64(c.Array.Capacity()); b.plans[i].written > capacity {
			return fmt.Errorf("plan writes %.4g B to cart %d, which holds %.4g B", b.plans[i].written, i, capacity)
		}
	}
	srv, err := controlplane.NewServerWithOptions(sys, controlplane.DefaultServerOptions())
	if err != nil {
		return err
	}
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var tl *tracedListener
	var simEvents int64
	if kind == traced {
		tl = newTracedListener(ln, b.cfg.epoch, maxCapture)
		ln = tl
		sys.Engine.AddTracer(func(sim.Event) { simEvents++ })
	}
	srv.Serve(ln)
	clients := make([]*cpclient.Client, b.spec.conns)
	closed := false
	teardown := func() error {
		if closed {
			return nil
		}
		closed = true
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		return srv.Close()
	}
	defer func() {
		if cerr := teardown(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	budget := cpclient.NewBudget(0, 0)
	for i := range clients {
		// Dial one connection at a time, each finishing a status
		// exchange, so the server accepts them in client order.
		clients[i] = cpclient.New(cpclient.Options{
			Addr:   ln.Addr().String(),
			Budget: budget,
			Retry:  cpclient.RetryOptions{Seed: b.cfg.seed*1_000_003 + int64(i)},
		})
		resp, err := clients[i].Status()
		if err != nil || !resp.OK {
			return fmt.Errorf("set-up status on connection %d: err=%v code=%q", i, err, resp.Code)
		}
	}
	setup := time.Since(t0)

	for i := range b.conns {
		b.conns[i].reset()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range clients {
		c, cl := &b.conns[i], clients[i]
		wg.Add(1)
		//dhllint:allow goroutine -- one closed-loop load connection per cart; joined by wg.Wait below
		go func() {
			defer wg.Done()
			<-start
			c.drive(cl, kind == traced, b.cfg.epoch)
		}()
	}
	tLoad := time.Now()
	close(start)
	wg.Wait()
	load := time.Since(tLoad)
	runtime.ReadMemStats(&after)

	var ok, failed, requests int64
	for i := range b.conns {
		c := &b.conns[i]
		ok += c.ok
		failed += c.failed
		requests += int64(len(c.plan.reqs))
		if c.failed > 0 {
			b.out.problem("connection %d: %d failed requests, first: %s", i, c.failed, c.firstFailure)
		}
	}
	b.out.attempted += requests
	b.out.failed += failed
	b.check(clients[0])

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6
	runtime.KeepAlive(sys)

	switch kind {
	case warmUp:
		return nil
	case untraced:
		b.scratch = b.scratch[:0]
		for i := range b.conns {
			b.scratch = append(b.scratch, b.conns[i].lat...)
		}
		b.setup = append(b.setup, setup.Seconds())
		b.okRPS = append(b.okRPS, float64(ok)/load.Seconds())
		b.p50 = append(b.p50, quantile(b.scratch, 0.50))
		b.p90 = append(b.p90, quantile(b.scratch, 0.90))
		b.msPer1k = append(b.msPer1k, load.Seconds()*1e3*1000/float64(b.spec.conns*b.spec.cycles))
		b.heapMB = append(b.heapMB, heapMB)
		b.allocPerOp = append(b.allocPerOp, float64(after.TotalAlloc-before.TotalAlloc)/float64(requests))
		b.gcCycles = append(b.gcCycles, float64(after.NumGC-before.NumGC))
		b.untracedLoad = append(b.untracedLoad, load.Seconds())
		return nil
	}
	b.tracedLoad = append(b.tracedLoad, load.Seconds())
	if err := teardown(); err != nil {
		return err
	}
	return b.layers(sys, srv, tl, clients, requests, simEvents)
}

// check compares the deployment's status counters with what the round
// sent: every cycle launches its cart twice, and the byte counters equal
// the sums of the reads and writes.
func (b *serveBench) check(cl *cpclient.Client) {
	resp, err := cl.Status()
	if err != nil || !resp.OK || resp.Stats == nil {
		b.out.problem("final status failed: err=%v code=%q", err, resp.Code)
		return
	}
	st := resp.Stats
	var read, written float64
	for _, p := range b.plans {
		read += p.read
		written += p.written
	}
	if want := 2 * b.spec.conns * b.spec.cycles; st.Launches != want {
		b.out.problem("status launches = %d, want %d", st.Launches, want)
	}
	if int64(st.BytesRead) != int64(read) || int64(st.BytesWritten) != int64(written) {
		b.out.problem("status bytes read/written = %.0f/%.0f, want %.0f/%.0f", st.BytesRead, st.BytesWritten, read, written)
	}
	if st.FailuresSeen != 0 || st.Denied != 0 {
		b.out.problem("status reports %d failures and %d denied requests, want none", st.FailuresSeen, st.Denied)
	}
}

// layers derives a traced round's per-layer numbers: spans at the client
// and server boundaries, the server's admission ledger, and timed replays
// of the round's frames, replies and op sequence through each layer's
// public functions.
func (b *serveBench) layers(sys *dhlsys.System, srv *controlplane.Server, tl *tracedListener,
	clients []*cpclient.Client, requests, simEvents int64) error {
	put := func(name string, v float64) { b.layer[name] = append(b.layer[name], v) }

	// Spans: each client request is a root; the server-side handling
	// (frame read to start of the reply write) and each reply write are
	// its children. Frame 0 on every connection is the set-up status.
	if b.span == nil {
		b.span = newSpanLog()
	}
	log := b.span
	log.reset()
	reqName, handleName, writeName := log.intern("cpclient.request"), log.intern("controlplane.handle"), log.intern("controlplane.write")
	accepted := tl.accepted()
	if len(accepted) != len(clients) {
		return fmt.Errorf("server accepted %d connections for %d clients", len(accepted), len(clients))
	}
	var frames, writes, written int64
	var captured [][]byte
	for i, tc := range accepted {
		c := &b.conns[i]
		if len(tc.frameAt) < len(c.sendAt)+1 {
			return fmt.Errorf("connection %d: server saw %d frames for %d requests", i, len(tc.frameAt), len(c.sendAt))
		}
		frames += int64(len(tc.frameAt))
		writes += int64(len(tc.writes))
		for _, w := range tc.writes {
			written += int64(w.bytes)
		}
		captured = append(captured, tc.frames...)
		w := 0
		for k := range c.sendAt {
			f := k + 1
			req := int64(i)<<32 | int64(k)
			root := log.add(reqName, -1, req, c.sendAt[k], c.recvAt[k])
			for w < len(tc.writes) && tc.writes[w].start < tc.frameAt[f] {
				w++
			}
			if w < len(tc.writes) {
				log.add(handleName, root, req, tc.frameAt[f], tc.writes[w].start)
			}
			for ; w < len(tc.writes) && (f+1 >= len(tc.frameAt) || tc.writes[w].start < tc.frameAt[f+1]); w++ {
				log.add(writeName, root, req, tc.writes[w].start, tc.writes[w].end)
			}
		}
	}
	self := log.selfTimes()
	mean := func(name string, unit time.Duration) float64 {
		lt := selfOf(log, self, name)
		if lt.count == 0 {
			return 0
		}
		return float64(lt.selfNs) / float64(lt.count) / float64(unit)
	}
	put("controlplane.handle_us", mean("controlplane.handle", time.Microsecond))
	put("controlplane.write_us", mean("controlplane.write", time.Microsecond))
	put("cpclient.self_us", mean("cpclient.request", time.Microsecond))
	put("controlplane.writes_per_resp", float64(writes)/float64(frames))
	put("controlplane.resp_bytes", float64(written)/float64(frames))
	if b.out.spans == nil {
		b.out.spans = log.clone(maxWrittenSpans)
	}

	// Decode and encode replays over the captured frames and replies.
	t := time.Now()
	for r := 0; r < codecReps; r++ {
		for _, f := range captured {
			if _, err := controlplane.DecodeRequest(f); err != nil {
				return fmt.Errorf("decode replay: %w", err)
			}
		}
	}
	put("controlplane.decode_ns", float64(time.Since(t).Nanoseconds())/float64(len(captured)*codecReps))
	var replies []controlplane.Response
	for i := range b.conns {
		replies = append(replies, b.conns[i].replies...)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	t = time.Now()
	for r := 0; r < codecReps; r++ {
		for _, resp := range replies {
			buf.Reset()
			if err := enc.Encode(resp); err != nil {
				return fmt.Errorf("encode replay: %w", err)
			}
		}
	}
	put("controlplane.encode_ns", float64(time.Since(t).Nanoseconds())/float64(len(replies)*codecReps))

	// The snapshot work the server does after every request, and the
	// Prometheus rendering of a metrics reply, on the round's deployment.
	t = time.Now()
	for r := 0; r < replayReps; r++ {
		_ = sys.Report()
		_ = sys.MetricsSnapshot()
	}
	put("controlplane.refresh_us", float64(time.Since(t).Nanoseconds())/1e3/replayReps)
	snap := sys.MetricsSnapshot()
	t = time.Now()
	for r := 0; r < replayReps; r++ {
		_ = telemetry.PrometheusText(snap)
	}
	put("telemetry.prom_text_us", float64(time.Since(t).Nanoseconds())/1e3/replayReps)
	put("telemetry.spans_per_req", float64(sys.Telemetry().Spans.NumSpans())/float64(requests))
	put("sim.events_per_req", float64(simEvents)/float64(requests))
	put("sim.events", float64(simEvents))

	var control, stale int64
	for i := range b.conns {
		control += b.conns[i].control
		stale += b.conns[i].stale
	}
	put("controlplane.stale_ratio", ratio(stale, control))

	adm := srv.Admission()
	var admitted, queued, shed uint64
	for _, cl := range adm.Classes {
		admitted += cl.Admitted
		queued += cl.Queued
		shed += cl.Shed()
	}
	put("admit.queued_ratio", ratio(int64(queued), int64(admitted)))
	put("admit.shed", float64(shed))

	var st cpclient.Stats
	for _, cl := range clients {
		s := cl.Stats()
		st.Requests += s.Requests
		st.Attempts += s.Attempts
		st.Redials += s.Redials
	}
	put("cpclient.attempts_per_req", ratio(int64(st.Attempts), int64(st.Requests)))
	put("cpclient.redials", float64(st.Redials))

	return b.replayOps(put)
}

// replayOps replays the round's op sequence straight into a fresh
// deployment, timing each dhlsys API call plus the simulation run that
// completes it — the simulation's share of a request without the server.
func (b *serveBench) replayOps(put func(string, float64)) error {
	opt := dhlsys.DefaultOptions()
	opt.Telemetry = telemetry.NewSet()
	sys, err := dhlsys.New(opt)
	if err != nil {
		return err
	}
	var total time.Duration
	sum := map[controlplane.Op]time.Duration{}
	n := map[controlplane.Op]int{}
	for _, p := range b.plans {
		for _, req := range p.reqs {
			var opErr error
			id := track.CartID(req.Cart)
			t := time.Now()
			switch req.Op {
			case controlplane.OpOpen:
				sys.Open(id, func(err error) { opErr = err })
			case controlplane.OpClose:
				sys.Close(id, func(err error) { opErr = err })
			case controlplane.OpRead:
				sys.Read(id, units.Bytes(req.Bytes), func(_ units.Seconds, err error) { opErr = err })
			case controlplane.OpWrite:
				sys.Write(id, units.Bytes(req.Bytes), func(_ units.Seconds, err error) { opErr = err })
			default:
				continue
			}
			if _, err := sys.Run(); err != nil {
				return fmt.Errorf("op replay: %w", err)
			}
			d := time.Since(t)
			if opErr != nil {
				return fmt.Errorf("op replay: %s cart %d: %w", req.Op, req.Cart, opErr)
			}
			sum[req.Op] += d
			n[req.Op]++
			total += d
		}
	}
	for _, op := range []controlplane.Op{controlplane.OpOpen, controlplane.OpClose, controlplane.OpRead, controlplane.OpWrite} {
		put("dhlsys.op_us."+string(op), float64(sum[op].Nanoseconds())/1e3/float64(max(n[op], 1)))
	}
	put("sim.ns_per_event", float64(total.Nanoseconds())/float64(sys.Engine.Processed()))
	return nil
}

// finish turns the rounds into the run's metrics.
func (b *serveBench) finish() {
	v := b.out.values
	v["setup_s"] = median(b.setup)
	v["ok_rps"] = median(b.okRPS)
	v["latency_p50_us"] = median(b.p50)
	v["latency_p90_us"] = median(b.p90)
	v["ms_per_1k_carts"] = median(b.msPer1k)
	v["live_heap_mb"] = median(b.heapMB)
	v["error_ratio"] = ratio(b.out.failed, b.out.attempted)
	v["process.alloc_bytes_per_op"] = median(b.allocPerOp)
	v["process.gc_cycles"] = median(b.gcCycles)
	for name, xs := range b.layer {
		v[name] = median(xs)
	}
	if len(b.tracedLoad) > 0 && len(b.untracedLoad) > 0 {
		v["trace.overhead_pct"] = (median(b.tracedLoad)/median(b.untracedLoad) - 1) * 100
	}
	b.out.params["rounds"] = len(b.setup)
	b.out.params["traced_rounds"] = len(b.tracedLoad)
	b.out.params["latency_samples"] = len(b.setup) * cap(b.scratch)
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
