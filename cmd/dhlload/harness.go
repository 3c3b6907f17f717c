package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/controlplane"
	"repro/internal/cpclient"
	"repro/internal/dhlsys"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// Config shapes one deterministic load run. Every field feeds the virtual
// clock or a seeded RNG; the same Config always produces a byte-identical
// Result (the determinism contract documented in DESIGN.md §11).
type Config struct {
	Mode     string  // "closed" or "open"
	Clients  int     // concurrent clients (closed) or connections (open)
	Duration float64 // virtual seconds of offered load
	Seed     int64

	// Closed-loop workload: each client cycles open → Ops×(read|write) →
	// close, thinking Think seconds between cycles.
	Think    float64
	Ops      int
	ReadFrac float64
	Bytes    float64

	// Open-loop workload: aggregate Poisson arrivals of IO requests at
	// Rate per second against pre-opened carts, shed or served but never
	// retried (the arrival schedule does not react to outcomes).
	Rate float64

	// Carts in the simulated fleet; 0 means one per client (closed) or 8
	// (open).
	Carts int

	// Chaos names a faults.Scenario composed into the run ("" disables).
	Chaos string

	// StatusEvery is the control-probe period in virtual seconds
	// (status reads modelling an operator dashboard); 0 disables.
	StatusEvery float64

	// RequestTimeout is how long an admitted request may wait in the
	// queue before its client abandons it (mirrors the server option).
	RequestTimeout float64

	// APICost and CtlCost are the fixed per-request overheads (seconds)
	// added to simulated op time for IO/launch and control work.
	APICost float64
	CtlCost float64

	Admission admit.Options
	Retry     cpclient.RetryOptions
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = "closed"
	}
	if c.Clients <= 0 {
		c.Clients = 100
	}
	if c.Duration <= 0 {
		c.Duration = 120
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Think < 0 {
		c.Think = 0
	}
	if c.Ops <= 0 {
		c.Ops = 4
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		c.ReadFrac = 0.5
	}
	if c.Bytes <= 0 {
		c.Bytes = 1e9
	}
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Carts <= 0 {
		if c.Mode == "open" {
			c.Carts = 8
		} else {
			c.Carts = c.Clients
		}
	}
	if c.StatusEvery < 0 {
		c.StatusEvery = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10
	}
	if c.APICost <= 0 {
		c.APICost = 200e-6
	}
	if c.CtlCost <= 0 {
		c.CtlCost = 50e-6
	}
	if c.Admission.MaxQueue == 0 {
		c.Admission.MaxQueue = 64
	}
	return c
}

// latencyBounds are the histogram buckets for end-to-end latency,
// log-spaced from 100µs to 500s.
var latencyBounds = []float64{
	1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
	0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
}

// Result is the deterministic outcome of one harness run.
type Result struct {
	Config Config `json:"config"`

	Issued       int `json:"issued"`
	OK           int `json:"ok"`
	Failed       int `json:"failed"`
	ShedBusy     int `json:"shed_busy"`
	Retries      int `json:"retries"`
	BudgetDenied int `json:"budget_denied"`
	QueueTimeout int `json:"queue_timeouts"`

	CtlProbes  int `json:"ctl_probes"`
	CtlFresh   int `json:"ctl_fresh"`
	CtlStale   int `json:"ctl_stale"`
	CtlDropped int `json:"ctl_dropped"`

	P50S        float64 `json:"p50_s"`
	P90S        float64 `json:"p90_s"`
	P99S        float64 `json:"p99_s"`
	MaxS        float64 `json:"max_s"`
	GoodputRPS  float64 `json:"goodput_rps"`
	OfferedRPS  float64 `json:"offered_rps"`
	Utilization float64 `json:"utilization"`

	Admission admit.Stats              `json:"admission"`
	SimTimeS  float64                  `json:"sim_time_s"`
	Launches  int                      `json:"launches"`
	BytesIO   float64                  `json:"bytes_io"`
	Faults    int                      `json:"faults_injected"`
	Latency   telemetry.HistogramPoint `json:"latency"`
}

// pending is one request parked in admit's waiting room: what to run
// when admit promotes its ticket, and the timeout to cancel then.
type pending struct {
	req     controlplane.Request
	deliver func(resp controlplane.Response)
	timeout sim.Handle
}

// harness replays the server's overload machinery on a virtual clock: a
// real dhlsys.System behind a real admit.Controller (the one gate, fed
// virtual timestamps), driven by its own sim.Engine. Single-threaded;
// every source of variation is a seeded RNG, so runs are
// byte-reproducible.
type harness struct {
	cfg    Config
	sys    *dhlsys.System
	adm    *admit.Controller
	budget *cpclient.Budget
	reg    *telemetry.Registry
	lat    *telemetry.Histogram

	eng     *sim.Engine
	waiting map[*admit.Ticket]*pending
	cacheOK bool

	res      Result
	busyTime float64 // executor busy seconds clipped to the horizon
}

func newHarness(cfg Config) (*harness, error) {
	cfg = cfg.withDefaults()
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = cfg.Carts
	opt.LibrarySlots = 0
	if cfg.Chaos != "" {
		script, err := faults.ScenarioDims(cfg.Chaos, cfg.Seed, units.Seconds(cfg.Duration), opt.Dims())
		if err != nil {
			return nil, err
		}
		opt.Faults = &script
	}
	sys, err := dhlsys.New(opt)
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg: cfg,
		sys: sys,
		adm: admit.New(cfg.Admission),
		// One retry budget for the whole fleet, scoped per server the way
		// cpclient documents; NewBudget applies the defaults.
		budget:  cpclient.NewBudget(cfg.Retry.BudgetBurst, cfg.Retry.BudgetPerSuccess),
		reg:     telemetry.NewRegistry(),
		eng:     sim.New(),
		waiting: make(map[*admit.Ticket]*pending),
	}
	h.lat = h.reg.Histogram("load_latency_s", latencyBounds)
	h.res.Config = cfg
	return h, nil
}

// now is the harness's virtual clock, in seconds.
func (h *harness) now() float64 { return float64(h.eng.Now()) }

// vt converts virtual seconds to the time.Time the admission controller
// expects. Epoch-anchored, so identical runs see identical timestamps.
func (h *harness) vt() time.Time {
	return time.Unix(0, 0).Add(time.Duration(h.now() * float64(time.Second)))
}

// schedule runs fn at virtual time at, clamped to now; ties fire in
// scheduling order.
func (h *harness) schedule(at float64, fn func()) sim.Handle {
	if at < h.now() {
		at = h.now()
	}
	ev, err := h.eng.At(units.Seconds(at), "dhlload", fn)
	if err != nil {
		panic(err) // unreachable: at is clamped and fn is never nil
	}
	return ev
}

// Run drives the event loop to completion and finalises the result.
func (h *harness) Run() (*Result, error) {
	switch h.cfg.Mode {
	case "closed":
		h.startClosedLoop()
	case "open":
		if err := h.startOpenLoop(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("dhlload: unknown mode %q", h.cfg.Mode)
	}
	if h.cfg.StatusEvery > 0 {
		h.schedule(h.cfg.StatusEvery, h.statusProbe)
	}
	if _, err := h.eng.Run(0); err != nil {
		return nil, err
	}
	h.finish()
	return &h.res, nil
}

// submit routes one request through the admission controller. deliver
// is invoked exactly once, at the virtual time the response reaches the
// client.
func (h *harness) submit(conn int64, req controlplane.Request, deliver func(controlplane.Response)) {
	h.res.Issued++
	tk, out := h.adm.Arrive(controlplane.ClassOf(req.Op), conn, h.vt())
	if !out.Admitted {
		h.res.ShedBusy++
		resp := controlplane.Response{
			OK:          false,
			Code:        controlplane.CodeServerBusy,
			Error:       "overloaded: " + out.Reason.String(),
			RetryAfterS: out.RetryAfter.Seconds(),
		}
		// The shed reply still crosses the wire: deliver after the API
		// overhead, not instantaneously.
		h.schedule(h.now()+h.cfg.APICost, func() { deliver(resp) })
		return
	}
	if !out.Queued {
		h.startService(tk, req, deliver)
		return
	}
	p := &pending{req: req, deliver: deliver}
	p.timeout = h.schedule(h.now()+h.cfg.RequestTimeout, func() {
		delete(h.waiting, tk)
		h.adm.Abandon(tk, h.vt())
		h.res.QueueTimeout++
		deliver(controlplane.Response{
			OK:          false,
			Code:        controlplane.CodeServerBusy,
			Error:       "overloaded: request timeout in queue",
			RetryAfterS: h.cfg.RequestTimeout,
		})
	})
	h.waiting[tk] = p
}

// startService runs one request's simulation op as its service begins
// (advancing sim time) and delivers the response when the virtual
// service interval elapses.
func (h *harness) startService(tk *admit.Ticket, req controlplane.Request, deliver func(controlplane.Response)) {
	resp := controlplane.ExecuteSim(h.sys, req)
	h.occupy(tk, resp.OpSeconds+h.cfg.APICost, func() { deliver(resp) })
}

// occupy holds tk's executor slot for service seconds. At the end it
// releases the slot, starts whichever waiter admit promotes into it,
// then runs after.
func (h *harness) occupy(tk *admit.Ticket, service float64, after func()) {
	start := h.now()
	end := start + service
	h.busyTime += clip(start, end, h.cfg.Duration)
	h.schedule(end, func() {
		h.cacheOK = true
		if next, _ := h.adm.Done(tk, h.vt()); next != nil {
			p := h.waiting[next]
			delete(h.waiting, next)
			h.eng.Cancel(p.timeout)
			h.startService(next, p.req, p.deliver)
		}
		after()
	})
}

// clip returns the part of [start, end) inside [0, horizon).
func clip(start, end, horizon float64) float64 {
	if start > horizon {
		start = horizon
	}
	if end > horizon {
		end = horizon
	}
	if end < start {
		return 0
	}
	return end - start
}

// statusProbe models an operator dashboard polling status: answered
// fresh when admit has a free slot (the read then holds it for its
// service time), from the snapshot cache when it is busy (the server's
// graceful-degradation path), dropped only before the first snapshot
// exists.
func (h *harness) statusProbe() {
	h.res.CtlProbes++
	if tk := h.adm.TryControl(h.vt()); tk != nil {
		h.occupy(tk, h.cfg.CtlCost+h.cfg.APICost, func() {})
		h.res.CtlFresh++
	} else if h.cacheOK {
		h.res.CtlStale++
	} else {
		h.res.CtlDropped++
	}
	if next := h.now() + h.cfg.StatusEvery; next < h.cfg.Duration {
		h.schedule(next, h.statusProbe)
	}
}

// loadClient is one closed-loop client: a state machine cycling
// open → Ops×IO → close with retry/budget behaviour borrowed from
// cpclient's pieces.
type loadClient struct {
	id      int64
	cart    int
	policy  *cpclient.Policy
	rng     *rand.Rand
	phase   int // 0 = open, 1..Ops = IO, Ops+1 = close
	retries int
	began   float64 // first-issue time of the in-flight logical request
}

func (h *harness) startClosedLoop() {
	stagger := h.cfg.Think / float64(h.cfg.Clients)
	if stagger <= 0 {
		stagger = 1e-3 / float64(h.cfg.Clients)
	}
	for i := 0; i < h.cfg.Clients; i++ {
		r := h.cfg.Retry
		r.Seed = h.cfg.Seed*1_000_003 + int64(i)
		c := &loadClient{
			id:     int64(i),
			cart:   i % h.cfg.Carts,
			policy: cpclient.NewPolicy(r),
			rng:    rand.New(rand.NewSource(h.cfg.Seed*7_919 + int64(i))),
		}
		h.schedule(float64(i)*stagger, func() { h.clientIssue(c) })
	}
}

func (c *loadClient) request(cfg Config) controlplane.Request {
	switch {
	case c.phase == 0:
		return controlplane.Request{Op: controlplane.OpOpen, Cart: c.cart}
	case c.phase <= cfg.Ops:
		op := controlplane.OpWrite
		if c.rng.Float64() < cfg.ReadFrac {
			op = controlplane.OpRead
		}
		return controlplane.Request{Op: op, Cart: c.cart, Bytes: cfg.Bytes}
	default:
		return controlplane.Request{Op: controlplane.OpClose, Cart: c.cart}
	}
}

// clientIssue sends the client's current request (first attempt).
func (h *harness) clientIssue(c *loadClient) {
	if h.now() >= h.cfg.Duration {
		return
	}
	c.retries = 0
	c.began = h.now()
	h.clientAttempt(c)
}

func (h *harness) clientAttempt(c *loadClient) {
	req := c.request(h.cfg)
	h.submit(c.id, req, func(resp controlplane.Response) { h.clientDone(c, resp) })
}

func (h *harness) clientDone(c *loadClient, resp controlplane.Response) {
	if resp.OK {
		h.res.OK++
		h.lat.Observe(h.now() - c.began)
		if l := h.now() - c.began; l > h.res.MaxS {
			h.res.MaxS = l
		}
		h.budget.Success()
		h.clientAdvance(c, true)
		return
	}
	if cpclient.RetryableCode(resp.Code) && c.retries+1 < c.policy.Attempts() {
		if h.budget.Withdraw() {
			c.retries++
			h.res.Retries++
			hint := time.Duration(resp.RetryAfterS * float64(time.Second))
			wait := c.policy.Backoff(c.retries, hint).Seconds()
			h.schedule(h.now()+wait, func() {
				if h.now() >= h.cfg.Duration {
					return
				}
				h.clientAttempt(c)
			})
			return
		}
		h.res.BudgetDenied++
	}
	h.res.Failed++
	h.clientAdvance(c, false)
}

// failureBackoff floors the pause after a terminal failure so a fleet of
// failing clients cannot degenerate into a zero-think busy loop.
const failureBackoff = 0.25

// clientAdvance moves the cycle forward: on success to the next op, on
// terminal failure back to a fresh cycle (the client's cart state is
// unknown, so it restarts with open — which converges either way).
func (h *harness) clientAdvance(c *loadClient, ok bool) {
	think := 0.0
	if ok {
		c.phase++
		if c.phase > h.cfg.Ops+1 {
			c.phase = 0
			think = h.cfg.Think
		}
	} else {
		c.phase = 0
		think = h.cfg.Think
		if think < failureBackoff {
			think = failureBackoff
		}
	}
	if h.now()+think >= h.cfg.Duration {
		return
	}
	h.schedule(h.now()+think, func() { h.clientIssue(c) })
}

// startOpenLoop pre-opens the fleet outside the measured window, then
// schedules Poisson arrivals of IO requests that never retry: the offered
// rate is the experiment's independent variable.
func (h *harness) startOpenLoop() error {
	for cart := 0; cart < h.cfg.Carts; cart++ {
		var opErr error
		h.sys.Open(track.CartID(cart), func(err error) { opErr = err })
		if _, err := h.sys.Run(); err != nil {
			return err
		}
		if opErr != nil {
			return fmt.Errorf("dhlload: pre-open cart %d: %w", cart, opErr)
		}
	}
	rng := rand.New(rand.NewSource(h.cfg.Seed))
	var arrive func()
	t := 0.0
	arrive = func() {
		if h.now() >= h.cfg.Duration {
			return
		}
		cart := rng.Intn(h.cfg.Carts)
		conn := int64(rng.Intn(h.cfg.Clients))
		op := controlplane.OpWrite
		if rng.Float64() < h.cfg.ReadFrac {
			op = controlplane.OpRead
		}
		began := h.now()
		h.submit(conn, controlplane.Request{Op: op, Cart: cart, Bytes: h.cfg.Bytes},
			func(resp controlplane.Response) {
				if resp.OK {
					h.res.OK++
					h.lat.Observe(h.now() - began)
					if l := h.now() - began; l > h.res.MaxS {
						h.res.MaxS = l
					}
				} else if resp.Code != controlplane.CodeServerBusy {
					h.res.Failed++
				}
			})
		// Exponential interarrival at the aggregate rate.
		t += -math.Log(1-rng.Float64()) / h.cfg.Rate
		if t < h.cfg.Duration {
			h.schedule(t, arrive)
		}
	}
	t = -math.Log(1-rng.Float64()) / h.cfg.Rate
	if t < h.cfg.Duration {
		h.schedule(t, arrive)
	}
	return nil
}

// finish folds the terminal state into the result.
func (h *harness) finish() {
	h.res.Admission = h.adm.Snapshot()
	snap := h.reg.Snapshot()
	h.res.Latency = snap.Histograms[0]
	h.res.P50S = telemetry.Quantile(h.res.Latency, 0.5)
	h.res.P90S = telemetry.Quantile(h.res.Latency, 0.9)
	h.res.P99S = telemetry.Quantile(h.res.Latency, 0.99)
	h.res.GoodputRPS = float64(h.res.OK) / h.cfg.Duration
	h.res.OfferedRPS = float64(h.res.Issued) / h.cfg.Duration
	h.res.Utilization = h.busyTime / h.cfg.Duration
	rep := h.sys.Report()
	h.res.SimTimeS = float64(h.sys.Engine.Now())
	h.res.Launches = rep.Stats.Launches
	h.res.BytesIO = float64(rep.Stats.BytesRead + rep.Stats.BytesWritten)
	h.res.Faults = rep.Faults.Total
}

// Report renders the result as a deterministic text table.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dhlload report: mode=%s clients=%d duration=%gs seed=%d carts=%d chaos=%q\n",
		r.Config.Mode, r.Config.Clients, r.Config.Duration, r.Config.Seed, r.Config.Carts, r.Config.Chaos)
	fmt.Fprintf(&b, "requests:  issued=%d ok=%d failed=%d shed_busy=%d queue_timeouts=%d retries=%d budget_denied=%d\n",
		r.Issued, r.OK, r.Failed, r.ShedBusy, r.QueueTimeout, r.Retries, r.BudgetDenied)
	fmt.Fprintf(&b, "control:   probes=%d fresh=%d stale=%d dropped=%d\n",
		r.CtlProbes, r.CtlFresh, r.CtlStale, r.CtlDropped)
	fmt.Fprintf(&b, "latency_s: p50=%.6g p90=%.6g p99=%.6g max=%.6g\n",
		r.P50S, r.P90S, r.P99S, r.MaxS)
	fmt.Fprintf(&b, "rates:     offered=%.6g/s goodput=%.6g/s utilization=%.4f\n",
		r.OfferedRPS, r.GoodputRPS, r.Utilization)
	b.WriteString("admission:\n")
	fmt.Fprintf(&b, "  %-8s %-9s %-8s %-10s %-10s %-9s %-9s %s\n",
		"class", "admitted", "queued", "rate-lim", "queue-full", "brownout", "per-conn", "abandoned")
	for _, c := range r.Admission.Classes {
		fmt.Fprintf(&b, "  %-8s %-9d %-8d %-10d %-10d %-9d %-9d %d\n",
			c.Class, c.Admitted, c.Queued, c.RateLimited, c.QueueFull, c.Brownout, c.PerConn, c.Abandoned)
	}
	fmt.Fprintf(&b, "sim:       time=%.6gs launches=%d bytes=%.6g faults=%d\n",
		r.SimTimeS, r.Launches, r.BytesIO, r.Faults)
	return b.String()
}
