package controlplane

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/dhlsys"
	"repro/internal/telemetry"
)

// vclock is a hand-cranked clock for deterministic admission tests.
type vclock struct {
	mu  sync.Mutex
	now time.Time
}

func newVclock() *vclock { return &vclock{now: time.Unix(0, 0)} }

func (v *vclock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

func (v *vclock) Advance(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
}

func newOverloadServer(t *testing.T, opt ServerOptions) *Server {
	t.Helper()
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// holdGate takes the simulation's admission slot like a long-running op
// would; the returned func hands it back.
func holdGate(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	tk, out := srv.adm.Arrive(admit.ClassIO, -1, srv.now())
	if !out.Admitted || out.Queued {
		t.Fatalf("gate not free: %+v", out)
	}
	return func() { srv.adm.Done(tk, srv.now()) }
}

// TestOverloadShedsWithRetryAfter drives the handler directly: with the
// simulation's slot held and the waiting room filling, further requests
// are shed with CodeServerBusy plus a positive retry hint — launches
// first (brownout), then everything (queue full) — while status reads
// keep answering from the cached snapshot.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	opt := DefaultServerOptions()
	opt.RequestTimeout = 300 * time.Millisecond
	opt.Admission = admit.Options{MaxQueue: 2, BrownoutFrac: 0.5}
	srv := newOverloadServer(t, opt)

	// Prime the snapshot cache, then saturate the simulation.
	if resp := srv.handle(1, Request{Op: OpStatus}); !resp.OK || resp.Stale {
		t.Fatalf("priming status = %+v", resp)
	}
	release := holdGate(t, srv)

	// One parked write takes the first queue slot, reaching the
	// brownout threshold (0.5 × 2).
	var wg sync.WaitGroup
	results := make([]Response, 2)
	park := func(i int, req Request) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = srv.handle(int64(10+i), req)
		}()
		waitFor(t, func() bool { return srv.adm.Snapshot().QueueDepth == i+1 })
	}
	park(0, Request{Op: OpWrite, Cart: 0, Bytes: 1e9})

	// Queue is at the brownout threshold: launches shed first.
	if resp := srv.handle(20, Request{Op: OpOpen, Cart: 0}); resp.Code != CodeServerBusy {
		t.Errorf("launch during brownout = %+v", resp)
	} else {
		if !strings.Contains(resp.Error, "brownout") {
			t.Errorf("want brownout reason, got %q", resp.Error)
		}
		if resp.RetryAfterS <= 0 {
			t.Errorf("shed response needs retry_after_s, got %v", resp.RetryAfterS)
		}
	}
	// IO still queues (slot 2 of 2)...
	park(1, Request{Op: OpRead, Cart: 0, Bytes: 1e9})
	// ...and the next IO request finds the room full.
	if resp := srv.handle(22, Request{Op: OpWrite, Cart: 0, Bytes: 1e9}); resp.Code != CodeServerBusy {
		t.Errorf("IO past queue cap = %+v", resp)
	} else if !strings.Contains(resp.Error, "queue-full") || resp.RetryAfterS <= 0 {
		t.Errorf("want queue-full reason with a hint, got %+v", resp)
	}

	// Status stays answerable from the cached snapshot.
	if resp := srv.handle(30, Request{Op: OpStatus}); !resp.OK || !resp.Stale {
		t.Errorf("status during saturation = %+v", resp)
	} else if resp.Stats == nil {
		t.Error("stale status must still carry stats")
	}

	// The parked handlers give up after RequestTimeout with busy + hint.
	wg.Wait()
	for i, r := range results {
		if r.Code != CodeServerBusy || r.RetryAfterS <= 0 {
			t.Errorf("parked handler %d = %+v", i, r)
		}
	}
	release()

	// Recovery: with the simulation free again, requests flow.
	if resp := srv.handle(40, Request{Op: OpOpen, Cart: 0}); !resp.OK {
		t.Errorf("post-overload open = %+v", resp)
	}
	st := srv.Admission()
	io := st.Classes[int(admit.ClassIO)]
	launch := st.Classes[int(admit.ClassLaunch)]
	if io.QueueFull != 1 || launch.Brownout != 1 {
		t.Errorf("admission ledger missing sheds: io=%+v launch=%+v", io, launch)
	}
	if io.Abandoned != 2 {
		t.Errorf("abandoned = %d, want 2 (the parked waiters)", io.Abandoned)
	}
	// Slot conservation: every ticket came back.
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("leaked slots: in_flight=%d queue_depth=%d", st.InFlight, st.QueueDepth)
	}
}

// TestFreshControlReadHoldsTheGate: a status read answered fresh holds
// the simulation's only slot, so a request arriving meanwhile queues
// behind it, and the ledger counts the control read as admitted.
func TestFreshControlReadHoldsTheGate(t *testing.T) {
	var srv *Server
	inside, proceed := make(chan struct{}), make(chan struct{})
	var blocked atomic.Bool
	opt := DefaultServerOptions()
	// The clock is read while the status read holds the slot (to stamp
	// the snapshot cache); pause there once so the test can interleave.
	opt.Clock = func() time.Time {
		if srv.adm.Snapshot().InFlight == 1 && blocked.CompareAndSwap(false, true) {
			close(inside)
			<-proceed
		}
		return time.Unix(0, 0)
	}
	srv = newOverloadServer(t, opt)

	status := make(chan Response, 1)
	go func() { status <- srv.handle(1, Request{Op: OpStatus}) }()
	<-inside
	open := make(chan Response, 1)
	go func() { open <- srv.handle(2, Request{Op: OpOpen, Cart: 0}) }()
	waitFor(t, func() bool { return srv.adm.Snapshot().QueueDepth == 1 })
	close(proceed)

	if resp := <-status; !resp.OK || resp.Stale {
		t.Errorf("status = %+v, want fresh", resp)
	}
	if resp := <-open; !resp.OK {
		t.Errorf("queued open = %+v", resp)
	}
	st := srv.Admission()
	ctl := st.Classes[int(admit.ClassControl)]
	launch := st.Classes[int(admit.ClassLaunch)]
	if ctl.Admitted != 1 || launch.Admitted != 1 || launch.Queued != 1 {
		t.Errorf("ledger: control=%+v launch=%+v", ctl, launch)
	}
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("leaked slots: %+v", st)
	}
}

// TestMaxInFlightAboveOneRejected: the simulation is single-threaded, so
// a second executor slot would only let requests race on it.
func TestMaxInFlightAboveOneRejected(t *testing.T) {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultServerOptions()
	opt.Admission.MaxInFlight = 2
	if _, err := NewServerWithOptions(sys, opt); err == nil || !strings.Contains(err.Error(), "MaxInFlight") {
		t.Errorf("MaxInFlight 2 accepted: err = %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRateLimitDeterministicOnVirtualClock pins the token bucket to an
// injected clock: same arrival times, same decisions, and the
// retry-after hint prices the token shortfall.
func TestRateLimitDeterministicOnVirtualClock(t *testing.T) {
	run := func() []string {
		clk := newVclock()
		opt := DefaultServerOptions()
		opt.Clock = clk.Now
		opt.Admission = admit.Options{MaxQueue: 4, Rate: 1, Burst: 1}
		srv := newOverloadServer(t, opt)
		var codes []string
		for i := 0; i < 6; i++ {
			resp := srv.handle(1, Request{Op: OpWrite, Cart: 0, Bytes: 1e9})
			codes = append(codes, resp.Code)
			clk.Advance(400 * time.Millisecond)
		}
		return codes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic admission at %d: %v vs %v", i, a, b)
		}
	}
	// Burst 1 at t=0, then one token every second against 2.5 req/s
	// offered: the bucket must shed some and admit some.
	var shed, admitted int
	for _, c := range a {
		if c == CodeServerBusy {
			shed++
		} else {
			admitted++
		}
	}
	if shed == 0 || admitted < 2 {
		t.Errorf("want a mix of sheds and admits, got %v", a)
	}
}

// TestControlBypassesRateLimit: an empty token bucket must not take
// status/metrics down with it.
func TestControlBypassesRateLimit(t *testing.T) {
	opt := DefaultServerOptions()
	opt.Admission = admit.Options{MaxQueue: 4, Rate: 0.001, Burst: 1}
	srv := newOverloadServer(t, opt)
	if resp := srv.handle(1, Request{Op: OpWrite, Cart: 0, Bytes: 1e9}); resp.Code == CodeServerBusy {
		t.Fatalf("first write should consume the only token, got %+v", resp)
	}
	if resp := srv.handle(1, Request{Op: OpWrite, Cart: 0, Bytes: 1e9}); resp.Code != CodeServerBusy {
		t.Fatalf("second write should be rate-limited, got %+v", resp)
	}
	if resp := srv.handle(1, Request{Op: OpStatus}); !resp.OK {
		t.Errorf("status must bypass the bucket: %+v", resp)
	}
	if resp := srv.handle(1, Request{Op: OpMetrics}); resp.Code == CodeServerBusy {
		t.Errorf("metrics must bypass the bucket: %+v", resp)
	}
}

// TestStaleMetricsServedDuringSaturation: the metrics op degrades to the
// cached Prometheus exposition instead of queueing behind the sim.
func TestStaleMetricsServedDuringSaturation(t *testing.T) {
	sysOpt := dhlsys.DefaultOptions()
	sysOpt.Telemetry = telemetry.NewSet()
	sys, err := dhlsys.New(sysOpt)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultServerOptions()
	opt.RequestTimeout = 100 * time.Millisecond
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resp := srv.handle(1, Request{Op: OpMetrics}); !resp.OK || resp.Stale {
		t.Fatalf("fresh metrics = %+v", resp)
	}
	defer holdGate(t, srv)()
	resp := srv.handle(1, Request{Op: OpMetrics})
	if !resp.OK || !resp.Stale || resp.Text == "" {
		t.Errorf("saturated metrics = %+v", resp)
	}
	if resp := srv.handle(1, Request{Op: OpStatus}); !resp.OK || !resp.Stale {
		t.Errorf("saturated status = %+v", resp)
	}
}

// TestColdCacheFallsBackToWaiting: before any snapshot exists, a control
// read during saturation queues (bounded) rather than fabricating data,
// and gives up busy once RequestTimeout expires.
func TestColdCacheFallsBackToWaiting(t *testing.T) {
	opt := DefaultServerOptions()
	opt.RequestTimeout = 80 * time.Millisecond
	srv := newOverloadServer(t, opt)
	defer holdGate(t, srv)()
	resp := srv.handle(1, Request{Op: OpStatus})
	if resp.OK || resp.Code != CodeServerBusy {
		t.Errorf("cold-cache saturated status = %+v", resp)
	}
	st := srv.Admission()
	if ctl := st.Classes[int(admit.ClassControl)]; ctl.Queued != 1 || ctl.Abandoned != 1 {
		t.Errorf("control ledger = %+v, want one queued and abandoned read", ctl)
	}
	if st.QueueDepth != 0 {
		t.Errorf("abandoned read left in the queue: %+v", st)
	}
}
