package admit

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// at is a virtual clock helper: seconds past an arbitrary epoch.
func at(s float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(s * float64(time.Second)))
}

func TestDefaults(t *testing.T) {
	c := New(Options{})
	o := c.Options()
	if o.MaxInFlight != 1 || o.MaxQueue != 64 {
		t.Errorf("defaults: %+v", o)
	}
	if o.BrownoutFrac != 0.5 || o.RetryAfterMin != 50*time.Millisecond {
		t.Errorf("defaults: %+v", o)
	}
}

func TestImmediateAdmissionThenQueueThenShed(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 2})
	now := at(0)

	t1, o1 := c.Arrive(ClassIO, 1, now)
	if !o1.Admitted || o1.Queued || t1 == nil {
		t.Fatalf("first arrival should run immediately: %+v", o1)
	}
	t2, o2 := c.Arrive(ClassIO, 2, now)
	if !o2.Admitted || !o2.Queued {
		t.Fatalf("second arrival should queue: %+v", o2)
	}
	_, o3 := c.Arrive(ClassIO, 3, now)
	if !o3.Admitted || !o3.Queued {
		t.Fatalf("third arrival should queue: %+v", o3)
	}
	tk4, o4 := c.Arrive(ClassIO, 4, now)
	if o4.Admitted || tk4 != nil {
		t.Fatalf("fourth arrival should shed: %+v", o4)
	}
	if o4.Reason != ReasonQueueFull {
		t.Errorf("reason = %v, want queue-full", o4.Reason)
	}
	if o4.RetryAfter <= 0 {
		t.Errorf("shed outcome must carry a retry-after hint, got %v", o4.RetryAfter)
	}

	// Finishing the runner promotes the oldest waiter; room opens up.
	next, err := c.Done(t1, at(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if next != t2 {
		t.Fatalf("Done promoted %p, want the oldest waiter %p", next, t2)
	}
	select {
	case <-t2.Ready():
	default:
		t.Fatal("promoted ticket's Ready channel still open")
	}
	_, o5 := c.Arrive(ClassIO, 5, at(0.2))
	if !o5.Admitted {
		t.Fatalf("slot freed, arrival should queue again: %+v", o5)
	}
	s := c.Snapshot()
	if s.InFlight != 1 || s.QueueDepth != 2 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestRetryAfterGrowsWithBacklog(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 100, ServiceTimeHint: time.Second})
	now := at(0)
	c.Arrive(ClassIO, -1, now) // running
	var prev time.Duration
	for i := 0; i < 20; i++ {
		c.Arrive(ClassIO, -1, now) // queue up
	}
	// Shed probes at increasing depth must see non-decreasing hints.
	c2 := New(Options{MaxInFlight: 1, MaxQueue: 5, ServiceTimeHint: time.Second})
	c2.Arrive(ClassIO, -1, now)
	for i := 0; i < 5; i++ {
		c2.Arrive(ClassIO, -1, now)
		_, o := c2.Arrive(ClassControl, -1, now)
		if o.Admitted {
			continue
		}
		if o.RetryAfter < prev {
			t.Errorf("retry-after shrank with deeper queue: %v -> %v", prev, o.RetryAfter)
		}
		prev = o.RetryAfter
	}
	_, o := c.Arrive(ClassIO, -1, now)
	if !o.Admitted {
		t.Fatalf("queue of 100 should still admit: %+v", o)
	}
}

func TestTokenBucketDeterministic(t *testing.T) {
	run := func() []bool {
		c := New(Options{MaxInFlight: 10, MaxQueue: 10, Rate: 2, Burst: 2})
		var got []bool
		// 10 arrivals at 0.25s spacing against a 2/s bucket of burst 2.
		for i := 0; i < 10; i++ {
			tk, o := c.Arrive(ClassIO, -1, at(float64(i)*0.25))
			got = append(got, o.Admitted)
			if tk != nil {
				c.Done(tk, at(float64(i)*0.25+0.01))
			}
		}
		return got
	}
	a, b := run(), run()
	admitted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("token bucket nondeterministic at %d: %v vs %v", i, a, b)
		}
		if a[i] {
			admitted++
		}
	}
	// Burst 2 up front plus 2/s over 2.25s of arrivals: 6–7 admits.
	if admitted < 5 || admitted > 8 {
		t.Errorf("admitted %d of 10, want ~6-7: %v", admitted, a)
	}
}

func TestControlClassBypassesRateLimit(t *testing.T) {
	c := New(Options{MaxInFlight: 100, MaxQueue: 10, Rate: 1, Burst: 1})
	now := at(0)
	c.Arrive(ClassIO, -1, now) // drains the only token
	if _, o := c.Arrive(ClassIO, -1, now); o.Admitted {
		t.Fatal("bucket empty, IO should shed")
	} else if o.Reason != ReasonRateLimited {
		t.Errorf("reason = %v", o.Reason)
	}
	if _, o := c.Arrive(ClassControl, -1, now); !o.Admitted {
		t.Errorf("control reads must bypass the bucket: %+v", o)
	}
}

func TestBrownoutShedsLaunchFirst(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 10, BrownoutFrac: 0.5})
	now := at(0)
	c.Arrive(ClassIO, -1, now) // running
	for i := 0; i < 5; i++ {   // queue to the brownout threshold
		if _, o := c.Arrive(ClassIO, -1, now); !o.Admitted {
			t.Fatalf("fill %d: %+v", i, o)
		}
	}
	if _, o := c.Arrive(ClassLaunch, -1, now); o.Admitted {
		t.Fatal("launch should shed in brownout")
	} else if o.Reason != ReasonBrownout {
		t.Errorf("reason = %v, want brownout", o.Reason)
	}
	if _, o := c.Arrive(ClassIO, -1, now); !o.Admitted {
		t.Errorf("IO should still queue during brownout: %+v", o)
	}
	if _, o := c.Arrive(ClassControl, -1, now); !o.Admitted {
		t.Errorf("control should still queue during brownout: %+v", o)
	}
	if !c.Snapshot().Brownout {
		t.Error("snapshot should report brownout")
	}
}

func TestPerConnCap(t *testing.T) {
	c := New(Options{MaxInFlight: 10, MaxQueue: 10, PerConn: 2})
	now := at(0)
	t1, _ := c.Arrive(ClassIO, 7, now)
	c.Arrive(ClassIO, 7, now)
	if _, o := c.Arrive(ClassIO, 7, now); o.Admitted {
		t.Fatal("third outstanding request on conn 7 should shed")
	} else if o.Reason != ReasonPerConn {
		t.Errorf("reason = %v", o.Reason)
	}
	// Other connections are unaffected.
	if _, o := c.Arrive(ClassIO, 8, now); !o.Admitted {
		t.Errorf("conn 8 should admit: %+v", o)
	}
	// Finishing one frees the slot.
	c.Done(t1, at(0.1))
	if _, o := c.Arrive(ClassIO, 7, now); !o.Admitted {
		t.Errorf("slot freed, conn 7 should admit: %+v", o)
	}
}

func TestAbandonReleasesQueueSlot(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 1})
	now := at(0)
	c.Arrive(ClassIO, -1, now)
	tq, o := c.Arrive(ClassIO, -1, now)
	if !o.Queued {
		t.Fatalf("should queue: %+v", o)
	}
	if _, o := c.Arrive(ClassIO, -1, now); o.Admitted {
		t.Fatal("queue full")
	}
	if next, err := c.Abandon(tq, now); err != nil || next != nil {
		t.Fatalf("abandon queued = %v, %v", next, err)
	}
	if _, o := c.Arrive(ClassIO, -1, now); !o.Admitted {
		t.Errorf("abandon should free the queue slot: %+v", o)
	}
	if _, err := c.Abandon(tq, now); err != ErrTicketReused {
		t.Errorf("double release = %v, want ErrTicketReused", err)
	}
	if got := c.Snapshot().Classes[int(ClassIO)].Abandoned; got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
}

func TestServiceEstimateTracksCompletions(t *testing.T) {
	c := New(Options{ServiceTimeHint: 100 * time.Millisecond})
	est0 := c.Snapshot().EstServiceS
	for i := 0; i < 40; i++ {
		tk, _ := c.Arrive(ClassIO, -1, at(float64(i)))
		c.Done(tk, at(float64(i)+2)) // 2s services
	}
	est := c.Snapshot().EstServiceS
	if est <= est0 || est < 1.5 {
		t.Errorf("estimate should converge toward 2s: %v -> %v", est0, est)
	}
}

func TestSnapshotJSONDeterministicOrder(t *testing.T) {
	c := New(Options{})
	a, _ := json.Marshal(c.Snapshot())
	b, _ := json.Marshal(c.Snapshot())
	if string(a) != string(b) {
		t.Fatalf("snapshot marshal differs:\n%s\n%s", a, b)
	}
	want := `"classes":[{"class":"control"`
	if got := string(a); !contains(got, want) {
		t.Errorf("classes not in fixed order: %s", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPromotionIsFIFO: Done hands the slot to waiters in arrival order,
// skipping abandoned ones, and starts each one's service clock at the
// Done that promoted it.
func TestPromotionIsFIFO(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 8, ServiceTimeHint: time.Second})
	run, _ := c.Arrive(ClassIO, -1, at(0))
	var waiters []*Ticket
	for i := 0; i < 4; i++ {
		tk, o := c.Arrive(ClassIO, -1, at(0))
		if !o.Queued {
			t.Fatalf("arrival %d should queue: %+v", i, o)
		}
		select {
		case <-tk.Ready():
			t.Fatalf("queued ticket %d already ready", i)
		default:
		}
		waiters = append(waiters, tk)
	}
	if _, err := c.Abandon(waiters[1], at(0)); err != nil {
		t.Fatal(err)
	}
	want := []*Ticket{waiters[0], waiters[2], waiters[3], nil}
	for i, w := range want {
		next, err := c.Done(run, at(float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if next != w {
			t.Fatalf("promotion %d = %p, want %p", i, next, w)
		}
		run = next
	}
	// Each promoted ticket ran exactly 1s: the estimate converges from
	// the 1s hint without moving.
	s := c.Snapshot()
	if s.EstServiceS != 1 || s.InFlight != 0 || s.QueueDepth != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if io := s.Classes[int(ClassIO)]; io.Admitted != 4 || io.Queued != 4 || io.Abandoned != 1 {
		t.Errorf("ledger = %+v", io)
	}
}

// TestTryControlTakesOnlyAFreeSlot: a control read gets the slot when it
// is free, never queues, and does not move the service estimate.
func TestTryControlTakesOnlyAFreeSlot(t *testing.T) {
	c := New(Options{MaxInFlight: 1, PerConn: 1, Rate: 1, Burst: 1, ServiceTimeHint: time.Second})
	ctl := c.TryControl(at(0))
	if ctl == nil {
		t.Fatal("free slot refused")
	}
	if c.TryControl(at(0)) != nil {
		t.Error("second control read took a busy slot")
	}
	io, o := c.Arrive(ClassIO, 1, at(0))
	if !o.Queued {
		t.Fatalf("IO during a control read should queue: %+v", o)
	}
	if next, _ := c.Done(ctl, at(5)); next != io {
		t.Fatal("control Done did not promote the waiting IO")
	}
	s := c.Snapshot()
	if s.EstServiceS != 1 {
		t.Errorf("control service fed the estimate: %v", s.EstServiceS)
	}
	if got := s.Classes[int(ClassControl)].Admitted; got != 1 {
		t.Errorf("control admitted = %d, want 1", got)
	}
}

// TestAbandonRacingPromotion: a waiter whose timeout fires while Done
// promotes it must never leak the slot — Abandon on a just-promoted
// ticket hands the slot on. Run under -race.
func TestAbandonRacingPromotion(t *testing.T) {
	c := New(Options{MaxInFlight: 1, MaxQueue: 64})
	const rounds = 500
	for r := 0; r < rounds; r++ {
		run, _ := c.Arrive(ClassIO, -1, at(0))
		a, _ := c.Arrive(ClassIO, -1, at(0))
		b, _ := c.Arrive(ClassIO, -1, at(0))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.Done(run, at(1)) }()
		// a's timer fires at the same instant it may be promoted.
		go func() { defer wg.Done(); c.Abandon(a, at(1)) }()
		wg.Wait()
		// Either way b now holds the slot (promoted by Done or handed on
		// by Abandon), and finishing it drains the controller.
		select {
		case <-b.Ready():
		default:
			t.Fatalf("round %d: slot leaked, b never promoted: %+v", r, c.Snapshot())
		}
		if next, err := c.Done(b, at(2)); err != nil || next != nil {
			t.Fatalf("round %d: done b = %v, %v", r, next, err)
		}
	}
	s := c.Snapshot()
	if s.InFlight != 0 || s.QueueDepth != 0 {
		t.Errorf("leaked slots: %+v", s)
	}
	if io := s.Classes[int(ClassIO)]; io.Abandoned != rounds {
		t.Errorf("abandoned = %d, want %d", io.Abandoned, rounds)
	}
}

// TestConcurrentUse hammers the controller from many goroutines so the
// race detector can vet the locking (the counts themselves are checked
// for conservation).
func TestConcurrentUse(t *testing.T) {
	c := New(Options{MaxInFlight: 4, MaxQueue: 8, PerConn: 3, Rate: 1e9, Burst: 1e9})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(conn int64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				now := at(float64(i))
				tk, o := c.Arrive(ClassIO, conn, now)
				if !o.Admitted {
					continue
				}
				if o.Queued {
					if i%2 == 0 {
						c.Abandon(tk, now)
						continue
					}
					<-tk.Ready()
				}
				c.Done(tk, now.Add(time.Millisecond))
			}
		}(int64(w))
	}
	wg.Wait()
	s := c.Snapshot()
	if s.InFlight != 0 || s.QueueDepth != 0 {
		t.Errorf("leaked slots: %+v", s)
	}
}
