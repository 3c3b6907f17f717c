package sim

import (
	"container/heap"
	"slices"
	"testing"

	"repro/internal/units"
)

// ---- reference kernel ---------------------------------------------------

// refEvent is one event in the reference kernel; index is its heap
// position, -1 once it has fired or been cancelled.
type refEvent struct {
	t     units.Seconds
	seq   uint64
	fn    func()
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) { ev := x.(*refEvent); ev.index = len(*h); *h = append(*h, ev) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h, ev.index = old[:len(old)-1], -1
	return ev
}

// refKernel is the definition the arena kernel must match: a
// container/heap ordered by (time, scheduling seq).
type refKernel struct {
	now       units.Seconds
	seq       uint64
	processed int
	q         refHeap
}

func (k *refKernel) at(t units.Seconds, fn func()) *refEvent {
	if t < k.now {
		return nil
	}
	ev := &refEvent{t: t, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.q, ev)
	return ev
}

func (k *refKernel) cancel(ev *refEvent) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&k.q, ev.index)
	return true
}

func (k *refKernel) step() bool {
	if len(k.q) == 0 {
		return false
	}
	ev := heap.Pop(&k.q).(*refEvent)
	k.now = ev.t
	k.processed++
	ev.fn()
	return true
}

func (k *refKernel) runUntil(t units.Seconds) int {
	n := 0
	for len(k.q) > 0 && k.q[0].t <= t {
		k.step()
		n++
	}
	if t > k.now {
		k.now = t
	}
	return n
}

// ---- FuzzEngine ---------------------------------------------------------

// Fuzz operations, one per input byte (mod numEngineOps); their operands
// are the bytes that follow.
const (
	opAt        = iota // relative time byte, child byte
	opAfter            // delay byte, child byte
	opCancel           // handle byte
	opStep             // —
	opRunUntil         // relative time byte
	opEventTime        // handle byte
	numEngineOps
)

// engineRun drives one Engine and one refKernel through the same
// operations. Event i is the i-th successful or failed schedule on each
// side; a failed one keeps its place as the zero Handle / nil event, so
// cancelling it exercises the inert-handle path.
type engineRun struct {
	t        *testing.T
	eng      *Engine
	ref      refKernel
	handles  []Handle
	events   []*refEvent
	engFired []int
	refFired []int
	// scheduled and fired are how many schedule outcomes and firings
	// check has already compared, so each op compares only what is new.
	scheduled, fired int
}

// delta decodes a byte into a small integer offset in [-1, 3]: small
// integers collide often, so same-time ties are common, and -1 reaches
// the past-time error path.
func delta(b int) units.Seconds { return units.Seconds(b%5 - 1) }

// schedule adds one event on both kernels: with At at absolute time x,
// or with After at delay x. An odd child byte c makes the event, when it
// fires, schedule a childless event delta(c/2) after the then-current time
// on its own kernel.
func (r *engineRun) schedule(after bool, x units.Seconds, c int) {
	id := len(r.handles)
	engFn := func() {
		r.engFired = append(r.engFired, id)
		if c%2 == 1 {
			r.scheduleEngine(r.eng.Now() + delta(c/2))
		}
	}
	var h Handle
	var err error
	t := x
	if after {
		h, err = r.eng.After(x, "ev", engFn)
		t = r.ref.now + x
	} else {
		h, err = r.eng.At(x, "ev", engFn)
	}
	ev := r.ref.at(t, func() {
		r.refFired = append(r.refFired, id)
		if c%2 == 1 {
			r.scheduleRef(r.ref.now + delta(c/2))
		}
	})
	if (err == nil) != (ev != nil) {
		r.t.Fatalf("schedule at %v (now %v): engine err %v, reference accepted %v", t, r.eng.Now(), err, ev != nil)
	}
	r.handles = append(r.handles, h)
	r.events = append(r.events, ev)
}

// scheduleEngine and scheduleRef are the in-callback halves of schedule:
// each kernel schedules its child while firing, so the two sides append
// their handles separately and check pairs them up by index.
func (r *engineRun) scheduleEngine(t units.Seconds) {
	id := len(r.handles)
	h, _ := r.eng.At(t, "child", func() { r.engFired = append(r.engFired, id) })
	r.handles = append(r.handles, h)
}

func (r *engineRun) scheduleRef(t units.Seconds) {
	id := len(r.events)
	r.events = append(r.events, r.ref.at(t, func() { r.refFired = append(r.refFired, id) }))
}

// check compares every observable after an operation.
func (r *engineRun) check(op int) {
	if len(r.handles) != len(r.events) {
		r.t.Fatalf("op %d: engine scheduled %d events, reference %d", op, len(r.handles), len(r.events))
	}
	for k := r.scheduled; k < len(r.handles); k++ {
		if (r.handles[k] == Handle{}) != (r.events[k] == nil) {
			r.t.Fatalf("op %d: event %d: engine handle %+v, reference event %v", op, k, r.handles[k], r.events[k])
		}
	}
	r.scheduled = len(r.handles)
	if len(r.engFired) != len(r.refFired) || !slices.Equal(r.engFired[r.fired:], r.refFired[r.fired:]) {
		r.t.Fatalf("op %d: firing order diverges\n got %v\nwant %v", op, r.engFired, r.refFired)
	}
	r.fired = len(r.engFired)
	if r.eng.Pending() != len(r.ref.q) || r.eng.Now() != r.ref.now || r.eng.Processed() != r.ref.processed {
		r.t.Fatalf("op %d: engine pending=%d now=%v processed=%d, reference pending=%d now=%v processed=%d",
			op, r.eng.Pending(), r.eng.Now(), r.eng.Processed(), len(r.ref.q), r.ref.now, r.ref.processed)
	}
}

// FuzzEngine checks the arena kernel against a container/heap reference
// ordered by (time, scheduling seq) on random sequences of At and After
// at small integer times, Cancel on live, fired, cancelled and zero
// handles, scheduling from inside firing callbacks, Step, RunUntil and
// EventTime. Firing order, every Cancel and Step result, RunUntil's
// count, Pending, Now and Processed must agree after every operation.
// The seed corpus under testdata/fuzz/FuzzEngine holds a same-time tie
// burst, stale-handle cancels, a cancel through a handle whose slot was
// recycled, callback scheduling and past-time errors.
func FuzzEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := data
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		r := &engineRun{t: t, eng: New()}
		for op := 0; len(in) > 0; op++ {
			switch next() % numEngineOps {
			case opAt:
				at := r.eng.Now() + delta(next())
				r.schedule(false, at, next())
			case opAfter:
				d := delta(next())
				r.schedule(true, d, next())
			case opCancel:
				var h Handle
				var ev *refEvent
				if n := len(r.handles); n > 0 {
					k := next() % n
					h, ev = r.handles[k], r.events[k]
				}
				if got, want := r.eng.Cancel(h), r.ref.cancel(ev); got != want {
					t.Fatalf("op %d: Cancel = %v, reference %v", op, got, want)
				}
			case opStep:
				if got, want := r.eng.Step(), r.ref.step(); got != want {
					t.Fatalf("op %d: Step = %v, reference %v", op, got, want)
				}
			case opRunUntil:
				until := r.eng.Now() + delta(next())
				if got, want := r.eng.RunUntil(until), r.ref.runUntil(until); got != want {
					t.Fatalf("op %d: RunUntil(%v) ran %d events, reference %d", op, until, got, want)
				}
			case opEventTime:
				if n := len(r.handles); n > 0 {
					k := next() % n
					got, ok := r.eng.EventTime(r.handles[k])
					ev := r.events[k]
					live := ev != nil && ev.index >= 0
					if ok != live || (live && got != ev.t) {
						t.Fatalf("op %d: EventTime(event %d) = %v, %v; reference live=%v", op, k, got, ok, live)
					}
				}
			}
			r.check(op)
		}
		// Drain both: whatever is left must fire in the same order.
		for r.eng.Step() {
			if !r.ref.step() {
				t.Fatal("engine fired an event the reference does not hold")
			}
		}
		if r.ref.step() {
			t.Fatal("reference fired an event the engine does not hold")
		}
		r.check(-1)
	})
}
