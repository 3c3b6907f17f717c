// Package sim is a minimal deterministic discrete-event simulation kernel
// shared by the DHL system simulation (internal/dhlsys) and the astra-lite
// training simulator (internal/astra).
//
// Events are executed in timestamp order; ties break in scheduling order, so
// runs are fully deterministic. Simulated time is units.Seconds and never
// reads the wall clock.
//
// The kernel is allocation-flat: events live in a slot arena owned by the
// engine, ordered by an index-based 4-ary heap, with freed slots recycled
// through a free list. Steady-state schedule/fire cycles therefore allocate
// nothing — the arena grows only when the peak queue depth does. Callers
// hold generation-counted Handles rather than pointers, so Cancel and
// reschedule stay safe after a slot is reused (see DESIGN.md §10).
package sim

import (
	"errors"
	"fmt"

	"repro/internal/units"
)

// Handle is a cancellable reference to a scheduled event. The zero Handle
// is inert: it refers to no event and Cancel on it returns false. A Handle
// goes stale the moment its event fires or is cancelled — the slot's
// generation counter advances, so a stale Handle can never touch whatever
// event is recycled into the same slot.
type Handle struct {
	idx int32  // arena index + 1; 0 marks the zero Handle
	gen uint32 // slot generation the handle was minted against
}

// Event is the immutable view of a firing event handed to tracers.
type Event struct {
	Time units.Seconds
	Name string
}

// slot is one arena entry: either a queued event (pos ≥ 0) or a free-list
// node (pos < 0, nextFree chaining to the next free slot).
type slot struct {
	time     units.Seconds
	name     string
	fn       func()
	seq      uint64 // scheduling order, the deterministic tie-break
	gen      uint32 // bumped on every free; invalidates outstanding Handles
	pos      int32  // heap position, -1 when not queued
	nextFree int32  // next free slot, -1 at the list tail
}

// Engine is the simulation clock and event queue.
type Engine struct {
	now units.Seconds
	// arena owns every event slot; heap orders the queued ones by index.
	arena     []slot
	heap      []int32
	freeHead  int32 // head of the free-slot list, -1 when empty
	seq       uint64
	processed int
	tracers   []func(Event)
}

// New returns an engine at time 0.
func New() *Engine { return &Engine{freeHead: -1} }

// Now returns the current simulated time.
func (e *Engine) Now() units.Seconds { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int { return e.processed }

// AddTracer appends a hook called before each event fires. Tracers are
// additive and fire in registration order, so independent consumers —
// fault logging, telemetry, debug prints — can observe the same engine
// without clobbering each other. A nil fn is ignored.
func (e *Engine) AddTracer(fn func(Event)) {
	if fn == nil {
		return
	}
	e.tracers = append(e.tracers, fn)
}

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// allocSlot returns a free arena index, recycling the free list before
// growing the arena.
//
//dhllint:hotpath
func (e *Engine) allocSlot() int32 {
	if i := e.freeHead; i >= 0 {
		e.freeHead = e.arena[i].nextFree
		return i
	}
	e.arena = append(e.arena, slot{pos: -1, nextFree: -1})
	return int32(len(e.arena) - 1)
}

// freeSlot returns a dequeued slot to the free list. The generation bump
// is the handle-safety invariant: every Handle minted for the old tenancy
// now mismatches and can never cancel the slot's next tenant.
//
//dhllint:hotpath
func (e *Engine) freeSlot(i int32) {
	s := &e.arena[i]
	s.fn = nil // drop the closure so the arena does not pin captured state
	s.name = ""
	s.gen++
	s.pos = -1
	s.nextFree = e.freeHead
	e.freeHead = i
}

// At schedules fn at absolute time t and returns a cancellable handle.
//
//dhllint:hotpath
func (e *Engine) At(t units.Seconds, name string, fn func()) (Handle, error) {
	if t < e.now {
		//dhllint:allow allocflow -- scheduling-in-the-past is a caller bug, never the steady state
		return Handle{}, fmt.Errorf("%w: t=%v now=%v (%s)", ErrPastEvent, t, e.now, name)
	}
	if fn == nil {
		//dhllint:allow allocflow -- nil-callback rejection is a caller bug, never the steady state
		return Handle{}, errors.New("sim: nil event callback")
	}
	i := e.allocSlot()
	s := &e.arena[i]
	s.time, s.name, s.fn, s.seq = t, name, fn, e.seq
	e.seq++
	e.heapPush(i)
	return Handle{idx: i + 1, gen: s.gen}, nil
}

// After schedules fn after delay d.
//
//dhllint:hotpath
func (e *Engine) After(d units.Seconds, name string, fn func()) (Handle, error) {
	if d < 0 {
		//dhllint:allow allocflow -- negative-delay rejection is a caller bug, never the steady state
		return Handle{}, fmt.Errorf("%w: negative delay %v (%s)", ErrPastEvent, d, name)
	}
	return e.At(e.now+d, name, fn)
}

// MustAfter is After for delays known to be valid; it panics on error.
//
//dhllint:hotpath
func (e *Engine) MustAfter(d units.Seconds, name string, fn func()) Handle {
	h, err := e.After(d, name, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// lookup resolves a handle to its arena index if it still refers to a
// queued event; ok is false for the zero Handle, fired or cancelled
// events, and recycled slots.
//
//dhllint:hotpath
func (e *Engine) lookup(h Handle) (int32, bool) {
	i := h.idx - 1
	if i < 0 || int(i) >= len(e.arena) {
		return 0, false
	}
	s := &e.arena[i]
	if s.gen != h.gen || s.pos < 0 {
		return 0, false
	}
	return i, true
}

// EventTime returns the scheduled time of a still-pending event; ok is
// false if the handle is stale (fired, cancelled, or recycled).
//
//dhllint:hotpath
func (e *Engine) EventTime(h Handle) (units.Seconds, bool) {
	i, ok := e.lookup(h)
	if !ok {
		return 0, false
	}
	return e.arena[i].time, true
}

// Cancel removes a pending event. Cancelling a fired, already-cancelled,
// or zero handle is a no-op returning false.
//
//dhllint:hotpath
func (e *Engine) Cancel(h Handle) bool {
	i, ok := e.lookup(h)
	if !ok {
		return false
	}
	e.heapRemove(e.arena[i].pos)
	e.freeSlot(i)
	return true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }

// Step executes the next event, if any, and reports whether one ran.
//
//dhllint:hotpath
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	i := e.heapPop()
	s := &e.arena[i]
	e.now = s.time
	fn := s.fn
	if len(e.tracers) > 0 {
		ev := Event{Time: s.time, Name: s.name}
		for _, tr := range e.tracers {
			tr(ev)
		}
	}
	// Free before firing: the callback may schedule into (and recycle) this
	// slot, and a stale Handle to the fired event must already be dead.
	e.freeSlot(i)
	e.processed++
	fn()
	return true
}

// Run executes events until the queue drains, returning the count executed.
// maxEvents bounds runaway simulations; ≤0 means no bound.
func (e *Engine) Run(maxEvents int) (int, error) {
	n := 0
	for e.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			if len(e.heap) > 0 {
				return n, fmt.Errorf("sim: event budget %d exhausted with %d pending", maxEvents, len(e.heap))
			}
			break
		}
	}
	return n, nil
}

// RunUntil executes events with Time ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t units.Seconds) int {
	n := 0
	for len(e.heap) > 0 && e.arena[e.heap[0]].time <= t {
		e.Step()
		n++
	}
	if t > e.now {
		e.now = t
	}
	return n
}
