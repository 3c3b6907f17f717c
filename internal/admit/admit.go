// Package admit is the overload-protection layer of the control plane:
// a deterministic admission controller that decides, per request, whether
// to run it now, let it wait in a bounded queue, or shed it with an
// explicit retry-after hint.
//
// The controller composes four defences:
//
//   - A token-bucket rate limiter bounds sustained admission rate.
//     Control-class requests (status/metrics reads) bypass the bucket so
//     observability survives overload.
//   - A global in-flight cap plus a bounded FIFO waiting room replace
//     unbounded queueing: once MaxQueue waiters are parked, further
//     requests are rejected immediately with Outcome.RetryAfter derived
//     from the queue depth and a smoothed service-time estimate.
//   - A per-connection outstanding-request cap stops one pipelining peer
//     from monopolising the waiting room.
//   - Brownout mode sheds expensive work first: when the queue passes
//     BrownoutFrac of its capacity, launch-class requests (cart
//     open/close — the multi-second operations) are rejected while
//     cheaper IO continues to queue, and control reads still pass.
//
// The controller is the only gate on the executor: Done hands the freed
// slot straight to the oldest waiter (signalling it through
// Ticket.Ready and returning it, so a single-threaded caller can start
// it), and TryControl lets a control read take a free slot without
// queueing.
//
// Determinism contract: the controller never reads the wall clock, an
// RNG, or the environment. Every method takes the caller's notion of
// "now" explicitly, so a virtual-clock harness (cmd/dhlload) replaying
// the same arrival sequence observes byte-identical decisions, and the
// live server simply passes time.Now(). All arithmetic is plain float64
// and integer nanoseconds with no map iteration.
//
// Thread safety: every mutable field is guarded by one mutex and
// annotated //dhllint:guardedby, so the lockcheck pass proves the
// discipline by construction.
package admit

import (
	"errors"
	"sync"
	"time"
)

// Class is a request priority class. Lower classes are shed later.
type Class int

const (
	// ClassControl: status/metrics reads. Never rate-limited, shed only
	// when the waiting room is completely full (the server normally
	// takes a free slot with TryControl or answers from a cached
	// snapshot without queueing at all).
	ClassControl Class = iota
	// ClassIO: read/write against a docked cart.
	ClassIO
	// ClassLaunch: cart open/close — the expensive multi-second
	// operations, first to go in brownout.
	ClassLaunch

	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassIO:
		return "io"
	case ClassLaunch:
		return "launch"
	default:
		return "unknown"
	}
}

// Classes lists the priority classes in shed order (last shed first).
func Classes() []Class { return []Class{ClassControl, ClassIO, ClassLaunch} }

// Reason explains a shed decision.
type Reason int

const (
	// ReasonNone: the request was admitted.
	ReasonNone Reason = iota
	// ReasonRateLimited: the token bucket was empty.
	ReasonRateLimited
	// ReasonQueueFull: the waiting room was at MaxQueue.
	ReasonQueueFull
	// ReasonBrownout: the queue passed the brownout threshold and the
	// request's class is shed under brownout.
	ReasonBrownout
	// ReasonPerConn: the connection already has PerConn requests
	// outstanding.
	ReasonPerConn

	numReasons
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "admitted"
	case ReasonRateLimited:
		return "rate-limited"
	case ReasonQueueFull:
		return "queue-full"
	case ReasonBrownout:
		return "brownout"
	case ReasonPerConn:
		return "per-conn-limit"
	default:
		return "unknown"
	}
}

// Options configures a Controller. New applies the documented defaults
// to zero fields, so the zero value is the default controller.
type Options struct {
	// MaxInFlight caps concurrently executing requests. The control
	// plane's simulation executor is single-threaded, so its server
	// rejects anything above 1; the load harness may model more
	// executors. Default 1.
	MaxInFlight int
	// MaxQueue bounds the waiting room behind the executor. Arrivals
	// beyond it are shed with ReasonQueueFull. Default 64.
	MaxQueue int
	// PerConn caps outstanding (queued + running) requests per
	// connection; 0 disables. A serial request/response connection never
	// exceeds 1, so this bites only for pipelining peers.
	PerConn int
	// Rate is the token-bucket sustained admission rate in requests per
	// second; 0 disables rate limiting. Control-class requests bypass
	// the bucket.
	Rate float64
	// Burst is the bucket capacity; defaults to max(Rate, 1) when Rate
	// is set.
	Burst float64
	// BrownoutFrac is the queue-depth fraction of MaxQueue at which
	// brownout begins (launch-class arrivals shed). Default 0.5;
	// set >= 1 to disable brownout.
	BrownoutFrac float64
	// RetryAfterMin and RetryAfterMax clamp the retry-after hint carried
	// by shed outcomes. Defaults 50ms and 10s.
	RetryAfterMin time.Duration
	RetryAfterMax time.Duration
	// ServiceTimeHint seeds the smoothed per-request service-time
	// estimate before any request has completed. Default 100ms.
	ServiceTimeHint time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 1
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.Rate > 0 && o.Burst <= 0 {
		o.Burst = o.Rate
		if o.Burst < 1 {
			o.Burst = 1
		}
	}
	if o.BrownoutFrac <= 0 {
		o.BrownoutFrac = 0.5
	}
	if o.RetryAfterMin <= 0 {
		o.RetryAfterMin = 50 * time.Millisecond
	}
	if o.RetryAfterMax <= 0 {
		o.RetryAfterMax = 10 * time.Second
	}
	if o.RetryAfterMax < o.RetryAfterMin {
		o.RetryAfterMax = o.RetryAfterMin
	}
	if o.ServiceTimeHint <= 0 {
		o.ServiceTimeHint = 100 * time.Millisecond
	}
	return o
}

// Outcome is an admission decision.
type Outcome struct {
	// Admitted: the request may proceed (immediately when Queued is
	// false, after waiting for an executor slot when true).
	Admitted bool
	// Queued: the request was parked in the waiting room; it runs once
	// Ticket.Ready is closed, or the caller calls Abandon if it gives up
	// waiting.
	Queued bool
	// Reason explains a rejection (ReasonNone when admitted).
	Reason Reason
	// RetryAfter hints when a shed request should retry. Zero when
	// admitted.
	RetryAfter time.Duration
}

// Ticket tracks one admitted request through the controller. Tickets are
// owned by a single request handler and must not be shared.
type Ticket struct {
	class  Class
	conn   int64
	start  time.Time
	queued bool
	done   bool
	ready  chan struct{}
}

// Ready is closed once the ticket holds an executor slot: at once for a
// ticket admitted immediately, on promotion for a queued one.
func (t *Ticket) Ready() <-chan struct{} { return t.ready }

// readyNow is the Ready channel of tickets admitted straight to a slot.
var readyNow = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// ErrTicketReused reports a ticket handed back twice.
var ErrTicketReused = errors.New("admit: ticket already released")

// ClassCounters is the per-class admission ledger inside Stats.
type ClassCounters struct {
	Class       string `json:"class"`
	Admitted    uint64 `json:"admitted"`
	Queued      uint64 `json:"queued"`
	RateLimited uint64 `json:"shed_rate_limited"`
	QueueFull   uint64 `json:"shed_queue_full"`
	Brownout    uint64 `json:"shed_brownout"`
	PerConn     uint64 `json:"shed_per_conn"`
	Abandoned   uint64 `json:"abandoned"`
}

// Shed is the total number of rejected requests in this class.
func (c ClassCounters) Shed() uint64 {
	return c.RateLimited + c.QueueFull + c.Brownout + c.PerConn
}

// Stats is a deterministic point-in-time snapshot of the controller:
// classes appear in fixed Class order, never map order.
type Stats struct {
	InFlight    int             `json:"in_flight"`
	QueueDepth  int             `json:"queue_depth"`
	Brownout    bool            `json:"brownout"`
	EstServiceS float64         `json:"est_service_s"`
	Classes     []ClassCounters `json:"classes"`
}

// Controller is the admission state machine. Safe for concurrent use.
type Controller struct {
	opt Options

	mu sync.Mutex
	//dhllint:guardedby mu
	inflight int
	// waiters is the FIFO waiting room, oldest first.
	//dhllint:guardedby mu
	waiters []*Ticket
	//dhllint:guardedby mu
	perConn map[int64]int
	//dhllint:guardedby mu
	tokens float64
	//dhllint:guardedby mu
	lastRefill time.Time
	//dhllint:guardedby mu
	haveRefill bool
	//dhllint:guardedby mu
	estService float64 // smoothed seconds per request
	//dhllint:guardedby mu
	admitted [numClasses]uint64
	//dhllint:guardedby mu
	everQueued [numClasses]uint64
	//dhllint:guardedby mu
	shed [numClasses][numReasons]uint64
	//dhllint:guardedby mu
	abandoned [numClasses]uint64
}

// New builds a controller; zero Options fields take the documented
// defaults.
func New(opt Options) *Controller {
	opt = opt.withDefaults()
	return &Controller{
		opt:        opt,
		perConn:    make(map[int64]int),
		tokens:     opt.Burst,
		estService: opt.ServiceTimeHint.Seconds(),
	}
}

// Options reports the controller's effective (defaulted) options.
func (c *Controller) Options() Options { return c.opt }

// refillLocked advances the token bucket to now. Callers hold mu.
func (c *Controller) refillLocked(now time.Time) {
	if c.opt.Rate <= 0 {
		return
	}
	if !c.haveRefill {
		c.lastRefill = now
		c.haveRefill = true
		return
	}
	dt := now.Sub(c.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	c.tokens += dt * c.opt.Rate
	if c.tokens > c.opt.Burst {
		c.tokens = c.opt.Burst
	}
	c.lastRefill = now
}

// retryAfterLocked derives the shed hint from the backlog: the time for
// the executor(s) to clear the current queue at the smoothed service
// rate, clamped to [RetryAfterMin, RetryAfterMax]. Callers hold mu.
func (c *Controller) retryAfterLocked() time.Duration {
	backlog := float64(len(c.waiters)+c.inflight) * c.estService / float64(c.opt.MaxInFlight)
	d := time.Duration(backlog * float64(time.Second))
	if d < c.opt.RetryAfterMin {
		d = c.opt.RetryAfterMin
	}
	if d > c.opt.RetryAfterMax {
		d = c.opt.RetryAfterMax
	}
	return d
}

// tokenRetryLocked is the hint for a rate-limit shed: time until one
// token accrues. Callers hold mu.
func (c *Controller) tokenRetryLocked() time.Duration {
	if c.opt.Rate <= 0 {
		return c.opt.RetryAfterMin
	}
	need := 1 - c.tokens
	if need < 0 {
		need = 0
	}
	d := time.Duration(need / c.opt.Rate * float64(time.Second))
	if d < c.opt.RetryAfterMin {
		d = c.opt.RetryAfterMin
	}
	if d > c.opt.RetryAfterMax {
		d = c.opt.RetryAfterMax
	}
	return d
}

// brownoutLocked reports whether the queue has passed the brownout
// threshold. Callers hold mu.
func (c *Controller) brownoutLocked() bool {
	return float64(len(c.waiters)) >= c.opt.BrownoutFrac*float64(c.opt.MaxQueue)
}

// Arrive decides one request. conn identifies the requesting connection
// for the per-connection cap (pass a negative value to opt out). The
// returned Ticket is non-nil exactly when the outcome is Admitted; the
// caller runs the request once Ready is closed and hands the ticket back
// via Done (after running) or Abandon (if it gave up waiting).
func (c *Controller) Arrive(class Class, conn int64, now time.Time) (*Ticket, Outcome) {
	if class < 0 || class >= numClasses {
		class = ClassIO
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refillLocked(now)

	// Rate limit first: it bounds offered work before any state is
	// touched. Control reads bypass it — observability must survive.
	if class != ClassControl && c.opt.Rate > 0 && c.tokens < 1 {
		c.shed[class][ReasonRateLimited]++
		return nil, Outcome{Reason: ReasonRateLimited, RetryAfter: c.tokenRetryLocked()}
	}
	if c.opt.PerConn > 0 && conn >= 0 && c.perConn[conn] >= c.opt.PerConn {
		c.shed[class][ReasonPerConn]++
		return nil, Outcome{Reason: ReasonPerConn, RetryAfter: c.retryAfterLocked()}
	}

	t := &Ticket{class: class, conn: conn, start: now}
	if c.inflight < c.opt.MaxInFlight {
		t.ready = readyNow
		c.admitLocked(t, now)
		return t, Outcome{Admitted: true}
	}

	// Executor saturated: queue or shed.
	if len(c.waiters) >= c.opt.MaxQueue {
		c.shed[class][ReasonQueueFull]++
		return nil, Outcome{Reason: ReasonQueueFull, RetryAfter: c.retryAfterLocked()}
	}
	if class == ClassLaunch && c.brownoutLocked() {
		c.shed[class][ReasonBrownout]++
		return nil, Outcome{Reason: ReasonBrownout, RetryAfter: c.retryAfterLocked()}
	}
	t.queued = true
	t.ready = make(chan struct{})
	c.waiters = append(c.waiters, t)
	c.everQueued[class]++
	c.chargeLocked(t)
	return t, Outcome{Admitted: true, Queued: true}
}

// TryControl takes a free executor slot for a control read without
// queueing, returning nil when every slot is busy. The ticket bypasses
// the token bucket and the per-connection cap, and its Done does not
// feed the service-time estimate, so retry hints stay priced on IO and
// launch work.
func (c *Controller) TryControl(now time.Time) *Ticket {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight >= c.opt.MaxInFlight {
		return nil
	}
	t := &Ticket{class: ClassControl, conn: -1, ready: readyNow}
	c.admitLocked(t, now)
	return t
}

// admitLocked moves a ticket straight to running. Callers hold mu.
func (c *Controller) admitLocked(t *Ticket, now time.Time) {
	c.inflight++
	c.admitted[t.class]++
	t.start = now
	c.chargeLocked(t)
}

// releaseSlotLocked frees one executor slot and hands it to the oldest
// waiter, whose service clock starts at now. It returns the promoted
// ticket, or nil when nobody was waiting. Callers hold mu.
func (c *Controller) releaseSlotLocked(now time.Time) *Ticket {
	c.inflight--
	if len(c.waiters) == 0 {
		return nil
	}
	t := c.waiters[0]
	c.dequeueLocked(0)
	c.inflight++
	c.admitted[t.class]++
	t.start = now
	close(t.ready)
	return t
}

// dequeueLocked removes waiter i, keeping FIFO order. Callers hold mu.
func (c *Controller) dequeueLocked(i int) {
	c.waiters[i].queued = false
	last := copy(c.waiters[i:], c.waiters[i+1:]) + i
	c.waiters[last] = nil // do not pin the departed ticket
	c.waiters = c.waiters[:last]
}

// chargeLocked spends a token and takes a per-conn slot. Callers hold mu.
func (c *Controller) chargeLocked(t *Ticket) {
	if t.class != ClassControl && c.opt.Rate > 0 {
		c.tokens--
		if c.tokens < 0 {
			c.tokens = 0
		}
	}
	if c.opt.PerConn > 0 && t.conn >= 0 {
		c.perConn[t.conn]++
	}
}

// releaseConnLocked returns a per-conn slot. Callers hold mu.
func (c *Controller) releaseConnLocked(t *Ticket) {
	if c.opt.PerConn <= 0 || t.conn < 0 {
		return
	}
	if n := c.perConn[t.conn] - 1; n > 0 {
		c.perConn[t.conn] = n
	} else {
		delete(c.perConn, t.conn)
	}
}

// Abandon releases a ticket whose caller gave up waiting (request
// timeout). A still-queued ticket leaves the waiting room; one promoted
// at the same instant gives its slot to the next waiter, which is
// returned as Done would, so a timeout racing a promotion never leaks a
// slot. Abandoned requests count separately from sheds.
func (c *Controller) Abandon(t *Ticket, now time.Time) (*Ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return nil, ErrTicketReused
	}
	t.done = true
	c.abandoned[t.class]++
	c.releaseConnLocked(t)
	if !t.queued {
		return c.releaseSlotLocked(now), nil
	}
	for i, w := range c.waiters {
		if w == t {
			c.dequeueLocked(i)
			break
		}
	}
	return nil, nil
}

// Done releases a running ticket, folds its service time into the
// smoothed estimate that prices retry-after hints (control tickets
// excepted), and promotes the oldest waiter into the freed slot. It
// returns the promoted ticket, or nil when nobody was waiting.
func (c *Controller) Done(t *Ticket, now time.Time) (*Ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return nil, ErrTicketReused
	}
	t.done = true
	c.releaseConnLocked(t)
	if dur := now.Sub(t.start).Seconds(); dur > 0 && t.class != ClassControl {
		// EWMA with alpha 0.2: stable enough to price hints, fast
		// enough to track a chaos-degraded service rate.
		c.estService = 0.8*c.estService + 0.2*dur
	}
	return c.releaseSlotLocked(now), nil
}

// Snapshot returns the controller's ledger. Classes are listed in fixed
// Class order, making any serialisation byte-deterministic.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		InFlight:    c.inflight,
		QueueDepth:  len(c.waiters),
		Brownout:    c.brownoutLocked(),
		EstServiceS: c.estService,
	}
	s.Classes = make([]ClassCounters, 0, int(numClasses))
	for _, cl := range Classes() {
		s.Classes = append(s.Classes, ClassCounters{
			Class:       cl.String(),
			Admitted:    c.admitted[cl],
			Queued:      c.everQueued[cl],
			RateLimited: c.shed[cl][ReasonRateLimited],
			QueueFull:   c.shed[cl][ReasonQueueFull],
			Brownout:    c.shed[cl][ReasonBrownout],
			PerConn:     c.shed[cl][ReasonPerConn],
			Abandoned:   c.abandoned[cl],
		})
	}
	return s
}
