package controlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/dhlsys"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// ServerOptions hardens the API server against misbehaving peers and
// overload. All timeouts are wall-clock (the simulation clock is
// unaffected).
type ServerOptions struct {
	// ReadTimeout bounds how long a connection may take to deliver one
	// complete request frame (including sitting idle between requests)
	// before it is dropped; 0 disables the deadline.
	ReadTimeout time.Duration
	// RequestTimeout bounds how long one queued request may wait in the
	// admission queue for the simulation (which serialises all
	// clients); a request still waiting when it expires is abandoned
	// and answered with CodeServerBusy. 0 waits without a bound (the
	// queue itself stays bounded by Admission.MaxQueue).
	RequestTimeout time.Duration
	// DrainTimeout bounds Close's graceful wait for in-flight
	// connections; connections still open when it expires are forcibly
	// closed. 0 waits forever.
	DrainTimeout time.Duration
	// MaxRequestBytes caps one request frame; a longer line is answered
	// CodeBadRequest and the connection dropped, so a peer streaming an
	// endless line cannot balloon server memory. 0 disables the cap.
	MaxRequestBytes int
	// MaxConns caps concurrently served connections; further accepts
	// are answered with a CodeServerBusy response and closed. 0
	// disables the cap.
	MaxConns int
	// Admission configures the overload controller (bounded queue,
	// token bucket, priority classes, brownout — see internal/admit),
	// the only gate on the simulation. The zero value means admit's
	// defaults; MaxInFlight above 1 is rejected because the simulation
	// is single-threaded.
	Admission admit.Options
	// Clock supplies wall time for admission control, retry-after
	// hints, and snapshot aging; nil means time.Now. Injected so the
	// overload machinery is testable on a deterministic clock.
	Clock func() time.Time
}

// DefaultServerOptions is the hardened default: 30 s frame deadline,
// 10 s request budget, 5 s shutdown drain, 1 MiB frame cap, and
// admit's default admission control (one executor slot, a 64-deep
// bounded queue).
func DefaultServerOptions() ServerOptions {
	return ServerOptions{
		ReadTimeout:     30 * time.Second,
		RequestTimeout:  10 * time.Second,
		DrainTimeout:    5 * time.Second,
		MaxRequestBytes: 1 << 20,
	}
}

// Server serves the §III-D API over TCP for one DHL deployment. The
// underlying simulation is single-threaded, and the admission controller
// is the one gate on it: its single executor slot serialises client
// operations (the DHL scheduler itself serialises physical resources),
// its bounded FIFO queue holds the waiters, and it sheds the excess
// with retry-after hints. Status/metrics reads take the slot only when
// it is free and otherwise answer from a cached snapshot, so
// observability never queues behind the workload.
type Server struct {
	sys *dhlsys.System
	opt ServerOptions
	adm *admit.Controller

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	// conns tracks live connections so Close can sever stragglers.
	//dhllint:guardedby connMu
	conns map[net.Conn]struct{}
	// nextConnID numbers connections for the per-connection admission
	// cap.
	//dhllint:guardedby connMu
	nextConnID int64
	// severed counts connections forcibly closed by Close's drain
	// deadline.
	//dhllint:guardedby connMu
	severed int

	cacheMu sync.Mutex
	// The snapshot cache: refreshed after every slot-holding request,
	// served to status/metrics reads while the simulation is saturated
	// (graceful degradation instead of queueing).
	//dhllint:guardedby cacheMu
	cacheStats *StatsJSON
	//dhllint:guardedby cacheMu
	cacheMetrics *telemetry.Snapshot
	//dhllint:guardedby cacheMu
	cacheSimTime float64
	//dhllint:guardedby cacheMu
	cacheAt time.Time
	//dhllint:guardedby cacheMu
	cacheOK bool
}

// NewServer wraps a system with the default hardening options. The system
// must not be driven elsewhere while the server owns it.
func NewServer(sys *dhlsys.System) (*Server, error) {
	return NewServerWithOptions(sys, DefaultServerOptions())
}

// NewServerWithOptions wraps a system with explicit hardening options.
func NewServerWithOptions(sys *dhlsys.System, opt ServerOptions) (*Server, error) {
	if sys == nil {
		return nil, errors.New("controlplane: nil system")
	}
	if opt.ReadTimeout < 0 || opt.RequestTimeout < 0 || opt.DrainTimeout < 0 {
		return nil, errors.New("controlplane: timeouts must be non-negative")
	}
	if opt.MaxRequestBytes < 0 || opt.MaxConns < 0 {
		return nil, errors.New("controlplane: limits must be non-negative")
	}
	if opt.Admission.MaxInFlight > 1 {
		return nil, fmt.Errorf("controlplane: Admission.MaxInFlight %d > 1: the simulation is single-threaded",
			opt.Admission.MaxInFlight)
	}
	return &Server{
		sys:    sys,
		opt:    opt,
		adm:    admit.New(opt.Admission),
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}, nil
}

// Admission exposes the admission controller's ledger.
func (s *Server) Admission() admit.Stats { return s.adm.Snapshot() }

// Severed reports how many connections Close had to sever after the
// drain deadline expired.
func (s *Server) Severed() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.severed
}

func (s *Server) now() time.Time {
	if s.opt.Clock != nil {
		return s.opt.Clock()
	}
	return time.Now()
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("controlplane: listen: %w", err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting connections from an already-bound listener and
// returns immediately; Close stops it. Exposed so tests and embedders
// can inject listeners (fault injection, in-memory transports).
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	//dhllint:allow goroutine,goescape -- network accept loop, not model code; the conns map it reaches is lockcheck-verified under connMu
	go s.acceptLoop()
}

// acceptBackoffMax caps the retry backoff for transient Accept errors.
const acceptBackoffMax = time.Second

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient failures (ECONNABORTED, EMFILE, accept
			// timeouts) must not kill the listener forever: back off
			// with a capped exponential delay and try again. Only a
			// permanent listener error exits the loop.
			var te interface{ Temporary() bool }
			if !errors.As(err, &te) || !te.Temporary() {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			t := time.NewTimer(backoff)
			select {
			case <-s.closed:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		id, st := s.track(conn)
		switch st {
		case trackRefused:
			// Over the connection cap: answer structurally so a
			// well-behaved client backs off instead of redialling hot.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			enc := json.NewEncoder(conn)
			enc.Encode(Response{
				OK:          false,
				Error:       fmt.Sprintf("controlplane: connection limit (%d) reached", s.opt.MaxConns),
				Code:        CodeServerBusy,
				RetryAfterS: 1,
			})
			conn.Close()
			continue
		case trackClosing:
			conn.Close() // shutting down; refuse new work
			continue
		}
		s.wg.Add(1)
		//dhllint:allow goroutine,goescape -- per-connection I/O handler; untrack's conns-map delete is lockcheck-verified under connMu
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(id, conn)
		}()
	}
}

type trackStatus int

const (
	trackOK trackStatus = iota
	trackRefused
	trackClosing
)

// track registers a live connection and assigns its ID; it refuses once
// shutdown has begun or the connection cap is reached.
func (s *Server) track(conn net.Conn) (int64, trackStatus) {
	select {
	case <-s.closed:
		return 0, trackClosing
	default:
	}
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.opt.MaxConns > 0 && len(s.conns) >= s.opt.MaxConns {
		return 0, trackRefused
	}
	s.conns[conn] = struct{}{}
	s.nextConnID++
	return s.nextConnID, trackOK
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, conn)
}

// severConns force-closes every tracked connection so blocked handlers
// unblock. Callers must hold connMu; lockcheck verifies that through the
// call graph rather than a runtime assertion.
func (s *Server) severConns() {
	for c := range s.conns {
		c.Close()
		s.severed++
	}
}

// errFrameTooLarge marks a request frame over MaxRequestBytes.
var errFrameTooLarge = errors.New("controlplane: request frame too large")

// readFrame reads one newline-terminated request frame, bounding its
// size so a peer streaming an endless line cannot balloon server
// memory. A final frame without a trailing newline is accepted at EOF.
func readFrame(br *bufio.Reader, max int) ([]byte, error) {
	var frame []byte
	for {
		frag, err := br.ReadSlice('\n')
		frame = append(frame, frag...)
		if max > 0 && len(frame) > max {
			return nil, errFrameTooLarge
		}
		switch err {
		case nil:
			return frame, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(frame) > 0 {
				return frame, nil
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

func (s *Server) serveConn(connID int64, conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	enc := json.NewEncoder(conn)
	for {
		if s.opt.ReadTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.opt.ReadTimeout)); err != nil {
				return
			}
		}
		frame, err := readFrame(br, s.opt.MaxRequestBytes)
		if errors.Is(err, errFrameTooLarge) {
			// Answer structurally, then drop: the rest of the line is
			// still in flight and the stream cannot be resynchronised.
			enc.Encode(Response{
				OK:    false,
				Error: fmt.Sprintf("controlplane: request exceeds %d bytes", s.opt.MaxRequestBytes),
				Code:  CodeBadRequest,
			})
			return
		}
		if err != nil {
			return // EOF, idle timeout, or transport failure
		}
		if len(bytes.TrimSpace(frame)) == 0 {
			continue // tolerate blank keep-alive lines
		}
		req, err := DecodeRequest(frame)
		if err != nil {
			enc.Encode(Response{OK: false, Error: err.Error(), Code: CodeBadRequest})
			return // malformed frame: the stream may be desynchronised
		}
		if err := enc.Encode(s.handle(connID, req)); err != nil {
			return
		}
		// Drain: finish between requests, never mid-request. Checking
		// only after a response keeps a connection accepted just before
		// Close reading its pending frame, so a straggler that never
		// completes it is severed (and counted) at the drain deadline.
		select {
		case <-s.closed:
			return
		default:
		}
	}
}

// ClassOf maps an op to its admission priority class.
func ClassOf(op Op) admit.Class {
	switch op {
	case OpStatus, OpMetrics:
		return admit.ClassControl
	case OpOpen, OpClose:
		return admit.ClassLaunch
	default:
		return admit.ClassIO
	}
}

// busyResponse builds the structured load-shed reply.
func busyResponse(msg string, retryAfter time.Duration) Response {
	return Response{
		OK:          false,
		Error:       "controlplane: " + msg,
		Code:        CodeServerBusy,
		RetryAfterS: retryAfter.Seconds(),
	}
}

// handle executes one request: control reads through the snapshot path,
// everything else through admission and the simulation.
func (s *Server) handle(connID int64, req Request) Response {
	if err := req.Validate(); err != nil {
		return Response{OK: false, Error: err.Error(), Code: CodeBadRequest}
	}
	if req.Op == OpStatus || req.Op == OpMetrics {
		return s.handleControl(req)
	}
	return s.admitAndRun(connID, req, "")
}

// handleControl answers status/metrics in three steps: take a free slot
// and answer fresh; otherwise answer from the cached snapshot (stale but
// answerable — graceful degradation); only a cold cache queues for the
// simulation. Control reads pass conn -1, outside the per-connection cap.
func (s *Server) handleControl(req Request) Response {
	if tk := s.adm.TryControl(s.now()); tk != nil {
		return s.run(tk, req)
	}
	if resp, ok := s.cachedControl(req); ok {
		return resp
	}
	return s.admitAndRun(-1, req, " and no snapshot cached yet")
}

// admitAndRun passes req through admission, waits up to RequestTimeout
// for a queued ticket's slot (abandoning it if the timer wins), and runs
// it. busyDetail extends the timeout reply's message.
func (s *Server) admitAndRun(conn int64, req Request, busyDetail string) Response {
	tk, out := s.adm.Arrive(ClassOf(req.Op), conn, s.now())
	if !out.Admitted {
		return busyResponse("overloaded: "+out.Reason.String(), out.RetryAfter)
	}
	if out.Queued && !s.await(tk) {
		return busyResponse(
			fmt.Sprintf("simulation busy for %v%s", s.opt.RequestTimeout, busyDetail),
			s.opt.RequestTimeout)
	}
	return s.run(tk, req)
}

// await blocks until a queued ticket is promoted to the slot, or
// abandons it once RequestTimeout expires.
func (s *Server) await(tk *admit.Ticket) bool {
	if s.opt.RequestTimeout <= 0 {
		<-tk.Ready()
		return true
	}
	t := time.NewTimer(s.opt.RequestTimeout)
	defer t.Stop()
	select {
	case <-tk.Ready():
		return true
	case <-t.C:
		// A promotion racing the timer is handed on by Abandon.
		s.adm.Abandon(tk, s.now())
		return false
	}
}

// run executes req while tk holds the simulation's slot, refreshes the
// snapshot cache, and releases the slot to the next waiter.
func (s *Server) run(tk *admit.Ticket, req Request) Response {
	var resp Response
	if req.Op == OpStatus || req.Op == OpMetrics {
		resp = s.freshControl(req)
	} else {
		resp = ExecuteSim(s.sys, req)
	}
	s.refreshCache()
	s.adm.Done(tk, s.now())
	return resp
}

// freshControl builds a status/metrics response from the live
// simulation. Callers hold the admission slot.
func (s *Server) freshControl(req Request) Response {
	if req.Op == OpMetrics {
		if s.sys.Telemetry() == nil {
			return Response{
				OK:      false,
				Error:   "controlplane: system has no telemetry set",
				Code:    CodeNoTelemetry,
				SimTime: float64(s.sys.Engine.Now()),
			}
		}
		return Response{
			OK:      true,
			SimTime: float64(s.sys.Engine.Now()),
			Text:    telemetry.PrometheusText(s.sys.MetricsSnapshot()),
		}
	}
	resp := Response{
		OK:      true,
		SimTime: float64(s.sys.Engine.Now()),
		Stats:   statsJSON(s.sys.Report()),
	}
	if s.sys.Telemetry() != nil {
		snap := s.sys.MetricsSnapshot()
		resp.Metrics = &snap
	}
	return resp
}

// refreshCache publishes the snapshot served to control reads during
// saturation. Callers hold the admission slot.
func (s *Server) refreshCache() {
	st := statsJSON(s.sys.Report())
	var snap *telemetry.Snapshot
	if s.sys.Telemetry() != nil {
		m := s.sys.MetricsSnapshot()
		snap = &m
	}
	simT := float64(s.sys.Engine.Now())
	now := s.now()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.cacheStats = st
	s.cacheMetrics = snap
	s.cacheSimTime = simT
	s.cacheAt = now
	s.cacheOK = true
}

// cachedControl serves a control read from the snapshot cache. The
// cached values are replaced wholesale by refreshCache and never mutated
// in place, so handing out shallow copies is safe.
func (s *Server) cachedControl(req Request) (Response, bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if !s.cacheOK {
		return Response{}, false
	}
	age := s.now().Sub(s.cacheAt).Seconds()
	if age < 0 {
		age = 0
	}
	if req.Op == OpMetrics {
		if s.cacheMetrics == nil {
			return Response{
				OK:      false,
				Error:   "controlplane: system has no telemetry set",
				Code:    CodeNoTelemetry,
				SimTime: s.cacheSimTime,
			}, true
		}
		return Response{
			OK:        true,
			SimTime:   s.cacheSimTime,
			Text:      telemetry.PrometheusText(*s.cacheMetrics),
			Stale:     true,
			CacheAgeS: age,
		}, true
	}
	st := *s.cacheStats
	resp := Response{
		OK:        true,
		SimTime:   s.cacheSimTime,
		Stats:     &st,
		Stale:     true,
		CacheAgeS: age,
	}
	if s.cacheMetrics != nil {
		m := *s.cacheMetrics
		resp.Metrics = &m
	}
	return resp, true
}

// ExecuteSim runs one open/close/read/write op on sys to completion and
// builds its reply; OpSeconds is the simulated time the op took. The
// caller must own sys exclusively for the call (the server holds its
// admission slot; the load harness is single-threaded).
func ExecuteSim(sys *dhlsys.System, req Request) Response {
	start := sys.Engine.Now()
	var opErr error
	id := track.CartID(req.Cart)
	switch req.Op {
	case OpOpen:
		sys.Open(id, func(err error) { opErr = err })
	case OpClose:
		sys.Close(id, func(err error) { opErr = err })
	case OpRead:
		sys.Read(id, bytesOf(req), func(_ units.Seconds, err error) { opErr = err })
	case OpWrite:
		sys.Write(id, bytesOf(req), func(_ units.Seconds, err error) { opErr = err })
	}
	if _, err := sys.Run(); err != nil {
		return Response{OK: false, Error: err.Error(), Code: CodeInternal, SimTime: float64(sys.Engine.Now())}
	}
	resp := Response{
		OK:        opErr == nil,
		SimTime:   float64(sys.Engine.Now()),
		OpSeconds: float64(sys.Engine.Now() - start),
	}
	if opErr != nil {
		resp.Error = opErr.Error()
		resp.Code = CodeForError(opErr)
	}
	return resp
}

// Close stops the listener and drains in-flight requests: connections get
// DrainTimeout to finish their current exchange, then are forcibly closed.
func (s *Server) Close() error {
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	done := make(chan struct{})
	//dhllint:allow goroutine -- shutdown watchdog, not model code
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if s.opt.DrainTimeout > 0 {
		t := time.NewTimer(s.opt.DrainTimeout)
		defer t.Stop()
		select {
		case <-done:
			return err
		case <-t.C:
			// Drain expired: sever the stragglers so their handlers
			// unblock, then wait for the bookkeeping to finish.
			s.connMu.Lock()
			s.severConns()
			s.connMu.Unlock()
		}
	}
	<-done
	return err
}

// Error codes carried in Response.Code, derived from the fault taxonomy and
// API error set so clients can branch without parsing messages.
const (
	// CodeBadRequest: the request failed validation, was malformed, or
	// exceeded the frame cap.
	CodeBadRequest = "bad-request"
	// CodeServerBusy: the request was shed by admission control or timed
	// out in its queue; retry_after_s carries the backoff hint.
	CodeServerBusy = "server-busy"
	// CodeInternal: the simulation engine itself failed.
	CodeInternal = "internal"
	// CodeUnknownCart, CodeCartBusy, CodeNotAtLibrary, CodeNotDocked: API
	// state errors.
	CodeUnknownCart  = "unknown-cart"
	CodeCartBusy     = "cart-busy"
	CodeNotAtLibrary = "not-at-library"
	CodeNotDocked    = "not-docked"
	// CodeCartFailed: SSD failure consumed the array (ssd-failure kind).
	CodeCartFailed = "cart-failed"
	// CodeDegradedRead: the read was served from surviving stripes only.
	CodeDegradedRead = "degraded-read"
	// CodeLaunchTimeout: a launch exceeded the recovery policy's budget.
	CodeLaunchTimeout = "launch-timeout"
	// CodeRailBlocked: a cart-stall fault blocks the rail.
	CodeRailBlocked = "rail-blocked"
	// CodeStationFailed: a dock-failure fault holds the station.
	CodeStationFailed = "station-failed"
	// CodeStorage: a storage-layer bounds error.
	CodeStorage = "storage"
	// CodeNoTelemetry: a metrics request against a system built without a
	// telemetry set.
	CodeNoTelemetry = "no-telemetry"
	// CodeError: unclassified failure.
	CodeError = "error"
)

// CodeForError maps an API error chain to its structured code.
func CodeForError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, dhlsys.ErrUnknownCart):
		return CodeUnknownCart
	case errors.Is(err, dhlsys.ErrCartBusy):
		return CodeCartBusy
	case errors.Is(err, dhlsys.ErrNotAtLibrary):
		return CodeNotAtLibrary
	case errors.Is(err, dhlsys.ErrNotDocked):
		return CodeNotDocked
	case errors.Is(err, dhlsys.ErrCartFailed):
		return CodeCartFailed
	case errors.Is(err, dhlsys.ErrDegradedRead):
		return CodeDegradedRead
	case errors.Is(err, dhlsys.ErrLaunchTimeout):
		return CodeLaunchTimeout
	case errors.Is(err, track.ErrRailBlocked):
		return CodeRailBlocked
	case errors.Is(err, track.ErrStationFailed):
		return CodeStationFailed
	case errors.Is(err, storage.ErrOutOfRange), errors.Is(err, storage.ErrOutOfSpace),
		errors.Is(err, storage.ErrNegativeLength), errors.Is(err, storage.ErrDegraded):
		return CodeStorage
	default:
		return CodeError
	}
}

// Client is a minimal API client for the wire protocol. For deadline
// propagation, retries, and retry budgets, use internal/cpclient.
type Client struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("controlplane: dial: %w", err)
	}
	return &Client{
		conn: conn,
		enc:  json.NewEncoder(conn),
		dec:  json.NewDecoder(bufio.NewReader(conn)),
	}, nil
}

// Do performs one request/response exchange.
func (c *Client) Do(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("controlplane: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("controlplane: recv: %w", err)
	}
	return resp, nil
}

// Open shuttles a cart to the endpoint.
func (c *Client) Open(cart int) (Response, error) {
	return c.Do(Request{Op: OpOpen, Cart: cart})
}

// CloseCart returns a cart to the library.
func (c *Client) CloseCart(cart int) (Response, error) {
	return c.Do(Request{Op: OpClose, Cart: cart})
}

// Read reads bytes from a docked cart.
func (c *Client) Read(cart int, b units.Bytes) (Response, error) {
	return c.Do(Request{Op: OpRead, Cart: cart, Bytes: float64(b)})
}

// Write writes bytes to a docked cart.
func (c *Client) Write(cart int, b units.Bytes) (Response, error) {
	return c.Do(Request{Op: OpWrite, Cart: cart, Bytes: float64(b)})
}

// Status fetches the deployment counters.
func (c *Client) Status() (Response, error) {
	return c.Do(Request{Op: OpStatus})
}

// Metrics fetches the Prometheus text exposition of the deployment's
// telemetry registry.
func (c *Client) Metrics() (Response, error) {
	return c.Do(Request{Op: OpMetrics})
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
