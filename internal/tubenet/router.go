package tubenet

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/sweep"
	"repro/internal/units"
)

// Router computes and serves next-hop routing tables over a Topology.
//
// Edge costs are congestion-aware: cost(e) = base(e) · (1 + α·queue(e)),
// where base(e) is the congestion-free transit time and queue(e) the entry
// queue depth at recompute time. Tables are recomputed at seeded epochs and
// immediately on fault inject/recover, never incrementally, so the routing
// state is always a pure function of (topology, liveness, queue snapshot) —
// the determinism contract.
//
// Recompute runs one Dijkstra per source node, fanned out on the sweep pool
// (each source writes only its own table row, so the table is
// byte-identical at any worker count). Workers borrow per-source scratch
// buffers from a mutex-guarded free pool — the one piece of genuinely
// shared mutable state, annotated for the lockcheck analyzer.
type Router struct {
	topo *Topology
	// base is the congestion-free cost of each edge, in seconds.
	base []float64
	// alpha weights queue depth into edge cost.
	alpha float64
	// workers bounds the recompute fan-out (sweep.Workers semantics).
	workers int

	// Static per-edge fields hoisted out of the Edge structs at
	// construction, so Dijkstra reads flat slices only: the far end of
	// each edge and whether it has any capacity at all.
	to     []NodeID
	hasCap []bool
	// srcs lists every NodeID in order — the items of the sweep.
	srcs []NodeID

	// cost and ok are the per-epoch edge cost and usability. Recompute
	// writes them before the fan-out; workers only read them.
	cost []float64
	ok   []bool

	// next[src][dst] is the first-hop edge from src toward dst, NoEdge
	// when unreachable; nil until the first Recompute. Read by the
	// single-threaded dispatch loop, so it needs no lock.
	next [][]EdgeID
	// spare is the table the next Recompute writes row by row. It swaps
	// with next only when every row is written, so a cancelled recompute
	// leaves the previous table live.
	spare [][]EdgeID
	// epochs counts completed recomputes.
	epochs int

	mu sync.Mutex
	// free pools dijkstra scratch buffers across recompute workers.
	//
	//dhllint:guardedby mu
	free []*dijkstraScratch
}

// dijkstraScratch is one worker's per-source working set.
type dijkstraScratch struct {
	dist []float64
	hop  []EdgeID
	done []bool
	// heap is the lazy-deletion frontier, a binary min-heap on
	// (dist, NodeID).
	heap []heapItem
}

// heapItem is one frontier entry: node n reached at distance d. An entry
// whose node is already settled is stale and skipped when popped.
type heapItem struct {
	d float64
	n NodeID
}

// Liveness is the fault-state view the router plans against: dead nodes
// are excluded as waypoints and destinations, dead edges are never
// selected.
type Liveness struct {
	NodeUp []bool
	EdgeUp []bool
}

// NewRouter builds a router over topo with the given congestion-free edge
// costs (seconds; from Topology.TransitTimes). alpha ≤ 0 disables
// congestion weighting; workers ≤ 0 selects one worker.
func NewRouter(topo *Topology, base []units.Seconds, alpha float64, workers int) (*Router, error) {
	if topo == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrBadTopology)
	}
	n, m := topo.NumNodes(), topo.NumEdges()
	if len(base) != m {
		return nil, fmt.Errorf("%w: %d base costs for %d edges", ErrBadTopology, len(base), m)
	}
	if alpha < 0 {
		alpha = 0
	}
	if workers < 1 {
		workers = 1
	}
	r := &Router{
		topo: topo, base: make([]float64, m), alpha: alpha, workers: workers,
		to: make([]NodeID, m), hasCap: make([]bool, m), srcs: make([]NodeID, n),
		cost: make([]float64, m), ok: make([]bool, m),
	}
	for i, b := range base {
		if b <= 0 {
			return nil, fmt.Errorf("%w: edge %d has non-positive base cost %v", ErrBadTopology, i, b)
		}
		r.base[i] = float64(b)
		ed := &topo.edges[i]
		r.to[i] = ed.To
		r.hasCap[i] = ed.Capacity > 0
	}
	for i := range r.srcs {
		r.srcs[i] = NodeID(i)
	}
	return r, nil
}

// Epochs returns the number of completed recomputes.
func (r *Router) Epochs() int { return r.epochs }

// NextHop returns the first-hop edge from src toward dst, or NoEdge when
// dst is unreachable under the last recompute's liveness. Call Recompute
// at least once first.
//
//dhllint:hotpath
func (r *Router) NextHop(src, dst NodeID) EdgeID {
	if r.next == nil {
		return NoEdge
	}
	return r.next[src][dst]
}

// getScratch borrows a scratch buffer from the shared pool, growing the
// pool when all buffers are in flight.
func (r *Router) getScratch() *dijkstraScratch {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		s := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return s
	}
	n := len(r.srcs)
	return &dijkstraScratch{
		dist: make([]float64, n), hop: make([]EdgeID, n), done: make([]bool, n),
		// Every push is a strict improvement along one edge, plus the
		// source: the heap never outgrows this.
		heap: make([]heapItem, 0, len(r.to)+1),
	}
}

// putScratch returns a borrowed scratch buffer to the pool.
func (r *Router) putScratch(s *dijkstraScratch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.free = append(r.free, s)
}

// checkInputs rejects a liveness view or queue vector whose length does not
// match the topology. Nil is valid for all three (everything up, no
// congestion).
func (r *Router) checkInputs(live Liveness, queues []int) error {
	n, m := len(r.srcs), len(r.to)
	if live.NodeUp != nil && len(live.NodeUp) != n {
		return fmt.Errorf("%w: %d node liveness flags for %d nodes", ErrBadTopology, len(live.NodeUp), n)
	}
	if live.EdgeUp != nil && len(live.EdgeUp) != m {
		return fmt.Errorf("%w: %d edge liveness flags for %d edges", ErrBadTopology, len(live.EdgeUp), m)
	}
	if queues != nil && len(queues) != m {
		return fmt.Errorf("%w: %d queue depths for %d edges", ErrBadTopology, len(queues), m)
	}
	return nil
}

// Recompute rebuilds the full next-hop table from the current liveness and
// entry-queue snapshot. queues[e] is the number of carts waiting to enter
// edge e; nil means no congestion. Inputs of the wrong length fail with
// ErrBadTopology before any work. Edge costs and usability are computed
// once, then one Dijkstra per source node, mapped over the sweep pool,
// writes its row of the spare table; the tables swap only when every row
// is written. Recompute must not run concurrently with itself or NextHop.
func (r *Router) Recompute(ctx context.Context, live Liveness, queues []int) error {
	if err := r.checkInputs(live, queues); err != nil {
		return err
	}
	for e := range r.cost {
		q := 0.0
		if queues != nil {
			q = float64(queues[e])
		}
		r.cost[e] = r.base[e] * (1 + r.alpha*q)
		r.ok[e] = r.usable(EdgeID(e), live)
	}
	if r.spare == nil {
		n := len(r.srcs)
		r.spare = make([][]EdgeID, n)
		for i := range r.spare {
			r.spare[i] = make([]EdgeID, n)
		}
	}
	out := r.spare
	_, err := sweep.Map(ctx, r.srcs, func(_ context.Context, src NodeID) (struct{}, error) {
		s := r.getScratch()
		defer r.putScratch(s)
		r.dijkstra(s, src, live.NodeUp)
		copy(out[src], s.hop)
		return struct{}{}, nil
	}, sweep.Workers(r.workers))
	if err != nil {
		return err
	}
	r.next, r.spare = out, r.next
	r.epochs++
	return nil
}

// usable reports whether edge e may carry traffic under live: the edge is
// up, has capacity at all, and its destination node is up. (The source
// node's liveness gates departures in the dispatch layer; a dead node's
// table row is cleared in dijkstra.)
func (r *Router) usable(e EdgeID, live Liveness) bool {
	if !r.hasCap[e] {
		return false
	}
	if live.EdgeUp != nil && !live.EdgeUp[e] {
		return false
	}
	if live.NodeUp != nil && !live.NodeUp[r.to[e]] {
		return false
	}
	return true
}

// dijkstra fills s.hop with the first-hop edge from src to every node,
// reading this epoch's r.cost and r.ok. The frontier is a lazy-deletion
// binary heap on (dist, NodeID), so the next settled node is the
// unfinished node with the smallest (dist, NodeID) — the settle order of a
// plain O(N²) scan. A node is pushed only on a strict improvement; edges
// relax in ascending EdgeID order; and an exactly-equal-cost alternative
// wins only when its first-hop EdgeID is smaller, which updates the hop
// alone — the explicit tie-break the equal-cost determinism test pins.
func (r *Router) dijkstra(s *dijkstraScratch, src NodeID, nodeUp []bool) {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.hop[i] = NoEdge
		s.done[i] = false
	}
	if nodeUp != nil && !nodeUp[src] {
		return // a dead node routes nowhere
	}
	s.dist[src] = 0
	s.heap = append(s.heap[:0], heapItem{d: 0, n: src})
	for len(s.heap) > 0 {
		u := s.pop()
		if s.done[u] {
			continue // stale: settled via a shorter entry
		}
		s.done[u] = true
		du := s.dist[u]
		for _, e := range r.topo.out[u] {
			if !r.ok[e] {
				continue
			}
			v := r.to[e]
			if s.done[v] {
				continue
			}
			nd := du + r.cost[e]
			fh := s.hop[u]
			if u == src {
				fh = e
			}
			if nd < s.dist[v] {
				s.dist[v] = nd
				s.hop[v] = fh
				s.push(heapItem{d: nd, n: v})
				continue
			}
			//dhllint:allow floateq -- exact-equality tie-break: both sides are sums of the identical cost terms, and the smaller-first-hop rule only needs to fire on bit-equal ties to stay deterministic
			if nd == s.dist[v] && fh < s.hop[v] {
				s.hop[v] = fh
			}
		}
	}
}

// before orders heap items by (dist, NodeID).
func (a heapItem) before(b heapItem) bool {
	if a.d < b.d {
		return true
	}
	return !(b.d < a.d) && a.n < b.n
}

// push adds it to the frontier.
func (s *dijkstraScratch) push(it heapItem) {
	h := append(s.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

// pop removes the frontier's (dist, NodeID)-smallest item and returns its
// node.
func (s *dijkstraScratch) pop() NodeID {
	h := s.heap
	top := h[0].n
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		c := l
		if r := l + 1; r < len(h) && h[r].before(h[l]) {
			c = r
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.heap = h
	return top
}
