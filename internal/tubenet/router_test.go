package tubenet

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/units"
)

// diamond builds the four-node tie-break fixture:
//
//	  A(0)
//	 /    \
//	B(1)  C(2)
//	 \    /
//	  D(3)
//
// Both A→B→D and A→C→D cost exactly two identical segments, so the route
// choice is purely the tie-break rule.
func diamond(t *testing.T) (*Topology, []units.Seconds) {
	t.Helper()
	nodes := []Node{
		{Name: "A", Docks: 1}, {Name: "B", Docks: 1},
		{Name: "C", Docks: 1}, {Name: "D", Docks: 1},
	}
	edges := []Edge{
		testEdge(0, 1), // e0: A→B
		testEdge(0, 2), // e1: A→C
		testEdge(1, 3), // e2: B→D
		testEdge(2, 3), // e3: C→D
	}
	topo, err := NewTopology(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topo, base
}

func allUp(topo *Topology) Liveness {
	nu := make([]bool, topo.NumNodes())
	eu := make([]bool, topo.NumEdges())
	for i := range nu {
		nu[i] = true
	}
	for i := range eu {
		eu[i] = true
	}
	return Liveness{NodeUp: nu, EdgeUp: eu}
}

func TestEqualCostTieBreakIsDeterministic(t *testing.T) {
	topo, base := diamond(t)
	r, err := NewRouter(topo, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := allUp(topo)
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	// Equal-cost paths A→B→D and A→C→D: the smaller first-hop EdgeID (e0,
	// via B) must win, on every recompute, at any worker count.
	if got := r.NextHop(0, 3); got != 0 {
		t.Errorf("NextHop(A,D) = e%d, want e0 (smaller first-hop wins ties)", got)
	}
	for workers := 1; workers <= 4; workers++ {
		r2, err := NewRouter(topo, base, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := r2.Recompute(context.Background(), live, nil); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r2.next, r.next) {
				t.Fatalf("workers=%d recompute %d diverged from sequential table", workers, i)
			}
		}
	}
}

func TestRouterSkipsZeroCapacityEdge(t *testing.T) {
	topo, base := diamond(t)
	// Kill the preferred path's first hop by capacity: e0 (A→B) becomes a
	// commissioned-but-closed tube.
	edges := make([]Edge, topo.NumEdges())
	for i := range edges {
		edges[i] = topo.Edge(EdgeID(i))
	}
	edges[0].Capacity = 0
	topo2, err := NewTopology([]Node{
		topo.Node(0), topo.Node(1), topo.Node(2), topo.Node(3),
	}, edges)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(topo2, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Recompute(context.Background(), allUp(topo2), nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != 1 {
		t.Errorf("NextHop(A,D) = e%d, want e1: zero-capacity e0 must never route", got)
	}
	if got := r.NextHop(0, 1); got != NoEdge {
		t.Errorf("NextHop(A,B) = e%d, want NoEdge: B is only reachable over the closed tube", got)
	}
}

func TestCongestionWeightShiftsRoute(t *testing.T) {
	topo, base := diamond(t)
	r, err := NewRouter(topo, base, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A deep queue on e0 makes the B path expensive; the router must shift
	// to e1 even though the tie-break would prefer e0.
	queues := make([]int, topo.NumEdges())
	queues[0] = 5
	if err := r.Recompute(context.Background(), allUp(topo), queues); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != 1 {
		t.Errorf("NextHop(A,D) = e%d, want e1 under congestion on e0", got)
	}
	if got := r.Epochs(); got != 1 {
		t.Errorf("Epochs = %d, want 1", got)
	}
}

func TestRouterExcludesDeadNodesAndEdges(t *testing.T) {
	topo, base := diamond(t)
	r, err := NewRouter(topo, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := allUp(topo)
	live.NodeUp[1] = false // junction B dead
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != 1 {
		t.Errorf("NextHop(A,D) = e%d, want e1 around dead node B", got)
	}
	if got := r.NextHop(0, 1); got != NoEdge {
		t.Errorf("NextHop(A,B) = e%d, want NoEdge to a dead node", got)
	}
	live = allUp(topo)
	live.EdgeUp[0] = false
	live.EdgeUp[1] = false // both first hops dead: full partition from A
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != NoEdge {
		t.Errorf("NextHop(A,D) = e%d, want NoEdge under full partition", got)
	}
	// A dead source routes nowhere at all.
	live = allUp(topo)
	live.NodeUp[0] = false
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != NoEdge {
		t.Errorf("NextHop from dead node = e%d, want NoEdge", got)
	}
}

func TestNewRouterValidation(t *testing.T) {
	topo, base := diamond(t)
	if _, err := NewRouter(nil, nil, 0, 1); err == nil {
		t.Error("nil topology must be rejected")
	}
	if _, err := NewRouter(topo, base[:2], 0, 1); err == nil {
		t.Error("cost/edge length mismatch must be rejected")
	}
	bad := append([]units.Seconds(nil), base...)
	bad[1] = 0
	if _, err := NewRouter(topo, bad, 0, 1); err == nil {
		t.Error("non-positive base cost must be rejected")
	}
	// Unrecomputed router answers NoEdge rather than panicking.
	r, err := NewRouter(topo, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != NoEdge {
		t.Errorf("NextHop before Recompute = %d, want NoEdge", got)
	}
}

func TestRouterOnDefaultCampusReachesEverywhere(t *testing.T) {
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(topo, base, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Recompute(context.Background(), allUp(topo), nil); err != nil {
		t.Fatal(err)
	}
	n := topo.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if r.NextHop(NodeID(s), NodeID(d)) == NoEdge {
				t.Errorf("campus must be fully connected: no route %d→%d", s, d)
			}
		}
	}
}

// ---- reference router -----------------------------------------------------

// scanUsable is the reference edge filter, reading the Edge structs
// directly rather than the router's hoisted fields.
func scanUsable(topo *Topology, e EdgeID, live Liveness) bool {
	if topo.Edge(e).Capacity <= 0 {
		return false
	}
	if live.EdgeUp != nil && !live.EdgeUp[e] {
		return false
	}
	if live.NodeUp != nil && !live.NodeUp[topo.Edge(e).To] {
		return false
	}
	return true
}

// scanDijkstra is the reference the heap-based router is checked against:
// the original scan-based Dijkstra (O(N²)). The next settled node is the
// unfinished node with the smallest (dist, NodeID); edges relax in
// ascending EdgeID order; and an exactly-equal-cost alternative wins only
// when its first-hop EdgeID is smaller.
func scanDijkstra(topo *Topology, s *dijkstraScratch, src NodeID, live Liveness, cost []float64) {
	n := topo.NumNodes()
	for i := 0; i < n; i++ {
		s.dist[i] = math.Inf(1)
		s.hop[i] = NoEdge
		s.done[i] = false
	}
	if live.NodeUp != nil && !live.NodeUp[src] {
		return // a dead node routes nowhere
	}
	s.dist[src] = 0
	for {
		u := NodeID(-1)
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !s.done[i] && s.dist[i] < best {
				best = s.dist[i]
				u = NodeID(i)
			}
		}
		if u < 0 {
			return
		}
		s.done[u] = true
		for _, e := range topo.Out(u) {
			if !scanUsable(topo, e, live) {
				continue
			}
			v := topo.Edge(e).To
			if s.done[v] {
				continue
			}
			nd := s.dist[u] + cost[e]
			fh := s.hop[u]
			if u == src {
				fh = e
			}
			tie := nd == s.dist[v] && fh < s.hop[v]
			if nd < s.dist[v] || tie {
				s.dist[v] = nd
				s.hop[v] = fh
			}
		}
	}
}

// referenceTable is the full next-hop table the router must produce,
// computed sequentially with scanDijkstra.
func referenceTable(topo *Topology, base []units.Seconds, alpha float64, live Liveness, queues []int) [][]EdgeID {
	n := topo.NumNodes()
	cost := make([]float64, topo.NumEdges())
	for e := range cost {
		q := 0.0
		if queues != nil {
			q = float64(queues[e])
		}
		cost[e] = float64(base[e]) * (1 + alpha*q)
	}
	s := &dijkstraScratch{dist: make([]float64, n), hop: make([]EdgeID, n), done: make([]bool, n)}
	out := make([][]EdgeID, n)
	for src := range out {
		scanDijkstra(topo, s, NodeID(src), live, cost)
		out[src] = append([]EdgeID(nil), s.hop...)
	}
	return out
}

// ---- FuzzRouter -------------------------------------------------------------

// fuzzBytes reads a fuzz input one byte at a time; an exhausted input
// reads as zero.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// Fuzz input shapes: a random small graph, or one of the two fixtures.
const (
	fuzzRandom = iota
	fuzzDiamond
	fuzzCampus
	numFuzzShapes
)

// fuzzTopology decodes the graph a FuzzRouter input describes. A random
// graph has 2–12 nodes and up to 30 edges of capacity 0–2 (so zero-
// capacity edges occur) and base costs of 1–4 s (so bit-equal ties
// occur). The fixtures use their physics transit times.
func fuzzTopology(t *testing.T, shape int, in *fuzzBytes) (*Topology, []units.Seconds) {
	t.Helper()
	switch shape {
	case fuzzDiamond:
		return diamond(t)
	case fuzzCampus:
		topo, err := NewCampus(DefaultCampusConfig())
		if err != nil {
			t.Fatal(err)
		}
		base, err := topo.TransitTimes(DefaultCartMass, 0)
		if err != nil {
			t.Fatal(err)
		}
		return topo, base
	}
	n := 2 + in.next()%11
	m := in.next() % 31
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Name: "N", Docks: 1}
	}
	edges := make([]Edge, m)
	base := make([]units.Seconds, m)
	for i := range edges {
		from := NodeID(in.next() % n)
		to := NodeID((int(from) + 1 + in.next()%(n-1)) % n)
		edges[i] = testEdge(from, to)
		edges[i].Capacity = in.next() % 3
		base[i] = units.Seconds(1 + in.next()%4)
	}
	topo, err := NewTopology(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return topo, base
}

// fuzzInputs decodes one recompute's inputs. A flag byte makes each of
// NodeUp, EdgeUp and queues nil (bits 0–2) and picks α (bits 3–4); then a
// count and list of dead nodes, a count and list of dead edges, and one
// queue depth (0–4) per edge.
func fuzzInputs(topo *Topology, in *fuzzBytes) (Liveness, []int, float64) {
	flags := in.next()
	alpha := []float64{0, 0.25, 0.5, 1}[(flags>>3)%4]
	live := allUp(topo)
	for k := in.next() % 4; k > 0; k-- {
		live.NodeUp[in.next()%topo.NumNodes()] = false
	}
	for k := in.next() % 8; k > 0 && topo.NumEdges() > 0; k-- {
		live.EdgeUp[in.next()%topo.NumEdges()] = false
	}
	queues := make([]int, topo.NumEdges())
	for e := range queues {
		queues[e] = in.next() % 5
	}
	if flags&1 != 0 {
		live.NodeUp = nil
	}
	if flags&2 != 0 {
		live.EdgeUp = nil
	}
	if flags&4 != 0 {
		queues = nil
	}
	return live, queues, alpha
}

// FuzzRouter checks the heap-based router against the scan-based
// reference on random small topologies with random liveness and queue
// depths: the full next-hop table must be equal at one and three
// workers. Each router first computes an all-up table, so the second
// recompute also exercises rewriting the reused table in place. The seed
// corpus under testdata/fuzz/FuzzRouter holds the diamond fixture and the
// default campus with one dead junction.
func FuzzRouter(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		in := fuzzBytes(data)
		topo, base := fuzzTopology(t, int(shape)%numFuzzShapes, &in)
		live, queues, alpha := fuzzInputs(topo, &in)
		want := referenceTable(topo, base, alpha, live, queues)
		for _, workers := range []int{1, 3} {
			r, err := NewRouter(topo, base, alpha, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Recompute(context.Background(), Liveness{}, nil); err != nil {
				t.Fatal(err)
			}
			if err := r.Recompute(context.Background(), live, queues); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.next, want) {
				t.Fatalf("workers=%d: table diverges from the scan reference\n got %v\nwant %v", workers, r.next, want)
			}
		}
	})
}

// ---- Recompute contract -----------------------------------------------------

func TestRecomputeRejectsMismatchedInputs(t *testing.T) {
	topo, base := diamond(t)
	r, err := NewRouter(topo, base, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	live := allUp(topo)
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	prev := r.next
	n, m := topo.NumNodes(), topo.NumEdges()
	cases := []struct {
		name   string
		live   Liveness
		queues []int
	}{
		{"short NodeUp", Liveness{NodeUp: make([]bool, n-1)}, nil},
		{"long NodeUp", Liveness{NodeUp: make([]bool, n+1)}, nil},
		{"empty NodeUp", Liveness{NodeUp: []bool{}}, nil},
		{"short EdgeUp", Liveness{EdgeUp: make([]bool, m-1)}, nil},
		{"long EdgeUp", Liveness{EdgeUp: make([]bool, m+1)}, nil},
		{"short queues", live, make([]int, m-1)},
		{"long queues", live, make([]int, m+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := r.Recompute(context.Background(), tc.live, tc.queues)
			if !errors.Is(err, ErrBadTopology) {
				t.Fatalf("Recompute = %v, want ErrBadTopology", err)
			}
			if r.Epochs() != 1 || !reflect.DeepEqual(r.next, prev) {
				t.Fatal("a rejected recompute must leave the previous table live")
			}
		})
	}
	// Nil stays valid for all three inputs.
	if err := r.Recompute(context.Background(), Liveness{}, nil); err != nil {
		t.Fatalf("nil inputs: %v", err)
	}
}

func TestCancelledRecomputeKeepsPreviousTable(t *testing.T) {
	topo, base := diamond(t)
	for _, workers := range []int{1, 3} {
		r, err := NewRouter(topo, base, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Recompute(context.Background(), allUp(topo), nil); err != nil {
			t.Fatal(err)
		}
		want := referenceTable(topo, base, 0, allUp(topo), nil)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		dead := allUp(topo)
		dead.NodeUp[1] = false
		if err := r.Recompute(ctx, dead, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled Recompute = %v, want context.Canceled", workers, err)
		}
		if r.Epochs() != 1 || !reflect.DeepEqual(r.next, want) {
			t.Fatalf("workers=%d: a cancelled recompute replaced the live table", workers)
		}
	}
}

// TestRecomputeWorkerCountsOnDefaultCampus extends the diamond's worker-
// count check to the default campus under congestion and a dead junction:
// every worker count yields the reference table on each of three
// consecutive recomputes over the reused tables.
func TestRecomputeWorkerCountsOnDefaultCampus(t *testing.T) {
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	live := allUp(topo)
	live.NodeUp[2] = false // junction J2
	queues := make([]int, topo.NumEdges())
	for e := range queues {
		queues[e] = (e * 7) % 5
	}
	want := referenceTable(topo, base, 0.25, live, queues)
	for workers := 1; workers <= 4; workers++ {
		r, err := NewRouter(topo, base, 0.25, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := r.Recompute(context.Background(), live, queues); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.next, want) {
				t.Fatalf("workers=%d recompute %d diverged from the reference table", workers, i)
			}
		}
	}
}
