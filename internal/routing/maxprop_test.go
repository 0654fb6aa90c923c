package routing

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/xrand"
)

// matrixMaxPropCost is the dense cost path refreshCost replaced: build the
// full n×n Σ(1−p) weight matrix (+Inf for no edge, unknown rows and the
// diagonal), then run a textbook O(n²) Dijkstra over it.
func matrixMaxPropCost(probs [][]float64, updated []float64, src int) []float64 {
	n := len(probs)
	w := make([][]float64, n)
	for u := range w {
		w[u] = make([]float64, n)
		known := updated[u] >= 0
		for v := 0; v < n; v++ {
			p := probs[u][v]
			if u == v || !known || p <= 0 {
				w[u][v] = math.Inf(1)
				continue
			}
			c := 1 - p
			if c < 1e-9 {
				c = 1e-9
			}
			w[u][v] = c
		}
	}
	return matrixDijkstra(w, src)
}

// matrixDijkstra is Dijkstra in its textbook form over a weight matrix
// (+Inf = no edge): settle the closest unvisited vertex, relax its row.
func matrixDijkstra(w [][]float64, src int) []float64 {
	n := len(w)
	dist := make([]float64, n)
	done := make([]bool, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u := -1
		for v := range dist {
			if !done[v] && !math.IsInf(dist[v], 1) && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for v, x := range w[u] {
			if !done[v] && dist[u]+x < dist[v] {
				dist[v] = dist[u] + x
			}
		}
	}
}

// randomProbRow fills one probability row with the cases the cost path
// must handle: absent peers (p = 0), ordinary probabilities, and p ≥ 1
// (including the float neighbours of 1) that clamp to the 1e-9 floor.
func randomProbRow(rng *xrand.Source, row []float64) {
	for v := range row {
		switch x := rng.Float64(); {
		case x < 0.4:
			row[v] = 0
		case x < 0.5:
			row[v] = []float64{1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1 - 1e-10, 3}[rng.Intn(5)]
		default:
			row[v] = rng.Float64()
		}
	}
}

// TestMaxPropCostMatchesMatrixPath pins the dense refreshCost, which runs
// the edge-list Dijkstra over the published cost rows (costRow),
// bit-for-bit against the matrix-building path on randomized probability
// matrices: unpublished rows (whose stale probabilities the matrix path
// must ignore), all-zero rows, and p ≥ 1 clamps. Routers of one size
// share one scratch across refreshes, as a world's routers do.
func TestMaxPropCostMatchesMatrixPath(t *testing.T) {
	rng := xrand.New(11)
	shared := map[int][]uint64{}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		if shared[n] == nil {
			shared[n] = make([]uint64, n)
		}
		r := NewMaxProp()
		r.Self = &network.Node{ID: rng.Intn(n)}
		r.key = shared[n]
		probs := make([][]float64, n)
		r.edges = make([][]graph.Edge, n)
		r.updated = make([]float64, n)
		r.cost = make([]float64, n)
		for u := range probs {
			probs[u] = make([]float64, n)
			r.updated[u] = rng.Uniform(0, 100)
			switch x := rng.Float64(); {
			case x < 0.2:
				r.updated[u] = -1 // unknown row with stale entries
				randomProbRow(rng, probs[u])
				continue
			case x < 0.3:
				// all-zero known row: no out-edges
			default:
				randomProbRow(rng, probs[u])
			}
			r.edges[u] = costRow(probs[u])
		}
		r.refreshCost()
		want := matrixMaxPropCost(probs, r.updated, r.Self.ID)
		for v := range want {
			if math.Float64bits(r.cost[v]) != math.Float64bits(want[v]) {
				t.Fatalf("trial %d (n=%d, src=%d): cost[%d] = %v, matrix path %v", trial, n, r.Self.ID, v, r.cost[v], want[v])
			}
		}
		if !r.costValid {
			t.Fatal("refreshCost left the cost cache invalid")
		}
	}
}

// TestMaxPropSharedRowsSurviveOwnerUpdate is the dense MaxProp analogue
// of core's sharing test: once a router has learned a peer's published
// cost row, the owner's later own-row updates publish new rows and leave
// the learned copy — and the path costs computed from it — unchanged. The
// updates keep each row's length, so a row rewritten in place would show.
func TestMaxPropSharedRowsSurviveOwnerUpdate(t *testing.T) {
	factory := MaxPropFactory(3, false, 0, core.ExchangeFresher)
	h := newHarness(t, 3, func(int) network.Router { return factory() })
	r0 := h.w.Node(0).Router.(*MaxProp)
	r1 := h.w.Node(1).Router.(*MaxProp)
	h.meet(1, 2, 1)
	h.meet(0, 2, 1)
	h.meet(0, 1, 1) // each learns the other's two-entry row
	learned := slices.Clone(r1.edges[0])
	held := slices.Clone(r0.edges[1])
	if len(learned) != 2 || !slices.Equal(learned, r0.edges[0]) {
		t.Fatalf("node 1 did not learn node 0's row: %v vs %v", learned, r0.edges[0])
	}
	cost := r1.Cost(2)
	h.meet(0, 2, 1) // node 0 publishes a new own row; node 1 is away
	if slices.Equal(r0.edges[0], learned) {
		t.Fatal("node 0's own update did not publish a new row")
	}
	if !slices.Equal(r1.edges[0], learned) {
		t.Errorf("node 0's update leaked into node 1's copy: %v, was %v", r1.edges[0], learned)
	}
	r1.costValid = false
	if c := r1.Cost(2); math.Float64bits(c) != math.Float64bits(cost) {
		t.Errorf("node 1's cost to 2 moved from %v to %v without an exchange", cost, c)
	}
	h.meet(1, 2, 1) // node 1 publishes; node 0 is away
	if !slices.Equal(r0.edges[1], held) {
		t.Errorf("node 1's update leaked into node 0's copy: %v, was %v", r0.edges[1], held)
	}
}
