package routing

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/xrand"
)

// matrixMaxPropCost is the dense cost path refreshCost replaced: build the
// full n×n Σ(1−p) weight matrix (+Inf for no edge, unknown rows and the
// diagonal), then run DenseDijkstra over it.
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
	dist := make([]float64, n)
	graph.DenseDijkstra(func(u int) []float64 { return w[u] }, graph.Weights, src, dist, make([]int32, n+1))
	return dist
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

// TestMaxPropCostMatchesMatrixPath pins the dense refreshCost, which
// derives each row's weights while Dijkstra settles it, bit-for-bit
// against the matrix-building path on randomized probability matrices:
// unknown rows (whose stale probabilities must be ignored), all-zero
// rows, and p ≥ 1 clamps. Routers of one size share one scratch across
// refreshes, as a world's routers do.
func TestMaxPropCostMatchesMatrixPath(t *testing.T) {
	rng := xrand.New(11)
	shared := map[int]*maxPropShared{}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		if shared[n] == nil {
			shared[n] = newMaxPropShared(n)
		}
		r := NewMaxProp()
		r.Self = &network.Node{ID: rng.Intn(n)}
		r.scratch = shared[n]
		r.probs = make([][]float64, n)
		r.updated = make([]float64, n)
		r.cost = make([]float64, n)
		for u := range r.probs {
			r.probs[u] = make([]float64, n)
			r.updated[u] = rng.Uniform(0, 100)
			switch x := rng.Float64(); {
			case x < 0.2:
				r.updated[u] = -1 // unknown row with stale entries
				randomProbRow(rng, r.probs[u])
			case x < 0.3:
				// all-zero known row: no out-edges
			default:
				randomProbRow(rng, r.probs[u])
			}
		}
		r.refreshCost()
		want := matrixMaxPropCost(r.probs, r.updated, r.Self.ID)
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
