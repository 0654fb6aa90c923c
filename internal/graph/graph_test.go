package graph

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func diamond() *Graph {
	// 0-1 (1), 0-2 (4), 1-2 (1), 1-3 (5), 2-3 (1)
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 4)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 5)
	g.AddEdge(2, 3, 1)
	return g
}

func TestDijkstraDiamond(t *testing.T) {
	g := diamond()
	dist, prev := g.Dijkstra(0)
	want := []float64{0, 1, 2, 3}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %g, want %g", i, dist[i], w)
		}
	}
	path := Path(prev, 0, 3)
	wantPath := []int{0, 1, 2, 3}
	if len(path) != len(wantPath) {
		t.Fatalf("path = %v, want %v", path, wantPath)
	}
	for i := range wantPath {
		if path[i] != wantPath[i] {
			t.Fatalf("path = %v, want %v", path, wantPath)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	dist, prev := g.Dijkstra(0)
	if !math.IsInf(dist[2], 1) {
		t.Errorf("dist to isolated = %g, want +Inf", dist[2])
	}
	if Path(prev, 0, 2) != nil {
		t.Error("path to isolated should be nil")
	}
	if p, d := g.ShortestPath(0, 2); p != nil || !math.IsInf(d, 1) {
		t.Error("ShortestPath to isolated should be nil, +Inf")
	}
}

func TestPathTrivial(t *testing.T) {
	g := diamond()
	_, prev := g.Dijkstra(2)
	p := Path(prev, 2, 2)
	if len(p) != 1 || p[0] != 2 {
		t.Errorf("self path = %v", p)
	}
}

func TestConnected(t *testing.T) {
	g := diamond()
	if !g.Connected() {
		t.Error("diamond should be connected")
	}
	h := New(3)
	h.AddEdge(0, 1, 1)
	if h.Connected() {
		t.Error("graph with isolated vertex reported connected")
	}
	if !New(0).Connected() {
		t.Error("empty graph should count as connected")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	for _, f := range []func(){
		func() { g.AddEdge(0, 1, -1) },
		func() { g.AddEdge(0, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := diamond()
	if !g.HasEdge(0, 1) || g.HasEdge(0, 3) {
		t.Error("HasEdge wrong")
	}
	if g.Degree(1) != 3 {
		t.Errorf("Degree(1) = %d, want 3", g.Degree(1))
	}
}

func TestPathCache(t *testing.T) {
	g := diamond()
	c := NewPathCache(g)
	p1 := c.Path(0, 3)
	p2 := c.Path(0, 3)
	if &p1[0] != &p2[0] {
		t.Error("cache did not return the memoised slice")
	}
	if c.Path(3, 0)[0] != 3 {
		t.Error("reverse path wrong")
	}
}

// TestDenseDijkstraMatchesHeap cross-checks the dense O(n²) variant against
// the heap implementation on random dense graphs.
func TestDenseDijkstraMatchesHeap(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = math.Inf(1)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Bool(0.6) {
					weight := rng.Uniform(0.1, 10)
					g.AddEdge(i, j, weight)
					w[i][j], w[j][i] = weight, weight
				}
			}
		}
		src := rng.Intn(n)
		want, _ := g.Dijkstra(src)
		dist := make([]float64, n)
		DenseDijkstra(matrixRows(w), Weights, src, dist, make([]int32, n+1))
		for v := 0; v < n; v++ {
			if math.IsInf(want[v], 1) != math.IsInf(dist[v], 1) {
				t.Fatalf("trial %d: reachability mismatch at %d", trial, v)
			}
			if !math.IsInf(want[v], 1) && math.Abs(want[v]-dist[v]) > 1e-9 {
				t.Fatalf("trial %d: dist[%d] = %g, want %g", trial, v, dist[v], want[v])
			}
		}
	}
}

func TestDenseDijkstraAsymmetric(t *testing.T) {
	// Directed weights: 0->1 cheap, 1->0 expensive; Dijkstra from 0 uses
	// row 0.
	w := [][]float64{
		{0, 1, math.Inf(1)},
		{100, 0, 2},
		{math.Inf(1), 2, 0},
	}
	dist := make([]float64, 3)
	DenseDijkstra(matrixRows(w), Weights, 0, dist, make([]int32, 4))
	if dist[1] != 1 || dist[2] != 3 {
		t.Errorf("dist = %v, want [0 1 3]", dist)
	}
}

func TestDenseDijkstraLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DenseDijkstra(matrixRows([][]float64{{0}, {0}}), Weights, 0, make([]float64, 2), make([]int32, 2))
}

// matrixRows is the row accessor of a materialised weight matrix.
func matrixRows(w [][]float64) func(u int) []float64 {
	return func(u int) []float64 { return w[u] }
}
