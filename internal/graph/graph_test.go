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

// TestEdgeDijkstraMatchesHeap cross-checks the edge-list kernel against
// the heap implementation on random undirected graphs.
func TestEdgeDijkstraMatchesHeap(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Bool(0.6) {
					g.AddEdge(i, j, rng.Uniform(0.1, 10))
				}
			}
		}
		src := rng.Intn(n)
		want, _ := g.Dijkstra(src)
		dist := make([]float64, n)
		EdgeDijkstra(g.Neighbors, src, dist, make([]uint64, n))
		for v := 0; v < n; v++ {
			if math.Float64bits(want[v]) != math.Float64bits(dist[v]) {
				t.Fatalf("trial %d: dist[%d] = %g, want %g", trial, v, dist[v], want[v])
			}
		}
	}
}

func TestEdgeDijkstraAsymmetric(t *testing.T) {
	// Directed weights: 0->1 cheap, 1->0 expensive; Dijkstra from 0 uses
	// row 0.
	rows := [][]Edge{
		{{To: 1, Weight: 1}},
		{{To: 0, Weight: 100}, {To: 2, Weight: 2}},
		{{To: 1, Weight: 2}},
	}
	dist := make([]float64, 3)
	if settled := EdgeDijkstra(edgeRows(rows), 0, dist, make([]uint64, 3)); settled != 3 {
		t.Errorf("settled %d vertices, want 3", settled)
	}
	if dist[0] != 0 || dist[1] != 1 || dist[2] != 3 {
		t.Errorf("dist = %v, want [0 1 3]", dist)
	}
}

func TestEdgeDijkstraLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EdgeDijkstra(edgeRows(make([][]Edge, 2)), 0, make([]float64, 2), make([]uint64, 1))
}

// edgeRows is the row accessor of a materialised edge-list table.
func edgeRows(rows [][]Edge) func(u int) []Edge {
	return func(u int) []Edge { return rows[u] }
}
