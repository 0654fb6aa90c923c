// Package graph implements the weighted undirected graphs used for road
// networks (mobility substrate) and for expected-meeting-delay matrices
// (routing substrate). It provides heap-based Dijkstra for sparse road
// graphs and an array-keyed edge-list Dijkstra for meeting-delay rows.
package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
)

// Graph is a weighted undirected graph over vertices 0..n-1 with adjacency
// lists. Edge weights must be non-negative.
type Graph struct {
	n   int
	adj [][]Edge
}

// Edge is a weighted half-edge stored in an adjacency list.
type Edge struct {
	To     int
	Weight float64
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts an undirected edge between u and v. It panics on a
// negative weight or out-of-range vertex.
func (g *Graph) AddEdge(u, v int, w float64) {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %g", w))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
}

// Neighbors returns the adjacency list of u (shared; do not mutate).
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Degree returns the number of half-edges at u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// HasEdge reports whether an edge u-v exists.
func (g *Graph) HasEdge(u, v int) bool {
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// item is a priority-queue entry for Dijkstra.
type item struct {
	v    int
	dist float64
}

type pq []item

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(item)) }
func (q *pq) Pop() any          { old := *q; n := len(old); x := old[n-1]; *q = old[:n-1]; return x }

// Dijkstra returns the shortest-path distance from src to every vertex and
// the predecessor array. Unreachable vertices have distance +Inf and
// predecessor -1.
func (g *Graph) Dijkstra(src int) (dist []float64, prev []int) {
	dist = make([]float64, g.n)
	prev = make([]int, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{v: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(item)
		if it.dist > dist[it.v] {
			continue // stale entry
		}
		for _, e := range g.adj[it.v] {
			nd := it.dist + e.Weight
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.v
				heap.Push(q, item{v: e.To, dist: nd})
			}
		}
	}
	return dist, prev
}

// Path reconstructs the vertex sequence from src to dst given a predecessor
// array produced by Dijkstra(src). It returns nil if dst is unreachable.
func Path(prev []int, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if prev[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ShortestPath returns the vertex sequence and total weight of the shortest
// path from src to dst, or (nil, +Inf) if unreachable.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64) {
	dist, prev := g.Dijkstra(src)
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	return Path(prev, src, dst), dist[dst]
}

// Connected reports whether every vertex is reachable from vertex 0.
// An empty graph is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.n
}

// PathCache memoises shortest paths on a fixed graph. Bus movement asks
// for the same stop-to-stop paths thousands of times per run. It is safe
// for concurrent use: sharded tick workers and memoised road maps shared
// across pooled simulations all query one cache.
type PathCache struct {
	g  *Graph
	mu sync.RWMutex
	// paths is written once per key under mu; the slices themselves are
	// immutable after insertion.
	paths map[[2]int][]int
}

// NewPathCache returns a cache over g.
func NewPathCache(g *Graph) *PathCache {
	return &PathCache{g: g, paths: make(map[[2]int][]int)}
}

// Path returns the cached shortest path from src to dst (nil if
// unreachable). The returned slice is shared; callers must not mutate it.
// Concurrent callers racing on a miss each compute the (deterministic)
// path outside the lock, but every caller receives the first slice stored,
// so one canonical slice per key circulates.
func (c *PathCache) Path(src, dst int) []int {
	key := [2]int{src, dst}
	c.mu.RLock()
	p, ok := c.paths[key]
	c.mu.RUnlock()
	if ok {
		return p
	}
	p, _ = c.g.ShortestPath(src, dst)
	c.mu.Lock()
	if q, ok := c.paths[key]; ok {
		p = q
	} else {
		c.paths[key] = p
	}
	c.mu.Unlock()
	return p
}

// MinProbCost floors MaxProp's Σ(1−p) edge weight max(1−p, MinProbCost),
// so a certain link (p >= 1) still costs something and path costs stay
// strictly increasing.
const MinProbCost = 1e-9

// EdgeDijkstra runs Dijkstra over vertices 0..n-1, n = len(dist), and
// writes shortest-path distances from src into dist (+Inf where
// unreachable). It returns the number of vertices settled, src included.
//
// row(u) returns u's out-edges. An edge relaxes only if its weight is
// > 0: zero, negative and NaN weights are "no edge", and +Inf never
// improves a distance. row is called once per settled vertex and its
// slice is read only until the next call, so callers hand over the
// compact rows they already hold — MEMD's shared MI rows, MaxProp's
// published cost rows — instead of materialising an n×n matrix. key is
// caller-provided scratch of length n, so per-contact callers allocate
// nothing per run. This is the MEMD computation of Theorem 3.
//
// The kernel works on integer keys: the IEEE bits of non-negative floats
// order like their values, so a relaxation is an unsigned min and needs
// no branch on the current distance. A settled vertex holds key 0, which
// min never raises, and selection is the argmin of key−1, which wraps 0
// to the maximum so settled vertices are never picked again; ties go to
// the lowest id. Final distances do not depend on tie order (each is the
// min over settled in-neighbours of dist[u]+w), so they are bit-identical
// to any other Dijkstra over the same edges.
func EdgeDijkstra(row func(u int) []Edge, src int, dist []float64, key []uint64) int {
	n := len(dist)
	if len(key) != n {
		panic("graph: EdgeDijkstra scratch length mismatch")
	}
	inf := math.Inf(1)
	infKey := math.Float64bits(inf)
	for i := range key {
		key[i] = infKey
		dist[i] = inf
	}
	settled := 0
	u, best := src, 0.0
	for {
		dist[u] = best
		key[u] = 0
		settled++
		for _, e := range row(u) {
			if e.Weight > 0 {
				key[e.To] = min(key[e.To], math.Float64bits(best+e.Weight))
			}
		}
		// Only keys in [1, infKey) — reached, unsettled — pass the test.
		// Even and odd ids run as two independent min chains, halving the
		// scan's dependency chain; the merge keeps the lowest-id tie.
		next, nk := -1, infKey-1
		odd, ok := -1, infKey-1
		v := 0
		for ; v+1 < n; v += 2 {
			a, b := key[v]-1, key[v+1]-1
			if a < nk {
				next, nk = v, a
			}
			if b < ok {
				odd, ok = v+1, b
			}
		}
		if v < n && key[v]-1 < nk {
			next, nk = v, key[v]-1
		}
		if ok < nk || (ok == nk && odd < next) {
			next, nk = odd, ok
		}
		if next < 0 {
			return settled
		}
		u, best = next, math.Float64frombits(nk+1)
	}
}
