package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// MEMD computes minimum expected meeting delays (Theorem 3). At a contact,
// the holding node builds the MD matrix — its own row from Theorem-2 EMDs,
// every other row approximated by the gossiped MI averages (Section
// III-B.2) — and runs Dijkstra from itself. One computation yields the MEMD
// to every destination, so routers reuse a single Compute per contact for
// all buffered messages.
//
// The holder's row is scratch reused across computations; every other row
// is read in place from the MI matrix's shared compact rows, so nothing
// n×n exists per computation or per node.
//
// This is the dense half of the Theorem-3 machinery: O(n²) per contact
// over a *MeetingMatrix, fastest at figure scale. SparseMEMD (sparse.go)
// computes bit-identical delays over any MeetingStore in O(E log V) on the
// recorded contact graph, which is what city-scale worlds use.
type MEMD struct {
	size    int
	selfRow []graph.Edge // scratch for the holder's compact Theorem-2 row
	dist    []float64
	key     []uint64 // EdgeDijkstra key scratch

	// State of the last Compute, consulted by Delay.
	index map[int]int
	valid bool
}

// NewMEMD returns a calculator for matrices of the given size.
func NewMEMD(size int) *MEMD {
	return &MEMD{
		size:    size,
		selfRow: make([]graph.Edge, 0, size),
		dist:    make([]float64, size),
		key:     make([]uint64, size),
	}
}

// Compute builds the MD matrix for node self at time t from its history and
// MI, and runs Dijkstra from self. Subsequent Delay calls answer from the
// result. It returns the number of vertices the Dijkstra settled.
func (m *MEMD) Compute(self int, t float64, h *History, mi *MeetingMatrix) int {
	selfIdx := m.check(self, mi)
	// Own row: elapsed-time-conditioned EMDs (Theorem 2).
	row := m.selfRow[:0]
	for j, id := range mi.ids {
		if j == selfIdx {
			continue
		}
		if d, got := h.EMD(id, t); got {
			row = append(row, graph.Edge{To: j, Weight: d})
		}
	}
	m.selfRow = row
	// Other rows: the MI averages stand in for EMDs the node cannot
	// observe (the I_jk substitution of Section III-B.2), read in place.
	rows := mi.rows
	return m.run(mi, selfIdx, func(u int) []graph.Edge {
		if u == selfIdx {
			return row
		}
		return rows[u]
	})
}

// ComputeStoreOnly runs the MEMD Dijkstra from self over the MI rows
// alone, the own row included — the MEED-style A2 ablation, whose MD
// matrix is the MI matrix itself. It returns the number of vertices
// settled.
func (m *MEMD) ComputeStoreOnly(self int, mi *MeetingMatrix) int {
	selfIdx := m.check(self, mi)
	rows := mi.rows
	return m.run(mi, selfIdx, func(u int) []graph.Edge { return rows[u] })
}

// check validates mi against the calculator and returns self's local
// index.
func (m *MEMD) check(self int, mi *MeetingMatrix) int {
	if mi.Size() != m.size {
		panic(fmt.Sprintf("core: MEMD size %d does not match MI size %d", m.size, mi.Size()))
	}
	selfIdx, ok := mi.Index(self)
	if !ok {
		panic(fmt.Sprintf("core: node %d not covered by MI", self))
	}
	return selfIdx
}

func (m *MEMD) run(mi *MeetingMatrix, selfIdx int, row func(u int) []graph.Edge) int {
	settled := graph.EdgeDijkstra(row, selfIdx, m.dist, m.key)
	m.index = mi.idx
	m.valid = true
	return settled
}

// Delay returns the minimum expected meeting delay from the node of the
// last Compute to global node dst. It returns +Inf for unreachable or
// uncovered destinations, and panics if Compute was never called.
func (m *MEMD) Delay(dst int) float64 {
	if !m.valid {
		panic("core: MEMD.Delay before Compute")
	}
	j, ok := m.index[dst]
	if !ok {
		return math.Inf(1)
	}
	return m.dist[j]
}

// Distances returns the raw distance vector of the last Compute, indexed by
// MI-local index (shared; do not mutate).
func (m *MEMD) Distances() []float64 {
	if !m.valid {
		panic("core: MEMD.Distances before Compute")
	}
	return m.dist
}
