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
// The MD matrix is scratch space reused across computations; only the MI
// matrix persists per node.
//
// This is the dense half of the Theorem-3 machinery: O(n²) per contact
// over a *MeetingMatrix, fastest at figure scale. SparseMEMD (sparse.go)
// computes bit-identical delays over any MeetingStore in O(E log V) on the
// recorded contact graph, which is what city-scale worlds use.
type MEMD struct {
	size    int
	selfRow []float64 // scratch for the holder's Theorem-2 row
	dist    []float64
	scratch []int32 // Dijkstra unvisited-list scratch

	// State of the last Compute, consulted by Delay.
	index map[int]int
	valid bool
}

// NewMEMD returns a calculator for matrices of the given size.
func NewMEMD(size int) *MEMD {
	m := &MEMD{size: size}
	m.selfRow = make([]float64, size)
	m.dist = make([]float64, size)
	m.scratch = make([]int32, size+1)
	return m
}

// Compute builds the MD matrix for node self at time t from its history and
// MI, and runs dense Dijkstra from self. Subsequent Delay calls answer from
// the result.
func (m *MEMD) Compute(self int, t float64, h *History, mi *MeetingMatrix) {
	if mi.Size() != m.size {
		panic(fmt.Sprintf("core: MEMD size %d does not match MI size %d", m.size, mi.Size()))
	}
	selfIdx, ok := mi.Index(self)
	if !ok {
		panic(fmt.Sprintf("core: node %d not covered by MI", self))
	}
	ids := mi.IDs()
	// Own row: elapsed-time-conditioned EMDs (Theorem 2).
	row := m.selfRow
	for j, id := range ids {
		if j == selfIdx {
			row[j] = 0
			continue
		}
		if d, got := h.EMD(id, t); got {
			row[j] = d
		} else {
			row[j] = Unknown
		}
	}
	// Other rows: the MI averages stand in for EMDs the node cannot
	// observe (the I_jk substitution of Section III-B.2). Dijkstra only
	// reads the matrix, so it is handed the MI rows themselves instead of
	// a copy — the former n-squared copy per contact dominated MaxProp-
	// and EER-style computations at scale.
	rows := mi.rows
	graph.DenseDijkstra(func(u int) []float64 {
		if u == selfIdx {
			return row
		}
		return rows[u]
	}, graph.Weights, selfIdx, m.dist, m.scratch)
	m.index = mi.idx
	m.valid = true
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
