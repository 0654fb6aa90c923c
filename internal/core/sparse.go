package core

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the sparse half of the estimator core: city-scale
// implementations of the MeetingStore contract and the MEMD computation
// whose state grows with the number of *observed* peers instead of the
// network size. Real urban contact graphs are sparse — each node ever meets
// a tiny fraction of the population — so per-row storage proportional to
// recorded meetings recovers the paper's protocols at 10⁴+ nodes where the
// dense n×n matrices cannot even be allocated.

// SparseRow is one node's published row in a sparse link-state store: the
// (peer, value) pairs the row's owner has actually observed, kept ascending
// by peer id, plus the freshness timestamp the merge protocol compares.
// Ascending order matters beyond lookup speed: every simulation-visible
// float reduction over a row (normalisation sums, Dijkstra relaxations)
// must visit entries in the same order as the dense implementation visits
// column indices, or dense/sparse parity breaks on float associativity.
type SparseRow struct {
	// Updated is the row's last-refresh time; -1 = never published.
	Updated float64

	// ver stamps the store-local version of the row's last mutation (own
	// refresh via Touch, or merge copy) for delta digests; see exchange.go.
	ver uint64

	peers []int32
	vals  []float64
}

// Len returns the number of stored entries.
func (r *SparseRow) Len() int { return len(r.peers) }

// Get returns the stored value for peer.
func (r *SparseRow) Get(peer int) (float64, bool) {
	i := sort.Search(len(r.peers), func(i int) bool { return int(r.peers[i]) >= peer })
	if i < len(r.peers) && int(r.peers[i]) == peer {
		return r.vals[i], true
	}
	return 0, false
}

// Set inserts or overwrites the value for peer, keeping the row sorted.
func (r *SparseRow) Set(peer int, v float64) {
	i := sort.Search(len(r.peers), func(i int) bool { return int(r.peers[i]) >= peer })
	if i < len(r.peers) && int(r.peers[i]) == peer {
		r.vals[i] = v
		return
	}
	r.peers = append(r.peers, 0)
	r.vals = append(r.vals, 0)
	copy(r.peers[i+1:], r.peers[i:])
	copy(r.vals[i+1:], r.vals[i:])
	r.peers[i] = int32(peer)
	r.vals[i] = v
}

// Reset drops all entries, retaining capacity.
func (r *SparseRow) Reset() {
	r.peers = r.peers[:0]
	r.vals = r.vals[:0]
}

// Append adds an entry that must sort after every stored one — the bulk
// path for callers iterating peers in ascending order.
func (r *SparseRow) Append(peer int, v float64) {
	if n := len(r.peers); n > 0 && int(r.peers[n-1]) >= peer {
		panic(fmt.Sprintf("core: SparseRow.Append out of order: %d after %d", peer, r.peers[n-1]))
	}
	r.peers = append(r.peers, int32(peer))
	r.vals = append(r.vals, v)
}

// ForEach visits the entries in ascending peer order.
func (r *SparseRow) ForEach(f func(peer int, v float64)) {
	for i, p := range r.peers {
		f(int(p), r.vals[i])
	}
}

// Sum returns the ascending-order sum of the stored values — bit-identical
// to a dense row scan, whose absent entries contribute exact 0.0 no-ops.
func (r *SparseRow) Sum() float64 {
	sum := 0.0
	for _, v := range r.vals {
		sum += v
	}
	return sum
}

// Div divides every stored value by x, in ascending order.
func (r *SparseRow) Div(x float64) {
	for i := range r.vals {
		r.vals[i] /= x
	}
}

// copyFrom overwrites r with o's entries and freshness, reusing capacity.
func (r *SparseRow) copyFrom(o *SparseRow) {
	r.peers = append(r.peers[:0], o.peers...)
	r.vals = append(r.vals[:0], o.vals...)
	r.Updated = o.Updated
}

// SparseRows is a set of sparse rows keyed by owner id with the per-row
// freshness merge of Algorithm 1 line 4 — the sparse counterpart of the
// dense matrix's rows+updated arrays. The sparse MI store and MaxProp's
// flooded probability vectors both build on it.
//
// An optional MaxRows cap (SetCap) bounds the set for long-horizon runs:
// when a merge would grow the set past the cap, the rows with the oldest
// freshness timestamps — the stalest link state, least likely to still
// describe the network — are evicted first, except the pinned own row,
// which always survives. Evicted knowledge can always be re-learned from a
// fresher gossip; capping trades a little routing accuracy for a hard
// memory bound.
type SparseRows struct {
	rows    map[int]*SparseRow
	maxRows int // 0 = unbounded
	pin     int // owner id never evicted; -1 = none

	// Delta-gossip bookkeeping (see exchange.go): version counts local
	// row mutations, evictGen counts cap evictions, seen records the
	// local version as of the end of the last delta sync with each peer,
	// and evictSeen the local eviction generation as of the start of that
	// sync — a peer whose counterpart evicted since they last met gets a
	// full digest, which keeps delta outcomes identical to fresher-wins
	// even under row caps.
	version   uint64
	evictGen  uint64
	seen      map[int]uint64
	evictSeen map[int]uint64
}

// NewSparseRows returns an empty, unbounded row set.
func NewSparseRows() *SparseRows {
	return &SparseRows{rows: make(map[int]*SparseRow), pin: -1}
}

// SetCap bounds the set to maxRows rows (0 = unbounded), never evicting
// the row owned by pin (-1 = none). An over-full set is trimmed
// immediately.
func (s *SparseRows) SetCap(maxRows, pin int) {
	s.maxRows = maxRows
	s.pin = pin
	s.evictOverCap()
}

// Len returns the number of stored rows (published or learned).
func (s *SparseRows) Len() int { return len(s.rows) }

// evictOverCap removes stalest rows until the cap is respected: the victim
// is the row with the smallest (Updated, owner id), never the pinned one.
// The full scan per eviction is fine — evictions are rare (one per
// over-cap merge insertion) and rows are at most maxRows+merge size.
func (s *SparseRows) evictOverCap() {
	if s.maxRows <= 0 {
		return
	}
	for len(s.rows) > s.maxRows {
		victim, found := 0, false
		for id, r := range s.rows {
			if id == s.pin {
				continue
			}
			if !found || r.Updated < s.rows[victim].Updated ||
				(r.Updated == s.rows[victim].Updated && id < victim) {
				victim, found = id, true
			}
		}
		if !found {
			return // only the pinned row remains
		}
		delete(s.rows, victim)
		s.evictGen++
	}
}

// Touch records a local mutation of row r (which must belong to s), so
// delta digests re-advertise it. Publishers must call it after rebuilding
// a row in place.
func (s *SparseRows) Touch(r *SparseRow) {
	s.version++
	r.ver = s.version
}

// Row returns owner's row, or nil if the set holds none.
func (s *SparseRows) Row(owner int) *SparseRow { return s.rows[owner] }

// Ensure returns owner's row, creating an empty never-published one if
// absent.
func (s *SparseRows) Ensure(owner int) *SparseRow {
	r := s.rows[owner]
	if r == nil {
		r = &SparseRow{Updated: -1}
		s.rows[owner] = r
	}
	return r
}

// KnownRows returns how many rows have ever been published.
func (s *SparseRows) KnownRows() int {
	n := 0
	for _, r := range s.rows {
		if r.Updated >= 0 {
			n++
		}
	}
	return n
}

// MergeFresher copies into s every row of o that is strictly fresher,
// returning the exchange volume (rows copied, entries carried, serialized
// bytes). Map iteration order is fine here: row copies are independent, so
// no simulation-visible float order depends on it — and the exchange
// counters are order-independent sums. A configured cap (SetCap) is
// enforced after the merge, stalest rows first.
func (s *SparseRows) MergeFresher(o *SparseRows) ExchangeStats {
	return s.mergeFresherDelta(o, 0, true)
}

// mergeFresherDelta is MergeFresher restricted to the rows o advertised: a
// row travels only if o mutated it since the peers' last delta sync
// (or.ver > oSeen), or unconditionally with oFull (a full digest — the
// first sync, an eviction fallback, or plain MergeFresher). Restricting to
// advertised rows loses nothing: a sound watermark means every
// strictly-fresher row is advertised, which deltaEquivalence in
// exchange_test.go pins.
func (s *SparseRows) mergeFresherDelta(o *SparseRows, oSeen uint64, oFull bool) ExchangeStats {
	var st ExchangeStats
	for id, or := range o.rows {
		if or.Updated < 0 {
			continue // never-published rows don't travel
		}
		if !oFull && or.ver <= oSeen {
			continue // not advertised: unchanged since the peers last met
		}
		mine := s.rows[id]
		if mine == nil {
			mine = &SparseRow{Updated: -1}
			s.rows[id] = mine
		}
		if or.Updated > mine.Updated {
			mine.copyFrom(or)
			s.version++
			mine.ver = s.version
			st.AddRow(or.Len())
		}
	}
	s.evictOverCap()
	return st
}

// SparseMeetingStore implements MeetingStore with per-row storage over
// observed peers only: rows exist once published (own refresh) or learned
// (freshness merge), and each row holds only the finite intervals its owner
// recorded. An optional scope restricts the store to a node subset — CR's
// intra-community MI — exactly like a dense matrix over scoped ids.
type SparseMeetingStore struct {
	size  int
	scope map[int]struct{} // nil = all of 0..size-1
	rows  *SparseRows
}

// NewSparseMeetingStore returns an empty sparse store covering nodes
// 0..n-1.
func NewSparseMeetingStore(n int) *SparseMeetingStore {
	return &SparseMeetingStore{size: n, rows: NewSparseRows()}
}

// NewScopedSparseMeetingStore returns an empty sparse store covering
// exactly the given global node ids.
func NewScopedSparseMeetingStore(ids []int) *SparseMeetingStore {
	return NewSharedScopeSparseMeetingStore(NewScopeSet(ids))
}

// ScopeSet is a prebuilt node-id set for scoped sparse stores. Stores only
// read it, so one set can back every store with the same scope — CR shares
// one per community instead of rebuilding a members map per node, which at
// metro scale (100k nodes, communities of thousands) is the difference
// between an O(n·|community|) and an O(n) world build.
type ScopeSet map[int]struct{}

// NewScopeSet builds the id set for NewSharedScopeSparseMeetingStore,
// rejecting duplicate ids.
func NewScopeSet(ids []int) ScopeSet {
	scope := make(ScopeSet, len(ids))
	for _, id := range ids {
		if _, dup := scope[id]; dup {
			panic(fmt.Sprintf("core: duplicate id %d in sparse meeting store", id))
		}
		scope[id] = struct{}{}
	}
	return scope
}

// NewSharedScopeSparseMeetingStore returns an empty sparse store covering
// exactly the ids in scope. The set may be shared across stores and must
// not be mutated afterwards.
func NewSharedScopeSparseMeetingStore(scope ScopeSet) *SparseMeetingStore {
	return &SparseMeetingStore{size: len(scope), scope: scope, rows: NewSparseRows()}
}

// SetMaxRows bounds the store to maxRows rows (0 = unbounded) with
// stale-row eviction, never evicting self's own row — the long-horizon
// memory cap of Scenario.MaxSparseRows. Capping changes which link state a
// node retains, so it is off by default; summaries remain deterministic
// for any fixed cap.
func (s *SparseMeetingStore) SetMaxRows(maxRows, self int) {
	s.rows.SetCap(maxRows, self)
}

// StoredRows returns the number of rows currently held (published or
// learned) — the quantity MaxRows bounds.
func (s *SparseMeetingStore) StoredRows() int { return s.rows.Len() }

// Size implements MeetingStore.
func (s *SparseMeetingStore) Size() int { return s.size }

// Covers implements MeetingStore.
func (s *SparseMeetingStore) Covers(id int) bool {
	if s.scope == nil {
		return id >= 0 && id < s.size
	}
	_, ok := s.scope[id]
	return ok
}

// Interval implements MeetingStore.
func (s *SparseMeetingStore) Interval(a, b int) float64 {
	if !s.Covers(a) || !s.Covers(b) {
		return Unknown
	}
	if a == b {
		return 0
	}
	row := s.rows.Row(a)
	if row == nil {
		return Unknown
	}
	if v, ok := row.Get(b); ok {
		return v
	}
	return Unknown
}

// RowUpdated implements MeetingStore.
func (s *SparseMeetingStore) RowUpdated(id int) float64 {
	row := s.rows.Row(id)
	if row == nil {
		return -1
	}
	return row.Updated
}

// KnownRows implements MeetingStore.
func (s *SparseMeetingStore) KnownRows() int { return s.rows.KnownRows() }

// UpdateOwnRow implements MeetingStore: rebuild the row owned by self from
// its contact history at time t, covering only in-scope peers with at least
// one recorded interval.
func (s *SparseMeetingStore) UpdateOwnRow(self int, t float64, h *History) {
	if !s.Covers(self) {
		panic(fmt.Sprintf("core: node %d not covered by sparse meeting store", self))
	}
	row := s.rows.Ensure(self)
	row.Reset()
	h.forEachMet(func(peer int) {
		if !s.Covers(peer) {
			return
		}
		if mean, ok := h.MeanInterval(peer); ok {
			row.Append(peer, mean)
		}
	})
	row.Updated = t
	s.rows.Touch(row)
}

// ForEachKnown implements MeetingStore: every stored entry is a finite
// recorded average, so the row is visited verbatim.
func (s *SparseMeetingStore) ForEachKnown(owner int, f func(peer int, interval float64)) {
	if row := s.rows.Row(owner); row != nil {
		row.ForEach(f)
	}
}

// SyncSparse merges a and b into the identical element-wise fresher rows,
// the sparse counterpart of SyncPair. It returns the combined exchange
// volume of both directions. With row caps the post-merge stores are no
// longer necessarily identical — each keeps its own freshest cap-full.
func SyncSparse(a, b *SparseMeetingStore) ExchangeStats {
	st := a.rows.MergeFresher(b.rows)
	st.Add(b.rows.MergeFresher(a.rows))
	return st
}

// dijItem is a pending (distance, vertex) heap entry.
type dijItem struct {
	d  float64
	id int32
}

// SparseDijkstra runs heap-based Dijkstra over an implicit sparse graph
// given by an edge callback, with reusable scratch: the distance map and
// the heap persist across runs so steady-state computations allocate only
// on growth. The heap is bounded by the reached vertex set — the recorded
// contact graph — never by the network size.
type SparseDijkstra struct {
	dist map[int]float64
	heap []dijItem
}

// NewSparseDijkstra returns a calculator with empty scratch.
func NewSparseDijkstra() *SparseDijkstra {
	return &SparseDijkstra{dist: make(map[int]float64)}
}

// Run computes shortest-path distances from src. For each settled vertex u,
// edges(u, relax) must invoke relax once per outgoing edge; non-positive
// and +Inf weights are ignored ("no edge"), matching the dense Dijkstra's
// edge test, so callers may pass raw rows. Distances are bit-identical to
// the dense computation over the equivalent matrix: with strictly positive
// weights, every final distance is the minimum over dist[u]+w(u,v) of the
// settled in-neighbours, independent of settle-order tie-breaks. It
// returns the number of vertices settled: every reached vertex, src
// included.
func (d *SparseDijkstra) Run(src int, edges func(u int, relax func(v int, w float64))) int {
	clear(d.dist)
	d.heap = d.heap[:0]
	d.dist[src] = 0
	d.push(dijItem{d: 0, id: int32(src)})
	base := 0.0
	relax := func(v int, w float64) {
		if w <= 0 || math.IsInf(w, 1) {
			return
		}
		nd := base + w
		if cur, ok := d.dist[v]; !ok || nd < cur {
			d.dist[v] = nd
			d.push(dijItem{d: nd, id: int32(v)})
		}
	}
	for len(d.heap) > 0 {
		it := d.pop()
		if it.d > d.dist[int(it.id)] {
			continue // stale entry; the vertex settled at a smaller distance
		}
		base = it.d
		edges(int(it.id), relax)
	}
	return len(d.dist)
}

// Dist returns the distance to v from the last Run. ok is false when v was
// not reached.
func (d *SparseDijkstra) Dist(v int) (float64, bool) {
	dist, ok := d.dist[v]
	return dist, ok
}

// ForEachReached visits every vertex reached by the last Run, in map order
// — callers feeding simulation state must store into an order-insensitive
// structure (a map) rather than reduce over the iteration.
func (d *SparseDijkstra) ForEachReached(f func(v int, dist float64)) {
	for v, dist := range d.dist {
		f(v, dist)
	}
}

// push inserts an item, maintaining the (distance, id) min-heap order.
func (d *SparseDijkstra) push(it dijItem) {
	d.heap = append(d.heap, it)
	i := len(d.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !dijLess(d.heap[i], d.heap[p]) {
			break
		}
		d.heap[i], d.heap[p] = d.heap[p], d.heap[i]
		i = p
	}
}

// pop removes and returns the minimum item.
func (d *SparseDijkstra) pop() dijItem {
	top := d.heap[0]
	n := len(d.heap) - 1
	d.heap[0] = d.heap[n]
	d.heap = d.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && dijLess(d.heap[l], d.heap[small]) {
			small = l
		}
		if r < n && dijLess(d.heap[r], d.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		d.heap[i], d.heap[small] = d.heap[small], d.heap[i]
		i = small
	}
	return top
}

func dijLess(a, b dijItem) bool {
	return a.d < b.d || (a.d == b.d && a.id < b.id)
}

// SparseMEMD computes minimum expected meeting delays (Theorem 3) over the
// recorded-edge graph of a sparse store: the holder's row comes from its
// Theorem-2 elapsed-conditioned EMDs, every other row from the gossiped MI
// averages, exactly as in the dense MEMD — but the Dijkstra touches only
// recorded edges, so a contact costs O(E log V) over the observed contact
// graph instead of O(n²) over the population.
type SparseMEMD struct {
	dij   *SparseDijkstra
	valid bool
}

// NewSparseMEMD returns a calculator with empty scratch. Unlike the dense
// MEMD it is not sized to a network: one instance serves any store.
func NewSparseMEMD() *SparseMEMD {
	return &SparseMEMD{dij: NewSparseDijkstra()}
}

// Compute runs the Theorem-3 Dijkstra from self at time t. Subsequent
// Delay calls answer from the result. It returns the number of vertices
// settled.
func (m *SparseMEMD) Compute(self int, t float64, h *History, mi MeetingStore) int {
	settled := m.dij.Run(self, func(u int, relax func(v int, w float64)) {
		if u == self {
			// Own row: elapsed-time-conditioned EMDs (Theorem 2), scoped to
			// the store's coverage like a dense row over scoped ids.
			h.forEachMet(func(peer int) {
				if !mi.Covers(peer) {
					return
				}
				if d, ok := h.EMD(peer, t); ok {
					relax(peer, d)
				}
			})
			return
		}
		mi.ForEachKnown(u, relax)
	})
	m.valid = true
	return settled
}

// ComputeStoreOnly builds every row, including the holder's, from the
// store's published mean intervals — the MEED-style A2 ablation, which the
// dense MEMD.ComputeStoreOnly runs over the MI rows themselves. It returns
// the number of vertices settled.
func (m *SparseMEMD) ComputeStoreOnly(self int, mi MeetingStore) int {
	settled := m.dij.Run(self, func(u int, relax func(v int, w float64)) {
		mi.ForEachKnown(u, relax)
	})
	m.valid = true
	return settled
}

// Delay returns the minimum expected meeting delay from the node of the
// last Compute to dst: +Inf for unreached destinations, 0 for the holder
// itself. It panics if Compute was never called.
func (m *SparseMEMD) Delay(dst int) float64 {
	if !m.valid {
		panic("core: SparseMEMD.Delay before Compute")
	}
	if d, ok := m.dij.Dist(dst); ok {
		return d
	}
	return math.Inf(1)
}

// ForEachReached visits every destination with a finite delay, in map
// order; see SparseDijkstra.ForEachReached for the determinism caveat.
func (m *SparseMEMD) ForEachReached(f func(dst int, delay float64)) {
	if !m.valid {
		panic("core: SparseMEMD.ForEachReached before Compute")
	}
	m.dij.ForEachReached(f)
}
