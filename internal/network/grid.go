package network

import (
	"math"

	"repro/internal/geo"
)

// This file is the engine's broad phase: a persistent, incrementally
// maintained spatial grid plus a conservative pair re-check scheduler.
//
// The previous implementation rebuilt a map[uint64][]int32 spatial hash
// from scratch every tick and distance-tested every 3x3-neighbourhood
// candidate pair, which dominated whole-run CPU profiles. The incremental
// design exploits two facts:
//
//  1. Nodes cross cell boundaries rarely (a bus at 13.9 m/s crosses a
//     10 m cell every ~3 ticks at the paper's 0.25 s tick, and not at all
//     while dwelling), so bucket membership is nearly static. The grid
//     keeps every node bucketed across ticks and re-buckets only on cell
//     change.
//
//  2. A pair at distance D with per-node speed bound vmax cannot come
//     into radio range R before (D-R)/(2*vmax) seconds elapse, so a pair
//     seen far apart provably needs no distance test for many ticks.
//     Checks are parked on a timing wheel and each check reschedules the
//     next one as far out as the bound allows.
//
// Correctness does not depend on the speed bound: a pair whose cells are
// not adjacent (Chebyshev distance > 1) is strictly farther apart than one
// cell (= R), and becoming adjacent requires one of the two nodes to
// change cell, which triggers a neighbourhood rescan that (re-)tracks the
// pair the very tick it happens. The speed bound only stretches re-check
// intervals for pairs already known to the tracker; with MaxSpeed == 0
// (unknown bound, e.g. scripted or trace-replay movers) tracked pairs are
// simply re-checked every tick.
//
// Cell index: buckets live in per-region pools, and a dense index of one
// int32 per cell over the occupied extent maps each non-empty cell to its
// bucket, so a 3x3 neighbourhood is nine array reads. A bucket is freed
// the moment it empties; its backing array is kept on the pool's free list,
// so the steady state allocates nothing. The index is allocated by the
// first insertion (scripted worlds never bucket a node, so they allocate
// none) and grows like a slice when a node leaves the extent. Cells whose
// inclusion would push the extent past gridIndexMaxCells — nodes parked
// far outside the map — live in a small hash overflow of live cells.
//
// Sub-grids (sharded worlds): the bucket pools are split into `regions`
// over a static spatial partition — vertical stripes of gridStripeCells
// cells, striped round-robin across regions. A cell's region depends only
// on its x coordinate, so region membership is a pure function of
// position and never migrates. The sharded tick path re-buckets movers
// whose source and destination cells lie in one region and inside the
// index extent on one goroutine per region: every write then touches only
// that region's pool and its own index cells. Everything else — region
// crossings, index growth, overflow cells — falls back to the serial
// merge. See shard.go for the phase structure and DESIGN.md for the
// safety argument.

// gridPool is one region's bucket pool: buckets[b] holds the nodes
// currently inside one grid cell, in ascending id order so scans are
// deterministic. free lists the emptied buckets awaiting reuse.
type gridPool struct {
	buckets [][]int32
	free    []int32
}

// cellGrid is the persistent spatial hash over node positions with cell
// size equal to the radio range, so in-range pairs always sit in the same
// or adjacent cells.
type cellGrid struct {
	cell    float64
	regions int   // region (bucket pool) count; 1 = unpartitioned
	stripe  int32 // stripe width of the static partition, in cells
	pools   []gridPool

	// index[(cx-x0)*h + (cy-y0)] is 1 + the bucket number of cell (cx, cy)
	// in its region's pool, 0 when the cell is empty, for cells inside the
	// extent [x0, x0+w) × [y0, y0+h). nil until the first insertion.
	x0, y0, w, h int32
	index        []int32
	overflow     map[uint64]int32 // cells outside the extent, same encoding

	cellOf    []uint64 // per node: packed cell key of the current bucket
	bucketOf  []int32  // per node: bucket number in its region's pool, -1 if none
	prevCell  []uint64 // per node: cell key before the last cell change
	prevValid []bool   // per node: prevCell holds a real cell (not first insertion)
	moveEpoch []uint64 // per node: epoch of the last cell change
	epoch     uint64   // advanced once per tick by the world
}

// gridStripeCells is the stripe width of the static spatial partition in
// cells; tests shrink it to force boundary traffic.
const gridStripeCells = 32

// gridIndexMaxCells caps the dense index at 32 MiB; gridIndexMinSpan is
// the side of the first extent and the least a growth adds to a side.
const (
	gridIndexMaxCells = 1 << 23
	gridIndexMinSpan  = 32
)

func (g *cellGrid) init(cell float64, regions int) {
	g.cell = cell
	if regions < 1 {
		regions = 1
	}
	g.regions = regions
	g.stripe = gridStripeCells
	g.pools = make([]gridPool, regions)
}

// ensure sizes the per-node bookkeeping for n nodes.
func (g *cellGrid) ensure(n int) {
	for len(g.cellOf) < n {
		g.cellOf = append(g.cellOf, 0)
		g.bucketOf = append(g.bucketOf, -1)
		g.prevCell = append(g.prevCell, 0)
		g.prevValid = append(g.prevValid, false)
		g.moveEpoch = append(g.moveEpoch, 0)
	}
}

func cellKeyOf(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

func cellOfKey(key uint64) (cx, cy int32) {
	return int32(uint32(key >> 32)), int32(uint32(key))
}

// cellAt returns the cell containing pos.
func (g *cellGrid) cellAt(pos geo.Point) (cx, cy int32) {
	return int32(math.Floor(pos.X / g.cell)), int32(math.Floor(pos.Y / g.cell))
}

// floorDiv32 is floored (not truncated) integer division for b > 0, so
// stripes tile negative coordinates seamlessly.
func floorDiv32(a, b int32) int32 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// regionOfCx returns the region owning cell column cx: stripes of g.stripe
// columns assigned round-robin across regions.
func (g *cellGrid) regionOfCx(cx int32) int {
	if g.regions == 1 {
		return 0
	}
	r := int(floorDiv32(cx, g.stripe)) % g.regions
	if r < 0 {
		r += g.regions
	}
	return r
}

// inExtent reports whether cell (cx, cy) has a slot in the dense index.
func (g *cellGrid) inExtent(cx, cy int32) bool {
	return uint64(int64(cx)-int64(g.x0)) < uint64(g.w) && uint64(int64(cy)-int64(g.y0)) < uint64(g.h)
}

// ref returns 1 + the bucket number of cell (cx, cy), 0 when it is empty.
func (g *cellGrid) ref(cx, cy int32) int32 {
	if g.inExtent(cx, cy) {
		return g.index[int(cx-g.x0)*int(g.h)+int(cy-g.y0)]
	}
	if len(g.overflow) == 0 {
		return 0
	}
	return g.overflow[cellKeyOf(cx, cy)]
}

// setRef records cell (cx, cy)'s bucket reference (0 = empty). A cell
// outside the extent first tries to grow it; cells beyond the cap go to
// the overflow.
func (g *cellGrid) setRef(cx, cy int32, ref int32) {
	if !g.inExtent(cx, cy) && ref != 0 {
		g.grow(cx, cy)
	}
	if g.inExtent(cx, cy) {
		g.index[int(cx-g.x0)*int(g.h)+int(cy-g.y0)] = ref
		return
	}
	if ref == 0 {
		delete(g.overflow, cellKeyOf(cx, cy))
		return
	}
	if g.overflow == nil {
		g.overflow = make(map[uint64]int32)
	}
	g.overflow[cellKeyOf(cx, cy)] = ref
}

// grow widens the extent to cover cell (cx, cy). Each side that must move
// moves by at least half the current span, so a sweeping node costs
// amortised O(1) copies per cell; the padding shrinks as the extent nears
// gridIndexMaxCells. A cell that does not fit even unpadded is left to
// the overflow, unless no live cell is indexed: then the extent moves to
// it. Overflow cells the new extent covers move into it.
func (g *cellGrid) grow(cx, cy int32) {
	fits := func(x0, x1, y0, y1 int64) bool {
		return (x1-x0)*(y1-y0) <= gridIndexMaxCells &&
			x0 >= math.MinInt32 && x1 <= math.MaxInt32 && y0 >= math.MinInt32 && y1 <= math.MaxInt32
	}
	old, ox0, oy0, ow, oh := g.index, int64(g.x0), int64(g.y0), int64(g.w), int64(g.h)
	x0, x1, y0, y1 := int64(cx), int64(cx)+1, int64(cy), int64(cy)+1
	if old != nil {
		x0, x1 = min(x0, ox0), max(x1, ox0+ow)
		y0, y1 = min(y0, oy0), max(y1, oy0+oh)
	}
	if !fits(x0, x1, y0, y1) {
		x0, x1, y0, y1 = int64(cx), int64(cx)+1, int64(cy), int64(cy)+1
		// The bucket being placed is allocated but not yet counted in
		// the overflow.
		if old == nil || g.liveBuckets() > len(g.overflow)+1 || !fits(x0, x1, y0, y1) {
			return
		}
		old, ow, oh = nil, 0, 0
	}
	padX, padY := max(ow/2, gridIndexMinSpan), max(oh/2, gridIndexMinSpan)
	for ; ; padX, padY = padX/2, padY/2 {
		nx0, nx1, ny0, ny1 := x0, x1, y0, y1
		if old == nil || nx0 < ox0 {
			nx0 -= padX
		}
		if old == nil || nx1 > ox0+ow {
			nx1 += padX
		}
		if old == nil || ny0 < oy0 {
			ny0 -= padY
		}
		if old == nil || ny1 > oy0+oh {
			ny1 += padY
		}
		// The unpadded box fits, so this terminates.
		if fits(nx0, nx1, ny0, ny1) {
			x0, x1, y0, y1 = nx0, nx1, ny0, ny1
			break
		}
	}
	g.x0, g.y0, g.w, g.h = int32(x0), int32(y0), int32(x1-x0), int32(y1-y0)
	g.index = make([]int32, int(g.w)*int(g.h))
	for c := int64(0); c < ow; c++ {
		dst := int(ox0+c-x0)*int(g.h) + int(oy0-y0)
		copy(g.index[dst:dst+int(oh)], old[c*oh:(c+1)*oh])
	}
	for key, ref := range g.overflow {
		if ocx, ocy := cellOfKey(key); g.inExtent(ocx, ocy) {
			g.index[int(ocx-g.x0)*int(g.h)+int(ocy-g.y0)] = ref
			delete(g.overflow, key)
		}
	}
}

// liveBuckets counts the allocated, not yet freed, buckets: one per
// occupied cell.
func (g *cellGrid) liveBuckets() int {
	n := 0
	for _, p := range g.pools {
		n += len(p.buckets) - len(p.free)
	}
	return n
}

// cellNodes returns the nodes bucketed in cell (cx, cy), nil if none.
func (g *cellGrid) cellNodes(cx, cy int32) []int32 {
	ref := g.ref(cx, cy)
	if ref == 0 {
		return nil
	}
	return g.pools[g.regionOfCx(cx)].buckets[ref-1]
}

// neighborhood fills nb with the buckets of the 3x3 cells around
// (cx, cy), nil for empty cells; nb[k] is the cell at offset
// (k/3-1, k%3-1). A neighbourhood inside the extent is three runs of
// three adjacent index cells.
func (g *cellGrid) neighborhood(cx, cy int32, nb *[9][]int32) {
	if !g.inExtent(cx-1, cy-1) || !g.inExtent(cx+1, cy+1) {
		for k := range nb {
			nb[k] = g.cellNodes(cx+int32(k/3)-1, cy+int32(k%3)-1)
		}
		return
	}
	base := int(cx-1-g.x0)*int(g.h) + int(cy-1-g.y0)
	for dx := 0; dx < 3; dx++ {
		buckets := g.pools[g.regionOfCx(cx+int32(dx)-1)].buckets
		col := g.index[base : base+3]
		for dy, ref := range col {
			nb[dx*3+dy] = nil
			if ref != 0 {
				nb[dx*3+dy] = buckets[ref-1]
			}
		}
		base += int(g.h)
	}
}

// update re-buckets node i at position pos and reports whether its cell
// changed (including first insertion). The sharded path calls it from one
// goroutine per region for movers rebucketParallelSafe vouched for, and
// serially for everything else.
func (g *cellGrid) update(i int32, pos geo.Point) bool {
	cx, cy := g.cellAt(pos)
	key := cellKeyOf(cx, cy)
	if g.bucketOf[i] >= 0 && g.cellOf[i] == key {
		return false
	}
	if g.bucketOf[i] >= 0 {
		g.prevCell[i] = g.cellOf[i]
		g.prevValid[i] = true
		g.removeFromBucket(i)
	} else {
		g.prevValid[i] = false
	}
	g.moveEpoch[i] = g.epoch
	pool := &g.pools[g.regionOfCx(cx)]
	ref := g.ref(cx, cy)
	if ref == 0 {
		if n := len(pool.free); n > 0 {
			ref = pool.free[n-1] + 1
			pool.free = pool.free[:n-1]
		} else {
			pool.buckets = append(pool.buckets, nil)
			ref = int32(len(pool.buckets))
		}
		g.setRef(cx, cy, ref)
	}
	// Insert keeping ascending id order (buckets are small).
	s := append(pool.buckets[ref-1], i)
	for k := len(s) - 1; k > 0 && s[k-1] > i; k-- {
		s[k], s[k-1] = s[k-1], s[k]
	}
	pool.buckets[ref-1] = s
	g.cellOf[i] = key
	g.bucketOf[i] = ref - 1
	return true
}

// rebucketParallelSafe reports whether re-bucketing node i into cell
// (cx, cy) touches only that cell's region: its bucket pool and its own
// index cells. That holds when the source cell (if any) and the
// destination cell lie in the same region and inside the index extent, so
// neither growth nor the overflow is involved. Only region goroutines,
// which never move the extent, run between this check and the re-bucket.
func (g *cellGrid) rebucketParallelSafe(i int32, cx, cy int32) bool {
	if g.regions == 1 {
		return true
	}
	if !g.inExtent(cx, cy) {
		return false
	}
	if g.bucketOf[i] < 0 {
		return true
	}
	scx, scy := cellOfKey(g.cellOf[i])
	return g.inExtent(scx, scy) && g.regionOfCx(scx) == g.regionOfCx(cx)
}

// removeFromBucket takes node i out of its current bucket, preserving
// order, and frees the bucket if it emptied.
func (g *cellGrid) removeFromBucket(i int32) {
	cx, cy := cellOfKey(g.cellOf[i])
	pool := &g.pools[g.regionOfCx(cx)]
	b := g.bucketOf[i]
	s := pool.buckets[b]
	for k, id := range s {
		if id == i {
			s = append(s[:k], s[k+1:]...)
			break
		}
	}
	pool.buckets[b] = s
	if len(s) == 0 {
		g.setRef(cx, cy, 0)
		pool.free = append(pool.free, b)
	}
	g.bucketOf[i] = -1
}

// --- pair re-check scheduler ---

// wheelSize is the horizon of the re-check timing wheel in ticks. Skips
// are capped at wheelSize-1 so every parked check lands within one wheel
// revolution, which keeps slot membership unambiguous without storing due
// ticks.
const wheelSize = 64

// pairKey packs a canonical (a<b) pair.
func pairKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// pairSched parks candidate pairs on a timing wheel until their next
// provably-necessary distance check. The tracked set holds exactly the
// pairs with one parked check; everything else is guaranteed non-adjacent
// on the grid and is rediscovered by cell-change rescans.
type pairSched struct {
	wheel   [wheelSize][]uint64
	tracked pairSet
}

func (ps *pairSched) init(n int) { ps.tracked.init(n) }

// track parks a check for pair (a,b) at the given tick unless the pair is
// already tracked. It reports whether the pair was newly tracked.
func (ps *pairSched) track(a, b int32, tick uint64) bool {
	if !ps.tracked.add(a, b) {
		return false
	}
	slot := tick % wheelSize
	ps.wheel[slot] = append(ps.wheel[slot], pairKey(a, b))
	return true
}

// reschedule parks the next check of an already-tracked pair.
func (ps *pairSched) reschedule(key uint64, tick uint64) {
	slot := tick % wheelSize
	ps.wheel[slot] = append(ps.wheel[slot], key)
}

// untrack removes the pair from the tracked set; its parked check must be
// the one currently firing (it is simply not rescheduled).
func (ps *pairSched) untrack(a, b int32) { ps.tracked.remove(a, b) }

// pairSet is a set of canonical node pairs. For realistic fleet sizes it
// is a flat n*n bitset (~7 KB at the paper's largest 240-node scale); for
// very large fleets it falls back to a hash set to avoid quadratic memory.
type pairSet struct {
	n     int
	words []uint64            // bitset mode: bit a*n+b
	m     map[uint64]struct{} // fallback mode
}

// pairSetBitsetLimit caps bitset mode at n*n = 64M bits (8 MB).
const pairSetBitsetLimit = 8192

func (s *pairSet) init(n int) {
	s.n = n
	if n <= pairSetBitsetLimit {
		s.words = make([]uint64, (n*n+63)/64)
		return
	}
	s.m = make(map[uint64]struct{})
}

// add inserts pair (a<b) and reports whether it was absent.
func (s *pairSet) add(a, b int32) bool {
	if s.words != nil {
		bit := uint64(a)*uint64(s.n) + uint64(b)
		w, m := bit/64, uint64(1)<<(bit%64)
		if s.words[w]&m != 0 {
			return false
		}
		s.words[w] |= m
		return true
	}
	k := pairKey(a, b)
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = struct{}{}
	return true
}

// has reports whether pair (a<b) is present. It is read-only, so shard
// workers may call it concurrently while no tracker mutation runs.
func (s *pairSet) has(a, b int32) bool {
	if s.words != nil {
		bit := uint64(a)*uint64(s.n) + uint64(b)
		return s.words[bit/64]&(uint64(1)<<(bit%64)) != 0
	}
	_, ok := s.m[pairKey(a, b)]
	return ok
}

func (s *pairSet) remove(a, b int32) {
	if s.words != nil {
		bit := uint64(a)*uint64(s.n) + uint64(b)
		s.words[bit/64] &^= uint64(1) << (bit % 64)
		return
	}
	delete(s.m, pairKey(a, b))
}
