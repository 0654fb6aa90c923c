package network

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// randWalk is a bounded random-walk mover: each tick it steps up to
// maxStep metres in a random direction inside a rect that may span
// negative coordinates. Its speed respects maxStep/dt, which lets tests
// exercise the conservative re-check scheduler with a true bound.
type randWalk struct {
	pos     geo.Point
	rect    geo.Rect
	maxStep float64
	rng     *xrand.Source
}

func (m *randWalk) Pos() geo.Point { return m.pos }
func (m *randWalk) Step(dt float64) geo.Point {
	dx := m.rng.Uniform(-m.maxStep, m.maxStep)
	dy := m.rng.Uniform(-m.maxStep, m.maxStep)
	m.pos = m.rect.Clamp(geo.Point{X: m.pos.X + dx, Y: m.pos.Y + dy})
	return m.pos
}

// bruteForcePairs returns the naive O(N²) in-range pair set.
func bruteForcePairs(w *World) map[[2]int32]bool {
	r2 := w.cfg.Range * w.cfg.Range
	want := map[[2]int32]bool{}
	nodes := w.Nodes()
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if nodes[i].Pos().Dist2(nodes[j].Pos()) <= r2 {
				want[[2]int32{int32(i), int32(j)}] = true
			}
		}
	}
	return want
}

// linkPairs returns the engine's active contact pair set.
func linkPairs(w *World) map[[2]int32]bool {
	got := map[[2]int32]bool{}
	for _, l := range w.linkList {
		got[[2]int32{int32(l.a.ID), int32(l.b.ID)}] = true
	}
	return got
}

func comparePairSets(t *testing.T, tick int, want, got map[[2]int32]bool) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Fatalf("tick %d: engine missed in-range pair %v", tick, p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("tick %d: engine reports out-of-range pair %v", tick, p)
		}
	}
}

// buildParityWorld places n random walkers in a rect spanning negative
// coordinates, dense enough that contacts constantly form and break.
func buildParityWorld(t *testing.T, cfg Config, n int, maxStep float64, seed int64) (*World, *sim.Runner) {
	t.Helper()
	runner := sim.NewRunner(1)
	w := New(cfg, runner)
	rect := geo.NewRect(geo.Point{X: -120, Y: -90}, geo.Point{X: 140, Y: 110})
	root := xrand.New(seed)
	for i := 0; i < n; i++ {
		rng := root.Derive(fmt.Sprintf("walker-%d", i))
		start := geo.Point{
			X: rng.Uniform(rect.Min.X, rect.Max.X),
			Y: rng.Uniform(rect.Min.Y, rect.Max.Y),
		}
		mv := &randWalk{pos: start, rect: rect, maxStep: maxStep, rng: rng}
		w.AddNode(mv, buffer.New(0, nil), &probe{})
	}
	w.Start()
	return w, runner
}

// TestIncrementalGridParityRandomized proves the incremental grid plus
// re-check scheduler reproduces the naive O(N²) in-range pair set exactly,
// tick by tick, over randomized motion crossing negative coordinates.
func TestIncrementalGridParityRandomized(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		step float64
	}{
		// MaxSpeed 0: every tracked pair re-checked every tick.
		{"noSpeedBound", Config{Range: 10, Bandwidth: 1000}, 9},
		// MaxSpeed set: conservative skips active. maxStep 4 at dt 1 s
		// means per-axis speed <= 4, so euclidean speed <= 4·sqrt(2) < 6.
		{"speedBound", Config{Range: 10, Bandwidth: 1000, MaxSpeed: 6}, 4},
		// Large steps relative to the 10 m cells: nodes hop several cells
		// per tick, stressing discovery via cell-change rescans.
		{"cellHopping", Config{Range: 10, Bandwidth: 1000}, 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, runner := buildParityWorld(t, tc.cfg, 60, tc.step, 7)
			for tick := 1; tick <= 400; tick++ {
				runner.Run(float64(tick))
				comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
			}
		})
	}
}

// TestIncrementalGridParityTeleport stresses the scheduler with movers
// that jump arbitrarily far in one tick — the worst case for incremental
// tracking (no speed bound configured, so no skip may be unsafe).
func TestIncrementalGridParityTeleport(t *testing.T) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	root := xrand.New(11)
	for i := 0; i < 40; i++ {
		rng := root.Derive(fmt.Sprintf("tp-%d", i))
		mv := &teleporter{rng: rng}
		mv.Step(0)
		w.AddNode(mv, buffer.New(0, nil), &probe{})
	}
	w.Start()
	for tick := 1; tick <= 300; tick++ {
		runner.Run(float64(tick))
		comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
	}
}

// teleporter jumps to a uniformly random point in a small arena each
// tick, so far pairs can be in range one tick later.
type teleporter struct {
	pos geo.Point
	rng *xrand.Source
}

func (m *teleporter) Pos() geo.Point { return m.pos }
func (m *teleporter) Step(float64) geo.Point {
	m.pos = geo.Point{X: m.rng.Uniform(-40, 40), Y: m.rng.Uniform(-40, 40)}
	return m.pos
}

// TestUpdateContactsZeroAllocSteadyState proves a static fleet ticks with
// zero steady-state heap allocations in the contact path.
func TestUpdateContactsZeroAllocSteadyState(t *testing.T) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	// A grid of stationary nodes, some in range of each other.
	for i := 0; i < 30; i++ {
		x := float64(i%6) * 7
		y := float64(i/6) * 7
		w.AddNode(fixed(x, y), buffer.New(0, nil), &probe{})
	}
	w.Start()
	// Warm up: first ticks insert nodes, establish contacts and size the
	// wheel and scratch buffers.
	tick := 0.0
	for i := 0; i < wheelSize*2; i++ {
		tick++
		w.Tick(tick)
	}
	allocs := testing.AllocsPerRun(200, func() {
		tick++
		w.Tick(tick)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocates %.1f objects per tick, want 0", allocs)
	}
}

// TestPairSetModes exercises both pairSet representations.
func TestPairSetModes(t *testing.T) {
	for _, n := range []int{100, pairSetBitsetLimit + 1} {
		var s pairSet
		s.init(n)
		if !s.add(3, 77) {
			t.Fatal("first add reported duplicate")
		}
		if s.add(3, 77) {
			t.Fatal("duplicate add reported new")
		}
		s.remove(3, 77)
		if !s.add(3, 77) {
			t.Fatal("add after remove reported duplicate")
		}
	}
}

// TestGridGrowthAndReclaim drives one node across 800 fresh cells, so the
// cell index grows through many extents until the sweeper leaves the
// capped extent for the overflow, with a pinned pair proving contacts
// survive every growth. Emptied buckets are freed at once: at every tick
// the grid holds exactly the occupied cells' buckets.
func TestGridGrowthAndReclaim(t *testing.T) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	sweepMover := &scriptMover{at: func(tt float64) geo.Point {
		// Visit a fresh distant cell every tick.
		return geo.Point{X: 25 * tt, Y: -60 * tt}
	}}
	w.AddNode(sweepMover, buffer.New(0, nil), &probe{})
	w.AddNode(fixed(3, 3), buffer.New(0, nil), &probe{})
	w.AddNode(fixed(6, 3), buffer.New(0, nil), &probe{})
	w.Start()
	g := &w.grid
	growths := 0
	w0, h0 := g.w, g.h
	for tick := 1; tick <= 800; tick++ {
		runner.Run(float64(tick))
		if len(w.linkList) != 1 {
			t.Fatalf("tick %d: pinned contact lost during grid growth (links=%d)", tick, len(w.linkList))
		}
		// The pinned pair shares one cell; the sweeper holds another.
		if live := g.liveBuckets(); live != 2 {
			t.Fatalf("tick %d: %d live buckets, want 2", tick, live)
		}
		if g.w != w0 || g.h != h0 {
			growths++
			w0, h0 = g.w, g.h
		}
	}
	if growths < 10 {
		t.Fatalf("index extent grew %d times, want >= 10", growths)
	}
	if int(g.w)*int(g.h) > gridIndexMaxCells {
		t.Fatalf("index extent %dx%d exceeds the %d-cell cap", g.w, g.h, gridIndexMaxCells)
	}
	if len(g.overflow) != 1 {
		t.Fatalf("overflow holds %d cells, want the sweeper's one", len(g.overflow))
	}
	occupied := len(g.overflow)
	for _, ref := range g.index {
		if ref != 0 {
			occupied++
		}
	}
	if occupied != 2 {
		t.Fatalf("cell index and overflow map %d cells, want 2", occupied)
	}
}

// TestGridOverflowRoundTrip parks nodes far beyond the index cap and
// brings them back: far cells live in the overflow while occupied,
// contacts there are still detected, and the overflow empties again. The
// first bucketed node starts parked, so the extent is first anchored far
// away and must move to the arena once nothing live is indexed there.
func TestGridOverflowRoundTrip(t *testing.T) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	park := geo.Point{X: 1e7, Y: -1e7}
	mover := func(home geo.Point, parked func(tick float64) bool) *scriptMover {
		return &scriptMover{at: func(tt float64) geo.Point {
			if parked(tt) {
				return geo.Point{X: park.X + home.X, Y: park.Y}
			}
			return home
		}}
	}
	// Node 0 anchors the extent at the parking spot, then returns to a
	// cell of its own; nodes 1 and 2 park together later.
	w.AddNode(mover(geo.Point{X: 25}, func(tt float64) bool { return tt <= 5 }), buffer.New(0, nil), &probe{})
	later := func(tt float64) bool { return tt > 10 && tt <= 20 }
	w.AddNode(mover(geo.Point{}, later), buffer.New(0, nil), &probe{})
	w.AddNode(mover(geo.Point{X: 5}, later), buffer.New(0, nil), &probe{})
	w.Start()
	for tick := 1; tick <= 30; tick++ {
		runner.Run(float64(tick))
		comparePairSets(t, tick, bruteForcePairs(w), linkPairs(w))
		// Ticks 1-5: the arena cell (nodes 1, 2) is the far one; 11-20:
		// the parked pair's cell is.
		wantOverflow := 0
		if tick <= 5 || tick > 10 && tick <= 20 {
			wantOverflow = 1
		}
		if len(w.grid.overflow) != wantOverflow {
			t.Fatalf("tick %d: overflow holds %d cells, want %d", tick, len(w.grid.overflow), wantOverflow)
		}
		if tick > 5 && !w.grid.inExtent(0, 0) {
			t.Fatalf("tick %d: the extent did not move to the arena", tick)
		}
	}
	if int(w.grid.w)*int(w.grid.h) > 9*gridIndexMinSpan*gridIndexMinSpan {
		t.Fatalf("parked nodes stretched the index to %dx%d", w.grid.w, w.grid.h)
	}
}

// TestReplayWorldAllocatesNoCellIndex pins that a scripted (trace-replay)
// world never buckets a node, so it allocates neither the cell index nor
// any bucket.
func TestReplayWorldAllocatesNoCellIndex(t *testing.T) {
	runner := sim.NewRunner(1)
	w := New(Config{Range: 10, Bandwidth: 1000}, runner)
	for i := 0; i < 4; i++ {
		w.AddNode(fixed(float64(i)*5, 0), buffer.New(0, nil), &probe{})
	}
	w.SetContactScript([]ScriptEvent{{Tick: 2, Up: true, A: 0, B: 1}, {Tick: 5, Up: false, A: 0, B: 1}})
	w.Start()
	runner.Run(10)
	if w.Metrics.Summary().Contacts != 1 {
		t.Fatalf("replay fired %d contacts, want 1", w.Metrics.Summary().Contacts)
	}
	if w.grid.index != nil || w.grid.overflow != nil || w.grid.liveBuckets() != 0 || w.grid.cellOf != nil {
		t.Fatal("scripted world allocated broad-phase state")
	}
}
