package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/mapgen"
	"repro/internal/obs"
)

// fig2Cells is the fig2_paper input: the six Figure-2 protocols on the
// paper's Section V-A world (120 nodes, bus mobility, 10 000 s) over two
// world seeds derived from the workload seed.
func fig2Cells(o options) []experiment.Scenario {
	var cells []experiment.Scenario
	for _, p := range experiment.AllPaperProtocols {
		for _, seed := range []int64{2*o.seed - 1, 2 * o.seed} {
			s := experiment.Default()
			s.Protocol = p
			s.Seed = seed
			if o.size == "small" {
				s.Nodes, s.Duration = 40, 600
			}
			cells = append(cells, s)
		}
	}
	return cells
}

func cellName(s experiment.Scenario) string { return fmt.Sprintf("%s/seed%d", s.Protocol, s.Seed) }

// runFig2 times map load plus one world build (set-up), then runs all
// cells as one experiment.RunBatch call, the program's own worker pool,
// and times that call. The batch is the workload's one operation. Traced
// repetitions set Scenario.Profile on every cell and run the same call;
// the per-cell figures come from each summary's Timing, whose Seconds
// covers the engine run and not the cell's world build.
func runFig2(o options, tr *tracer) repResult {
	cells := fig2Cells(o)
	r := repResult{Digests: map[string]string{}}

	lane := tr.open(laneSpan, 0)
	t0 := time.Now()
	sp := tr.open("mapgen.Load", lane)
	mapgen.Load(cells[0].Map, cells[0].MapSeed)
	tr.close(sp)
	sp = tr.open("experiment.build", lane)
	cells[0].Build()
	tr.close(sp)
	r.SetupS = time.Since(t0).Seconds()
	tr.close(lane)

	if tr != nil {
		for i := range cells {
			cells[i].Profile = true
		}
	}
	lane = tr.open(laneSpan, 0)
	sp = tr.open("experiment.RunBatch", lane)
	start := time.Now()
	sums := experiment.RunBatch(cells)
	wall := time.Since(start)
	tr.close(sp)
	tr.close(lane)
	r.WallS = wall.Seconds()

	var tm *obs.Timing
	var busy, cellMax float64
	for i, s := range cells {
		r.Attempted++
		r.Digests[cellName(s)] = summaryDigest(sums[i])
		tm = obs.MergeTiming(tm, sums[i].Timing)
		if sums[i].Timing != nil {
			busy += sums[i].Timing.Seconds
			cellMax = max(cellMax, sums[i].Timing.Seconds)
		}
	}
	if tr != nil {
		workers := min(runtime.GOMAXPROCS(0), len(cells))
		r.Layers = engineLayers(sums, tm)
		r.Layers["experiment.pool_busy_frac"] = busy / (float64(workers) * r.WallS)
		r.Layers["experiment.cell_max_s"] = cellMax
		r.Layers["mapgen.load_s"] = tr.seconds("mapgen.Load")
		r.Layers["experiment.build_s"] = tr.seconds("experiment.build")
	}
	return r
}
