package experiment

import (
	"context"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// TestProfiledParity pins the profiler's bit-neutrality contract: a
// profiled run's summary, minus the timing block itself, is byte-for-byte
// identical to an unprofiled run's — on the serial and the sharded tick
// path. If instrumentation ever perturbs simulation state (an extra RNG
// draw, a reordered callback), this catches it.
func TestProfiledParity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"serial", 0}, {"sharded", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			s := Quick()
			s.Nodes = 30
			s.Duration = 600
			s.Shards = tc.shards
			want := s.Run()
			if want.Timing != nil {
				t.Fatal("unprofiled run grew a timing block")
			}

			sp := s
			sp.Profile = true
			got := sp.Run()
			if got.Timing == nil {
				t.Fatal("profiled run has no timing block")
			}
			tm := got.Timing
			got.Timing = nil
			wantJSON, _ := json.Marshal(want)
			gotJSON, _ := json.Marshal(got)
			if string(wantJSON) != string(gotJSON) {
				t.Fatalf("profiling changed the summary:\n  off %s\n  on  %s", wantJSON, gotJSON)
			}

			if tm.Runs != 1 || tm.Ticks == 0 {
				t.Fatalf("timing header runs=%d ticks=%d", tm.Runs, tm.Ticks)
			}
			for _, ph := range []string{"mobility", "scan"} {
				if tm.PhaseSeconds(ph) <= 0 {
					t.Fatalf("phase %q booked no time: %+v", ph, tm.Phases)
				}
			}
			if tc.shards > 0 {
				if len(tm.ShardBusySeconds) < tc.shards {
					t.Fatalf("sharded run reported %d shard busy entries, want >= %d", len(tm.ShardBusySeconds), tc.shards)
				}
				if tm.PhaseSeconds("merge") <= 0 {
					t.Fatal("sharded run booked no merge time")
				}
			} else if tm.PhaseSeconds("merge") != 0 {
				t.Fatal("serial run booked merge time")
			}
			if tm.ExchangeCount == 0 {
				t.Fatal("no routing exchanges booked despite contacts")
			}
		})
	}
}

// TestProfiledEstimatorDijkstraCounts pins the estimator Dijkstra
// counters: estimator-driven protocols book runs whose settled vertices
// lie between one (the holder) and the node count per run, in both storage
// modes; a protocol without estimators books none. Profiling stays
// bit-neutral on those paths. MaxProp computes path costs only to order
// copies past its hop threshold, which the small quick world never
// produces, so its cases run 2000 s of the paper's 120-node world.
func TestProfiledEstimatorDijkstraCounts(t *testing.T) {
	for _, tc := range []struct {
		proto  Protocol
		sparse bool
	}{{EER, false}, {EER, true}, {CR, false}, {MaxProp, false}, {MaxProp, true}, {SprayAndWait, false}} {
		s := Quick()
		s.Nodes = 30
		s.Duration = 600
		if tc.proto == MaxProp {
			s = Default()
			s.Duration = 2000
		}
		s.Protocol = tc.proto
		s.SparseEstimators = tc.sparse
		want, _ := json.Marshal(s.Run())
		s.Profile = true
		got := s.Run()
		tm := got.Timing
		got.Timing = nil
		if gotJSON, _ := json.Marshal(got); string(gotJSON) != string(want) {
			t.Fatalf("%s sparse=%v: profiling changed the summary", tc.proto, tc.sparse)
		}
		if tc.proto == SprayAndWait {
			if tm.DijkstraRuns != 0 || tm.DijkstraSettled != 0 {
				t.Fatalf("%s booked estimator Dijkstras: %d runs", tc.proto, tm.DijkstraRuns)
			}
			continue
		}
		if tm.DijkstraRuns == 0 || tm.DijkstraSettled < tm.DijkstraRuns || tm.DijkstraSettled > tm.DijkstraRuns*int64(s.Nodes) {
			t.Fatalf("%s sparse=%v: %d runs settled %d vertices", tc.proto, tc.sparse, tm.DijkstraRuns, tm.DijkstraSettled)
		}
	}
}

// TestProfiledReplayParity runs the trace record/replay path profiled:
// the replayed summary must stay bit-identical to the live run (timing
// stripped), and the replay's timing must book the script phase instead
// of the detector phases.
func TestProfiledReplayParity(t *testing.T) {
	store := openStore(t)
	s := Quick()
	s.Nodes = 24
	s.Duration = 400
	s.Profile = true

	s.Trace = "record"
	live, done, err := runScenario(context.Background(), s, store, nil)
	if err != nil || !done {
		t.Fatalf("record run: done=%v err=%v", done, err)
	}
	s.Trace = "replay"
	replayed, done, err := runScenario(context.Background(), s, store, nil)
	if err != nil || !done {
		t.Fatalf("replay run: done=%v err=%v", done, err)
	}

	liveJSON, _ := json.Marshal(StripTiming([]metrics.Summary{live}))
	repJSON, _ := json.Marshal(StripTiming([]metrics.Summary{replayed}))
	if string(liveJSON) != string(repJSON) {
		t.Fatalf("profiled replay diverged from live:\n  live   %s\n  replay %s", liveJSON, repJSON)
	}
	if live.Timing == nil || live.Timing.PhaseSeconds("mobility") <= 0 {
		t.Fatal("live recording run lacks detector timing")
	}
	tm := replayed.Timing
	if tm == nil {
		t.Fatal("replay run has no timing block")
	}
	if tm.PhaseSeconds("script") <= 0 {
		t.Fatalf("replay booked no script time: %+v", tm.Phases)
	}
	if tm.PhaseSeconds("mobility") != 0 || tm.PhaseSeconds("scan") != 0 {
		t.Fatalf("replay booked detector phases: %+v", tm.Phases)
	}
}

func TestStripTiming(t *testing.T) {
	plain := []metrics.Summary{{Generated: 1}}
	if got := StripTiming(plain); &got[0] != &plain[0] {
		t.Fatal("timing-free input should be returned as-is")
	}
	timed := []metrics.Summary{{Generated: 1, Timing: &obs.Timing{Runs: 1, DijkstraRuns: 3, DijkstraSettled: 90, CellChanges: 500}}, {Generated: 2}}
	got := StripTiming(timed)
	if got[0].Timing != nil || got[1].Timing != nil {
		t.Fatal("timing survived stripping")
	}
	if timed[0].Timing == nil {
		t.Fatal("StripTiming modified its input")
	}
	if got[0].Generated != 1 || got[1].Generated != 2 {
		t.Fatal("stripping altered summary values")
	}
	// Mean over stripped summaries stays timing-free; over profiled ones
	// it folds the blocks.
	if m := metrics.Mean(got); m.Timing != nil {
		t.Fatal("mean of stripped summaries grew timing")
	}
	if m := metrics.Mean(timed); m.Timing == nil || m.Timing.Runs != 1 || m.Timing.DijkstraRuns != 3 || m.Timing.DijkstraSettled != 90 || m.Timing.CellChanges != 500 {
		t.Fatalf("mean of profiled summaries lost timing: %+v", m.Timing)
	}
}

// TestCachedCellIsTimingFree pins that profiled sweep results enter the
// content-addressed store without their timing blocks: the stored bytes
// are identical whether or not the producing run was profiled.
func TestCachedCellIsTimingFree(t *testing.T) {
	sp := ScenarioSpec{
		Nodes:    Ptr(20),
		Duration: Ptr(300.0),
		Seeds:    []int64{1},
		Profile:  Ptr(true),
	}
	cells, err := (SweepSpec{Base: sp}).Cells()
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]
	sums, err := RunSpecContext(context.Background(), cell.Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Timing == nil {
		t.Fatal("profiled cell run produced no timing")
	}
	res, err := CellResultOf(cell, sums)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range res.PerSeed {
		if ps.Timing != nil {
			t.Fatalf("seed %d timing leaked into the cacheable result", i)
		}
	}
	if res.Mean.Timing != nil {
		t.Fatal("mean timing leaked into the cacheable result")
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "" && jsonContains(raw, "timing") {
		t.Fatalf("serialized result mentions timing: %s", raw)
	}
}

func jsonContains(raw []byte, sub string) bool {
	return json.Valid(raw) && containsStr(string(raw), `"`+sub+`"`)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestProfilerOverheadGate is the CI-facing soft gate on the profiler's
// cost: ticking a profiled world may take at most 25% longer than ticking
// the same world unprofiled. A phase boundary costs one clock read (a nil
// check when no profiler is attached), so the enabled path stays well
// inside the bound; a gross regression (instrumentation accidentally
// moved inside a per-node or per-pair loop) breaks it.
// BenchmarkProfilerOverhead reports the precise ratio at city scale.
func TestProfilerOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	s := Quick()
	s.Nodes = 60
	s.Duration = 400

	// Two copies of one world, one profiled, advance in lockstep chunks
	// of eight ticks, in alternating order. Profiling is bit-neutral, so
	// both do identical work per chunk. A chunk lasts tens of
	// microseconds: a preemption or a slow stretch of a shared host lands
	// in one chunk of one mode, and the median per-chunk ratio ignores it.
	// (Whole runs of this world last a few milliseconds and vary by more
	// than the bound between identical runs on a shared host.)
	var prof *obs.EngineProf
	advance := func(profile bool) func(end float64) time.Duration {
		sc := s
		sc.Profile = profile
		w, runner := sc.Build()
		if p := sc.attachProfiler(w, runner); p != nil {
			prof = p
		}
		return func(end float64) time.Duration {
			t0 := time.Now()
			runner.Run(end)
			return time.Since(t0)
		}
	}
	off, on := advance(false), advance(true)
	var ratios []float64
	step := 8 * s.Tick
	for i, end := 0, step; end <= s.Duration; i, end = i+1, end+step {
		var a, b time.Duration
		if i%2 == 0 {
			a, b = off(end), on(end)
		} else {
			b, a = on(end), off(end)
		}
		ratios = append(ratios, float64(b)/float64(a))
	}
	if tm := prof.Timing(); tm == nil || tm.Ticks != int64(s.Duration/s.Tick) {
		t.Fatalf("profiled world booked %+v, want %g ticks", tm, s.Duration/s.Tick)
	}
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	if med > 1.25 {
		t.Fatalf("profiled ticks cost %.2fx the unprofiled ones (median of %d chunks): over the 25%% gate", med, len(ratios))
	}
	t.Logf("profiler overhead: %.2fx (median of %d chunks; quartiles %.2fx..%.2fx)",
		med, len(ratios), ratios[len(ratios)/4], ratios[3*len(ratios)/4])
}

// BenchmarkProfilerOverhead reports tick cost with the profiler off and
// on, on a CityScale-shaped world shrunk to bench-smoke size. CI runs it
// alongside BenchmarkCityScale (which always runs the disabled path) so
// regressions in either path surface as benchmark deltas.
func BenchmarkProfilerOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		profile bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := smallCity(1000)
			w, runner := s.Build()
			var prof *obs.EngineProf
			if mode.profile {
				prof = &obs.EngineProf{}
				w.SetProfiler(prof)
				runner.Prof = prof
			}
			runner.Run(5) // warm up: first contacts, wheel, scratch sizing
			start := runner.Now()
			b.ResetTimer()
			runner.Run(start + float64(b.N)*s.Tick)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
			if mode.profile && prof.Timing().Ticks == 0 {
				b.Fatal("profiler booked no ticks")
			}
		})
	}
}
