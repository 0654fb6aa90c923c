package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
)

// storelessBatch is the Quick-size Figure-2 batch: the six paper
// protocols over two seeds, protocol-major like fig2 cells — two worlds,
// each shared by six cells.
func storelessBatch(profile bool) []Scenario {
	var batch []Scenario
	for _, p := range AllPaperProtocols {
		for _, seed := range []int64{1, 2} {
			s := Quick()
			s.Protocol = p
			s.Seed = seed
			s.Profile = profile
			batch = append(batch, s)
		}
	}
	return batch
}

// summaryBytes is the byte form parity is judged on: the summary with its
// timing block stripped.
func summaryBytes(t *testing.T, s metrics.Summary) []byte {
	t.Helper()
	b, err := json.Marshal(StripTiming([]metrics.Summary{s})[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunBatchStorelessParity pins the in-memory script tier: a RunBatch
// whose cells share worlds records each world once, replays every cell,
// and returns summaries byte-identical to per-cell live Scenario.Run —
// with profiling on and off. Profiled replays count themselves in their
// timing block.
func TestRunBatchStorelessParity(t *testing.T) {
	for _, profile := range []bool{false, true} {
		batch := storelessBatch(profile)
		rec0, rep0 := TraceRecordings(), TraceReplays()
		got := RunBatch(batch)
		if d := TraceRecordings() - rec0; d != 2 {
			t.Errorf("profile=%v: recorded %d worlds, want 2 (one per seed)", profile, d)
		}
		if d := TraceReplays() - rep0; d != int64(len(batch)) {
			t.Errorf("profile=%v: replayed %d runs, want %d (every cell)", profile, d, len(batch))
		}
		for i, s := range batch {
			live := s.Run()
			if !bytes.Equal(summaryBytes(t, got[i]), summaryBytes(t, live)) {
				t.Errorf("profile=%v: %s seed %d: batched summary differs from live", profile, s.Protocol, s.Seed)
			}
			if profile && (got[i].Timing == nil || got[i].Timing.Replayed != 1 || live.Timing.Replayed != 0) {
				t.Errorf("profile=%v: %s seed %d: timing does not mark the replay", profile, s.Protocol, s.Seed)
			}
		}
	}
}

// TestRunBatchUntouchedCells pins what the plan leaves alone: a world
// only one Trace-unset cell runs stays live, and a cell that chose a
// trace mode itself runs live exactly as Scenario.Run — even "record" and
// "replay", which RunBatch has never acted on, and even when it shares a
// world with other cells.
func TestRunBatchUntouchedCells(t *testing.T) {
	base := Quick()
	base.Nodes = 30
	base.Duration = 800
	batch := make([]Scenario, 0, 5)
	for _, c := range []struct {
		p     Protocol
		seed  int64
		trace string
	}{
		{EER, 1, ""},         // world 1: its only Trace-unset cell
		{CR, 2, ""},          // world 2: singleton
		{MaxProp, 1, "auto"}, // world 1, explicit mode
		{SprayAndWait, 1, "record"},
		{SprayAndFocus, 1, "replay"},
	} {
		s := base
		s.Protocol, s.Seed, s.Trace = c.p, c.seed, c.trace
		batch = append(batch, s)
	}
	rec0, rep0 := TraceRecordings(), TraceReplays()
	got := RunBatch(batch)
	if dr, dp := TraceRecordings()-rec0, TraceReplays()-rep0; dr != 0 || dp != 0 {
		t.Errorf("recorded %d worlds and replayed %d runs, want none", dr, dp)
	}
	for i, s := range batch {
		if got[i] != s.Run() {
			t.Errorf("cell %d (%s seed %d trace %q) differs from Scenario.Run", i, s.Protocol, s.Seed, s.Trace)
		}
	}
	plan := newTracePlan(batch, func(i int) bool { return batch[i].Trace == "" }, nil)
	if len(plan.worlds) != 0 {
		t.Errorf("plan shares %d worlds, want 0", len(plan.worlds))
	}
}

// TestTracePlanReleasesScripts pins the in-memory tier's lifetime: a
// shared world's events are dropped once its last cell has replayed them.
func TestTracePlanReleasesScripts(t *testing.T) {
	batch := storelessBatch(false)[:3] // EER seeds 1, 2 and CR seed 1
	for i := range batch {
		batch[i].Duration = 600
	}
	plan := newTracePlan(batch, func(int) bool { return true }, nil)
	if len(plan.worlds) != 1 || plan.cells[1] != nil {
		t.Fatalf("plan shares %d worlds (seed-2 cell planned: %v), want the seed-1 world only", len(plan.worlds), plan.cells[1] != nil)
	}
	if err := plan.record(nil); err != nil {
		t.Fatal(err)
	}
	w := plan.worlds[0]
	if w.events == nil {
		t.Fatal("shared world not recorded")
	}
	if _, _, ok := plan.replayShared(nil, 0, batch[0], nil); !ok || w.events == nil {
		t.Fatalf("first replay: ok=%v, script released early: %v", ok, w.events == nil)
	}
	if _, _, ok := plan.replayShared(nil, 2, batch[2], nil); !ok || w.events != nil {
		t.Fatalf("last replay: ok=%v, script still held: %v", ok, w.events != nil)
	}
	if _, _, ok := plan.replayShared(nil, 1, batch[1], nil); ok {
		t.Fatal("unplanned cell served by the in-memory tier")
	}
}

// TestRunSweepStorelessParity pins the storeless sweep path (the one
// cmd/figures -fig 2 takes without -cache): a protocol × seed sweep with
// no store replays one in-memory recording per seed and returns cells
// identical to the same sweep over a store and to per-cell live runs.
func TestRunSweepStorelessParity(t *testing.T) {
	seeds := []int64{1, 2}
	sw := SweepSpec{
		Base: ScenarioSpec{
			Nodes:    ptr(30),
			Duration: ptr(600.0),
			Tick:     ptr(0.5),
			Seeds:    seeds,
		},
		Protocols: []string{string(EER), string(MaxProp), string(SprayAndWait)},
	}
	rec0, rep0 := TraceRecordings(), TraceReplays()
	storeless, err := RunSweep(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := TraceRecordings() - rec0; d != int64(len(seeds)) {
		t.Errorf("storeless sweep recorded %d worlds, want %d", d, len(seeds))
	}
	if d, want := TraceReplays()-rep0, int64(len(sw.Protocols)*len(seeds)); d != want {
		t.Errorf("storeless sweep replayed %d runs, want %d", d, want)
	}
	stored, err := RunSweep(context.Background(), sw, openStore(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range storeless {
		s, err := c.Cell.Spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		for j, seed := range seeds {
			s.Seed = seed
			live := s.Run()
			if c.PerSeed[j] != live {
				t.Errorf("cell %v seed %d: storeless summary differs from live", c.Cell.Axes, seed)
			}
			if stored[i].PerSeed[j] != live {
				t.Errorf("cell %v seed %d: store-backed summary differs from live", c.Cell.Axes, seed)
			}
		}
		if c.Mean != stored[i].Mean {
			t.Errorf("cell %v: storeless and store-backed means differ", c.Cell.Axes)
		}
	}
}
