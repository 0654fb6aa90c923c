package experiment

// Contact-trace record/replay orchestration: the world-defining subset of
// a scenario is hashed into a trace content address, recorded contact
// scripts are persisted as blobs in the shared result store, and the
// store-threaded run path (RunSpecStore, sweeps, dtnd jobs) dispatches on
// Scenario.Trace to run replayed worlds that skip mobility and contact
// detection entirely. Batches without a store (RunBatch, storeless
// sweeps) share worlds through the same trace plan, holding the recorded
// scripts in memory for the call. Replay is sound because the contact sequence
// depends only on the world fields below — routers, traffic, buffers and
// gossip never read positions or perturb movers — and the engine is
// bit-deterministic, so a replayed run's summary is identical to the
// live run it stands in for (pinned by TestReplayParity*).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/mapgen"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/network"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// TraceVersion is baked into every trace content address. Bump it
// whenever the recorded contact sequence could change for an unchanged
// world (mover RNG streams, detector semantics, script wire format).
const TraceVersion = 1

// traceWorld is the hashed trace-key payload: exactly the fields that
// determine a world's contact sequence. Protocol, traffic, buffers,
// bandwidth, gossip and sharding are deliberately absent — scenarios
// differing only in those share one recorded world.
type traceWorld struct {
	Version  int
	Nodes    int
	Seed     int64
	Duration float64
	Tick     float64
	Range    float64
	Mobility string
	MinSpeed float64
	MaxSpeed float64
	MinDwell float64
	MaxDwell float64
	Map      mapgen.Config
	MapSeed  int64
}

func traceWorldOf(s Scenario) traceWorld {
	return traceWorld{
		Version:  TraceVersion,
		Nodes:    s.Nodes,
		Seed:     s.Seed,
		Duration: s.Duration,
		Tick:     s.Tick,
		Range:    s.Range,
		Mobility: s.Mobility,
		MinSpeed: s.MinSpeed,
		MaxSpeed: s.MaxSpeed,
		MinDwell: s.MinDwell,
		MaxDwell: s.MaxDwell,
		Map:      s.Map,
		MapSeed:  s.MapSeed,
	}
}

// TraceKey returns the content address of the scenario's recorded world:
// the SHA-256 of its world-defining fields (seed included). Scenarios
// that differ only in protocol or routing parameters share a key.
func TraceKey(s Scenario) string {
	data, err := json.Marshal(traceWorldOf(s))
	if err != nil {
		panic("experiment: trace key marshal: " + err.Error()) // fixed struct, cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// traceGroupKey is TraceKey with the seed zeroed — the sweep layers group
// cells by it to find cells that share recorded worlds across the whole
// seed list.
func traceGroupKey(s Scenario) string {
	s.Seed = 0
	return TraceKey(s)
}

// TraceGroup resolves a spec and returns its trace group key — the
// content address of its recorded world with the seed zeroed. Specs in
// the same group (protocol/routing-only differences) share recorded
// contact scripts across their whole seed list. ok is false when the
// spec does not resolve; callers treat such cells as ungrouped.
func TraceGroup(sp ScenarioSpec) (string, bool) {
	s, err := sp.Scenario()
	if err != nil {
		return "", false
	}
	return traceGroupKey(s), true
}

// PlacementGroups partitions specs into dispatch groups for the sweep
// fabric: specs that share a recorded world and have a trace mode set
// (the sweep layer marked them "auto", or the user chose record/replay)
// must run on one worker in submission order — the first cell's live run
// records the contact script into that worker's local store and every
// later cell replays it. Everything else is a singleton group, free to
// scatter across the fleet. Groups preserve first-appearance order, and
// indices within a group preserve submission order.
func PlacementGroups(specs []ScenarioSpec) [][]int {
	var groups [][]int
	byWorld := map[string]int{}
	for i, sp := range specs {
		world := ""
		if sp.Trace != nil && *sp.Trace != "" {
			if k, ok := TraceGroup(sp); ok {
				world = k
			}
		}
		if world == "" {
			groups = append(groups, []int{i})
			continue
		}
		if gi, seen := byWorld[world]; seen {
			groups[gi] = append(groups[gi], i)
			continue
		}
		byWorld[world] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups
}

// Process-wide trace counters, for tests and the daemon's /metrics: how
// many worlds were recorded (live or bare) and how many runs were served
// by replay instead of live simulation.
var (
	traceRecordings atomic.Int64
	traceReplays    atomic.Int64
)

// TraceRecordings returns the number of contact-trace recordings
// performed by this process.
func TraceRecordings() int64 { return traceRecordings.Load() }

// TraceReplays returns the number of simulation runs served by contact
// replay instead of live mobility in this process.
func TraceReplays() int64 { return traceReplays.Load() }

// loadScript fetches and decodes the recorded script for the scenario.
// Any failure — absent blob, torn write, format drift, node-count
// mismatch — is a miss; the caller records instead.
func loadScript(store *resultcache.Store, s Scenario, key string) (*trace.Script, bool) {
	data, ok := store.GetTrace(key)
	if !ok {
		return nil, false
	}
	sc, err := trace.DecodeScript(data)
	if err != nil || sc.N != s.Nodes {
		return nil, false
	}
	return sc, true
}

// scriptEvents converts a decoded script to the engine's event type.
func scriptEvents(sc *trace.Script) []network.ScriptEvent {
	evs := make([]network.ScriptEvent, len(sc.Events))
	for i, e := range sc.Events {
		evs[i] = network.ScriptEvent(e)
	}
	return evs
}

// nullRouter is the passive router of bare recording worlds: with no
// traffic generator installed, no messages ever exist and contacts carry
// no transfers, so a bare run costs mobility + detection only — and its
// contact sequence is identical to any protocol run of the same world.
type nullRouter struct{}

func (nullRouter) Init(*network.Node, *network.World)                {}
func (nullRouter) InitialReplicas(*msg.Message) int                  { return 1 }
func (nullRouter) ContactUp(float64, *network.Node)                  {}
func (nullRouter) ContactDown(float64, *network.Node)                {}
func (nullRouter) NextTransfer(float64, *network.Node) *network.Plan { return nil }
func (nullRouter) Created(float64, *msg.Copy)                        {}
func (nullRouter) Received(float64, *msg.Copy, *network.Node)        {}
func (nullRouter) Sent(float64, *network.Plan, *network.Node, bool)  {}

// RecordTrace runs a bare mobility-only world for the scenario (no
// routers, no traffic), records its contact script and persists it under
// the scenario's trace key. It returns the script and its key. The
// context cancels between ticks; a cancelled recording persists nothing.
func RecordTrace(ctx context.Context, s Scenario, store *resultcache.Store) (*trace.Script, string, error) {
	key := TraceKey(s)
	w, runner := BuildBare(s, func(int) network.Router { return nullRouter{} })
	rec := trace.NewScriptRecorder(s.Nodes)
	w.OnContact(rec.Note)
	every := pollEvery(s)
	if err := runner.RunContext(ctx, s.Duration, every, nil); err != nil {
		return nil, key, err
	}
	sc := rec.Script()
	traceRecordings.Add(1)
	if store != nil {
		if err := store.PutTrace(key, sc.Encode()); err != nil {
			return sc, key, fmt.Errorf("experiment: persist trace %s: %w", key, err)
		}
	}
	return sc, key, nil
}

// pollEvery is the shared tick granularity for progress emission and
// cancellation polling: ~2% of the run, at least every tick.
func pollEvery(s Scenario) int {
	every := int(s.Duration / s.Tick / 50)
	if every < 1 {
		every = 1
	}
	return every
}

// tracePlan is the record-once/replay schedule of one pool call. It
// groups the call's cells whose Trace is unset by TraceKey; a world is
// shared when two or more cells run it (routing/protocol-only
// differences). Shared worlds are recorded once, bare, on the pool before
// any cell runs, and their cells replay the recording. Scripts live in
// one of two tiers:
//
//   - With a result store, scripts are content-addressed blobs on disk: a
//     shared world is recorded only when the store lacks it, a lone cell
//     whose world is already stored joins the plan too, and planned cells
//     run in Trace="auto" mode against the store (runScenario), which
//     also covers a recording that failed.
//   - Without one (RunBatch, storeless sweeps), scripts are decoded events
//     held in memory for the call: concurrent cells share one read-only
//     event slice, and it is dropped when its last cell finishes.
//
// Cells outside the plan — singleton worlds and cells whose Trace was set
// explicitly — run exactly as they would without it.
type tracePlan struct {
	store  *resultcache.Store
	cells  []*sharedWorld // per cell: its planned world, or nil
	worlds []*sharedWorld // planned worlds, in first-appearance order
}

// sharedWorld is one planned world: the scenario its recording runs,
// whether that recording is still to be made, and — in the in-memory
// tier — the recorded events and how many cells have yet to replay them.
type sharedWorld struct {
	world  Scenario
	record bool
	events []network.ScriptEvent
	refs   atomic.Int64
}

// newTracePlan plans cells for one pool call against store (nil selects
// the in-memory tier). unset(i) reports whether cell i left its trace mode
// to the plan; cells that chose one themselves are never planned.
func newTracePlan(cells []Scenario, unset func(i int) bool, store *resultcache.Store) *tracePlan {
	p := &tracePlan{store: store, cells: make([]*sharedWorld, len(cells))}
	keys := make([]string, len(cells))
	count := map[string]int{}
	for i, s := range cells {
		if unset(i) {
			keys[i] = TraceKey(s)
			count[keys[i]]++
		}
	}
	byKey := map[string]*sharedWorld{}
	for i, k := range keys {
		if k == "" {
			continue
		}
		w, seen := byKey[k]
		if !seen {
			// A lone cell gains nothing from recording first; it joins
			// the plan only when its world is already stored.
			stored := store != nil && store.HasTrace(k)
			if count[k] >= 2 || stored {
				w = &sharedWorld{world: cells[i], record: !stored}
				p.worlds = append(p.worlds, w)
			}
			byKey[k] = w
		}
		if w != nil {
			w.refs.Add(1)
			p.cells[i] = w
		}
	}
	return p
}

// record makes the plan's missing recordings on the shared pool, into the
// store or into memory. A failed store write is tolerated — the world's
// cells fall back to auto mode's live run (recording again, best effort)
// — but cancellation aborts.
func (p *tracePlan) record(ctx context.Context) error {
	var todo []*sharedWorld
	for _, w := range p.worlds {
		if w.record {
			todo = append(todo, w)
		}
	}
	forEachJobCtx(ctx, len(todo), func(i int) {
		sc, _, err := RecordTrace(ctx, todo[i].world, p.store)
		if err == nil && p.store == nil {
			todo[i].events = scriptEvents(sc)
		}
	})
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// replayShared runs cell i from its world's in-memory script. ok is false
// when the cell is not served by the in-memory tier (not planned, or a
// store is attached); the caller then runs it its own way.
func (p *tracePlan) replayShared(ctx context.Context, i int, s Scenario, hook func(t float64)) (sum metrics.Summary, done, ok bool) {
	w := p.cells[i]
	if w == nil || w.events == nil {
		return sum, false, false
	}
	sum, done = replayRun(ctx, s, w.events, hook)
	if w.refs.Add(-1) == 0 {
		w.events = nil // the last cell is done: release the script
	}
	return sum, done, true
}

// run executes cell i through the plan: in-memory replay, or the store
// dispatch of runScenario with planned cells in auto mode.
func (p *tracePlan) run(ctx context.Context, i int, s Scenario, hook func(t float64)) (metrics.Summary, bool, error) {
	if sum, done, ok := p.replayShared(ctx, i, s, hook); ok {
		return sum, done, nil
	}
	if p.store != nil && p.cells[i] != nil {
		s.Trace = "auto"
	}
	return runScenario(ctx, s, p.store, hook)
}

// replayRun runs the scenario's world driven by recorded contact events.
// It returns done=false when ctx cancelled the run mid-way.
func replayRun(ctx context.Context, s Scenario, events []network.ScriptEvent, hook func(t float64)) (sum metrics.Summary, done bool) {
	w, runner := s.BuildReplay(events)
	prof := s.attachProfiler(w, runner)
	if runner.RunContext(ctx, s.Duration, pollEvery(s), hook) != nil {
		return sum, false
	}
	traceReplays.Add(1)
	sum = w.Metrics.Summary()
	if sum.Timing = prof.Timing(); sum.Timing != nil {
		sum.Timing.Replayed = 1
	}
	return sum, true
}

// runScenario executes one resolved (scenario, seed) through the trace
// dispatch: live, replayed, or live-while-recording, per s.Trace and
// what the store holds. hook (optional) observes tick progress. It
// returns done=false without error when ctx cancelled the run mid-way.
func runScenario(ctx context.Context, s Scenario, store *resultcache.Store, hook func(t float64)) (sum metrics.Summary, done bool, err error) {
	mode := s.Trace
	if store == nil && mode != "" {
		if mode == "record" || mode == "replay" {
			return sum, false, fmt.Errorf("trace mode %q requires a result store", mode)
		}
		mode = "" // auto degrades to live when there is nowhere to look
	}

	var script *trace.Script
	key := ""
	switch mode {
	case "":
	case "record":
		key = TraceKey(s)
	case "replay", "auto":
		key = TraceKey(s)
		if sc, ok := loadScript(store, s, key); ok {
			script = sc
		} else if mode == "replay" {
			return sum, false, fmt.Errorf("no recorded trace %s for replay", key)
		}
	default:
		return sum, false, fmt.Errorf("unknown trace mode %q (have record, replay, auto)", mode)
	}

	if script != nil {
		sum, done = replayRun(ctx, s, scriptEvents(script), hook)
		return sum, done, nil
	}

	// Live run; in record (or auto-with-no-script) mode the protocol run
	// doubles as the recording — mobility is simulated once, not twice.
	w, runner := s.Build()
	prof := s.attachProfiler(w, runner)
	var rec *trace.ScriptRecorder
	if key != "" {
		rec = trace.NewScriptRecorder(s.Nodes)
		w.OnContact(rec.Note)
	}
	if runner.RunContext(ctx, s.Duration, pollEvery(s), hook) != nil {
		return sum, false, nil // cancelled mid-run; persist nothing
	}
	if rec != nil {
		traceRecordings.Add(1)
		if err := store.PutTrace(key, rec.Script().Encode()); err != nil && mode == "record" {
			// Explicit record mode promised a persisted trace; auto mode
			// treats the blob as a best-effort optimization and the run's
			// summary stands either way.
			return sum, false, fmt.Errorf("experiment: persist trace %s: %w", key, err)
		}
	}
	sum = w.Metrics.Summary()
	sum.Timing = prof.Timing()
	return sum, true, nil
}
