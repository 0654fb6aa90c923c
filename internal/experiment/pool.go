package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// This file is the experiment layer's execution engine: one bounded worker
// pool that every sweep and multi-seed run funnels through.
//
// The previous design parallelised only across seeds — RunSeeds spawned
// one goroutine per seed with no cap — while sweep points and protocols
// ran sequentially. A Figure-2 regeneration (6 protocols x 6 node counts
// x 5 seeds = 180 simulations) therefore alternated between bursts of
// unbounded goroutines (each world is tens of MB) and single-threaded
// stretches. Flattening every (protocol, point, seed) combination into one
// job list executed by GOMAXPROCS workers keeps all cores busy for the
// whole sweep with bounded memory, and scales to arbitrarily long job
// lists. Results are written by index, so output order — and every
// simulation itself, seeded independently — is deterministic regardless
// of scheduling.

// RunBatch executes every scenario through the shared bounded worker pool
// and returns their summaries in input order. Scenarios whose Trace is
// unset and that share a world with another scenario of the batch replay
// one in-memory recording of it (see tracePlan); every other scenario
// runs live, exactly as Scenario.Run. Summaries are identical either way.
func RunBatch(ss []Scenario) []metrics.Summary {
	out := make([]metrics.Summary, len(ss))
	plan := newTracePlan(ss, func(i int) bool { return ss[i].Trace == "" }, nil)
	plan.record(nil) // cannot fail without a context or a store
	forEachJob(len(ss), func(i int) {
		if sum, _, ok := plan.replayShared(nil, i, ss[i], nil); ok {
			out[i] = sum
			return
		}
		out[i] = ss[i].Run()
	})
	return out
}

// simSlots bounds the simulations *executing* at any instant across the
// whole process at GOMAXPROCS (sized at init; later GOMAXPROCS changes
// are not tracked). A single forEachJob call never blocks on it — its
// worker count already respects the bound — but concurrent callers (dtnd
// runs jobs as they arrive) share the permits instead of multiplying
// worker sets, so the machine is never oversubscribed with worlds that
// are tens of MB each. Simulations never start simulations, so permit
// acquisition cannot nest and cannot deadlock.
var simSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// forEachJob runs job(0..n-1) on min(GOMAXPROCS, n) workers, handing out
// indices through an atomic counter so fast workers steal remaining work.
// Each executing job additionally holds a process-wide simSlots permit.
func forEachJob(n int, job func(i int)) {
	forEachJobCtx(nil, n, job)
}

// forEachJobCtx is forEachJob with cooperative cancellation: once ctx is
// cancelled, jobs not yet started are skipped — including jobs still
// waiting for a process-wide permit, so a cancelled sweep queued behind a
// busy machine releases immediately instead of holding its place in line.
// Jobs already executing are the caller's to stop (RunContext polls the
// same ctx). A nil ctx never cancels.
func forEachJobCtx(ctx context.Context, n int, job func(i int)) {
	runJob := func(i int) {
		if ctx != nil {
			select {
			case simSlots <- struct{}{}:
			case <-ctx.Done():
				return
			}
		} else {
			simSlots <- struct{}{}
		}
		defer func() { <-simSlots }()
		if ctx != nil && ctx.Err() != nil {
			return
		}
		job(i)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runJob(i)
		}
		return
	}
	// A panic on a worker goroutine would kill the process no matter what
	// the caller deferred (dtnd contains per-job panics with recover), so
	// workers capture the first panic and forEachJob re-raises it on the
	// calling goroutine — CLI runs still crash with a stack, servers can
	// contain it.
	var panicOnce sync.Once
	var panicVal any
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runJob(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// expand returns one scenario per (base, seed 1..nSeeds) pair, flattening
// the seed axis into the job list.
func expand(bases []Scenario, nSeeds int) []Scenario {
	out := make([]Scenario, 0, len(bases)*nSeeds)
	for _, b := range bases {
		for s := 1; s <= nSeeds; s++ {
			sc := b
			sc.Seed = int64(s)
			out = append(out, sc)
		}
	}
	return out
}

// meanGroups averages consecutive groups of size nSeeds from flat
// summaries produced by RunBatch(expand(...)).
func meanGroups(flat []metrics.Summary, nSeeds int) []metrics.Summary {
	out := make([]metrics.Summary, 0, len(flat)/nSeeds)
	for i := 0; i+nSeeds <= len(flat); i += nSeeds {
		out = append(out, metrics.Mean(flat[i:i+nSeeds]))
	}
	return out
}
