// Package repro is a Go reproduction of Chen & Lou, "On Using Contact
// Expectation for Routing in Delay Tolerant Networks" (ICPP 2011): the EER
// and CR routing protocols, the baseline protocols they are evaluated
// against, and a complete DTN simulator (mobility, contacts, buffers,
// traffic, metrics) to run them in.
//
// This root package is the stable facade: scenario configuration,
// execution, sweeps and the paper's contact-expectation estimators. The
// implementation lives in internal/ packages (see DESIGN.md for the
// inventory); examples/ and cmd/ show idiomatic use.
//
// Quick start:
//
//	s := repro.DefaultScenario()
//	s.Protocol = repro.EER
//	s.Nodes = 120
//	fmt.Println(s.Run())
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// Scenario is a complete run configuration: protocol, fleet size, paper
// parameters (λ, α, TTL, buffer, radio), mobility and traffic.
type Scenario = experiment.Scenario

// Protocol names a routing protocol implementation.
type Protocol = experiment.Protocol

// Summary holds one run's metrics: the paper's delivery ratio, latency and
// goodput plus auxiliary counters.
type Summary = metrics.Summary

// Series is a named sweep curve (one protocol across node counts, one λ
// across the sweep, ...).
type Series = experiment.Series

// Metric selects one plotted quantity from a Summary.
type Metric = experiment.Metric

// History is a node's sliding-window contact history with the paper's
// estimators: EEV (Theorem 1), EMD (Theorem 2) and ENEC (Theorem 4).
type History = core.History

// MeetingStore is the estimator-storage contract shared by the dense
// MeetingMatrix and the sparse city-scale SparseMeetingStore: interval
// lookup, row freshness, own-row refresh and known-entry iteration.
type MeetingStore = core.MeetingStore

// MeetingMatrix is the dense link-state MI matrix of average meeting
// intervals with per-row freshness merge — the figure-scale MeetingStore.
type MeetingMatrix = core.MeetingMatrix

// SparseMeetingStore is the city-scale MeetingStore: per-row storage over
// observed peers only, so memory grows with recorded meetings instead of
// the network size.
type SparseMeetingStore = core.SparseMeetingStore

// MEMD computes minimum expected meeting delays (Theorem 3) over an MD
// matrix built from a History and a MeetingMatrix.
type MEMD = core.MEMD

// SparseMEMD computes Theorem-3 delays with a bounded-heap Dijkstra over
// recorded edges — O(E log V) on the observed contact graph instead of
// O(n²), with bit-identical delays.
type SparseMEMD = core.SparseMEMD

// The protocols of the paper's evaluation plus extra references and
// ablation variants.
const (
	EER           = experiment.EER
	CR            = experiment.CR
	EBR           = experiment.EBR
	MaxProp       = experiment.MaxProp
	SprayAndWait  = experiment.SprayAndWait
	SprayAndFocus = experiment.SprayAndFocus
	Epidemic      = experiment.Epidemic
	Prophet       = experiment.Prophet
	Direct        = experiment.Direct
	FirstContact  = experiment.FirstContact
	EERFixedEV    = experiment.EERFixedEV
	EERMeanMD     = experiment.EERMeanMD
)

// PaperProtocols lists the six protocols of the paper's Figure 2 in plot
// order.
var PaperProtocols = experiment.AllPaperProtocols

// The paper's three metrics, in sub-figure order (a, b, c).
var (
	MetricDeliveryRatio = experiment.MetricDeliveryRatio
	MetricLatency       = experiment.MetricLatency
	MetricGoodput       = experiment.MetricGoodput
	PaperMetrics        = experiment.PaperMetrics
)

// ScenarioSpec is the declarative JSON form of a simulation job: a preset
// plus overrides, resolving to one Scenario and a seed list. It is the
// payload the dtnd daemon accepts, and the preimage of its
// content-addressed result cache.
type ScenarioSpec = experiment.ScenarioSpec

// ParseSpec decodes a JSON scenario spec strictly (unknown fields are
// errors).
func ParseSpec(data []byte) (ScenarioSpec, error) { return experiment.ParseSpec(data) }

// RunSpec resolves and executes a spec over its seed list through the
// bounded worker pool, returning per-seed summaries.
func RunSpec(sp ScenarioSpec) ([]Summary, error) { return experiment.RunSpec(sp) }

// SweepSpec is a declarative parameter study: a base ScenarioSpec plus
// axes (protocols, node counts and the Section V-B parameters) that
// deterministically expand into content-addressed cells. It is the
// payload of dtnd's /v1/sweeps endpoint and the grid form cmd/sweep and
// cmd/figures expand through.
type SweepSpec = experiment.SweepSpec

// SweepCell is one expanded sweep point: its spec, content address and
// axis coordinates.
type SweepCell = experiment.SweepCell

// AxisValue names one axis coordinate of a sweep cell.
type AxisValue = experiment.AxisValue

// CellResult is one cell's outcome in a sweep result table.
type CellResult = experiment.CellResult

// ResultStore is the bounded content-addressed result cache shared by
// dtnd and the CLIs; a nil store always misses.
type ResultStore = resultcache.Store

// OpenResultStore opens (creating if needed) a result cache rooted at
// dir; maxBytes > 0 bounds its total size with oldest-mtime eviction.
func OpenResultStore(dir string, maxBytes int64) (*ResultStore, error) {
	return resultcache.Open(dir, maxBytes)
}

// ParseSweepSpec decodes a JSON sweep spec strictly (unknown fields are
// errors).
func ParseSweepSpec(data []byte) (SweepSpec, error) { return experiment.ParseSweepSpec(data) }

// RunSweep expands and executes a sweep: cells present in store are
// served from disk, the rest run as one flattened job list over the
// bounded pool and are persisted back. Cancel ctx to stop early.
func RunSweep(ctx context.Context, sw SweepSpec, store *ResultStore) ([]CellResult, error) {
	return experiment.RunSweep(ctx, sw, store)
}

// DefaultScenario returns the paper's Section V-A configuration.
func DefaultScenario() Scenario { return experiment.Default() }

// QuickScenario returns a scaled-down configuration for fast exploration.
func QuickScenario() Scenario { return experiment.Quick() }

// RunSeeds executes a scenario once per seed through the bounded worker
// pool, returning the per-seed summaries.
func RunSeeds(s Scenario, seeds []int64) []Summary { return experiment.RunSeeds(s, seeds) }

// RunBatch executes arbitrary scenarios through the bounded worker pool,
// returning summaries in input order. Scenarios that differ only in
// routing share one in-memory recording of their world; summaries are
// identical to running each scenario on its own.
func RunBatch(ss []Scenario) []Summary { return experiment.RunBatch(ss) }

// RunAveraged executes a scenario over n seeds and returns the mean
// summary.
func RunAveraged(s Scenario, n int) Summary { return experiment.RunAveraged(s, n) }

// Seeds returns the canonical seed list 1..n.
func Seeds(n int) []int64 { return experiment.Seeds(n) }

// NodeSweep runs a scenario at every node count, averaging seeds per
// point.
func NodeSweep(base Scenario, counts []int, nSeeds int) Series {
	return experiment.NodeSweep(base, counts, nSeeds)
}

// NodeSweepMulti runs several scenarios across node counts as one
// flattened batch saturating all cores.
func NodeSweepMulti(bases []Scenario, counts []int, nSeeds int) []Series {
	return experiment.NodeSweepMulti(bases, counts, nSeeds)
}

// MeanSummary averages summaries component-wise.
func MeanSummary(ss []Summary) Summary { return metrics.Mean(ss) }

// NewHistory returns an empty dense contact history for node self in a
// network of n nodes with the given sliding-window size (0 = default).
func NewHistory(self, n, window int) *History { return core.NewHistory(self, n, window) }

// NewSparseHistory returns an empty sparse contact history: storage grows
// with the peers actually contacted, with estimators bit-identical to the
// dense mode.
func NewSparseHistory(self, n, window int) *History { return core.NewSparseHistory(self, n, window) }

// NewMeetingMatrix returns an all-unknown dense MI matrix over nodes
// 0..n-1.
func NewMeetingMatrix(n int) *MeetingMatrix { return core.NewFullMeetingMatrix(n) }

// NewSparseMeetingStore returns an empty sparse MI store over nodes
// 0..n-1.
func NewSparseMeetingStore(n int) *SparseMeetingStore { return core.NewSparseMeetingStore(n) }

// NewMEMD returns a dense Theorem-3 calculator for matrices of the given
// size.
func NewMEMD(size int) *MEMD { return core.NewMEMD(size) }

// NewSparseMEMD returns a sparse Theorem-3 calculator; one instance serves
// stores of any size.
func NewSparseMEMD() *SparseMEMD { return core.NewSparseMEMD() }
