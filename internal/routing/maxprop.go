package routing

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/msg"
	"repro/internal/network"
)

// MaxProp implements Burgess et al.'s MaxProp, the epidemic-family
// comparison protocol of the paper's Figure 2. Implemented features:
// incrementally averaged (sum-normalised) meeting probabilities, flooded
// probability vectors, Dijkstra path costs Σ(1−p), transmission priority —
// destination-direct first, then low-hop messages, then ascending cost —
// delivered-message acks that purge copies network-wide, and a cost-aware
// drop order. Simplification (documented in DESIGN.md): the hop-count
// priority threshold is a fixed configurable value instead of MaxProp's
// adaptive byte-based estimate.
//
// Probability storage is polymorphic like the estimator core's
// MeetingStore: at figure scale a private dense own row plus shared,
// immutable published cost rows; at city scale sparse observed-peer rows
// (core.SparseRows). Routing decisions are bit-identical — normalisation
// sums and divisions visit entries in ascending id order in both modes,
// and the path costs come from Dijkstras whose distances are
// storage-independent.
type MaxProp struct {
	Base
	// HopThreshold gives messages with fewer hops transmission priority
	// (default 7).
	HopThreshold int
	// Sparse selects observed-peer row storage and the heap-based cost
	// Dijkstra; set it before Init (MaxPropFactory does).
	Sparse bool
	// MaxSparseRows caps the sparse probability-row store at that many
	// rows with stale-row eviction (own row pinned); 0 = unbounded. Only
	// meaningful with Sparse.
	MaxSparseRows int
	// Gossip selects how the vector exchange at contacts is metered (and,
	// in delta mode, restricted); see core.ExchangeMode. The zero value is
	// the historical fresher accounting. All modes leave identical
	// probability state.
	Gossip core.ExchangeMode

	// Dense storage (nil in sparse mode). The own probability row is
	// private; every published row, own included, is an immutable cost
	// row (costRow) that exchanges share by pointer, never copy or mutate.
	own     []float64      // own[v]: this node's meeting probability for v
	edges   [][]graph.Edge // edges[u]: u's published Σ(1−p) cost row; nil = never published
	updated []float64      // freshness per row; -1 = never
	cost    []float64      // cached path cost to every node
	// key is EdgeDijkstra scratch shared by a world's dense routers;
	// refreshCost never runs concurrently within a world.
	key []uint64
	// Dense delta-gossip bookkeeping, mirroring core.MeetingMatrix's:
	// version counts local row mutations, rowVer stamps rows with their
	// last mutation, seen records the version at the end of the last delta
	// sync with each peer.
	version uint64
	rowVer  []uint64
	seen    map[int]uint64

	// Sparse storage (nil in dense mode).
	rows *core.SparseRows
	dij  *core.SparseDijkstra // per-router: its dist map doubles as the cost cache

	// costValid: the cached costs match the published rows. costWanted:
	// a transmission order has asked for costs since the rows last
	// changed. The order computes them lazily, in the comparison that
	// reads them, and the drop policy ranks by cost only when costWanted
	// holds — the cases in which an eagerly refreshed cache would be valid.
	costValid, costWanted bool
}

// NewMaxProp returns a MaxProp router; use MaxPropFactory so dense routers
// share Dijkstra scratch.
func NewMaxProp() *MaxProp { return &MaxProp{HopThreshold: 7} }

// MaxPropFactory returns a constructor producing MaxProp routers for n
// nodes: dense routers sharing one Dijkstra scratch, or self-contained
// sparse routers whose state grows with observed peers only (optionally
// capped at maxRows rows each). gossip selects the exchange metering.
func MaxPropFactory(n int, sparse bool, maxRows int, gossip core.ExchangeMode) func() network.Router {
	if sparse {
		return func() network.Router {
			r := NewMaxProp()
			r.Sparse = true
			r.MaxSparseRows = maxRows
			r.Gossip = gossip
			return r
		}
	}
	key := make([]uint64, n)
	return func() network.Router {
		r := NewMaxProp()
		r.key = key
		r.Gossip = gossip
		return r
	}
}

// Init implements network.Router.
func (r *MaxProp) Init(self *network.Node, w *network.World) {
	r.Base.Init(self, w)
	n := w.N()
	if r.Sparse {
		r.rows = core.NewSparseRows()
		if r.MaxSparseRows > 0 {
			r.rows.SetCap(r.MaxSparseRows, self.ID)
		}
		r.dij = core.NewSparseDijkstra()
	} else {
		r.own = make([]float64, n)
		r.edges = make([][]graph.Edge, n)
		r.updated = make([]float64, n)
		for i := range r.updated {
			r.updated[i] = -1
		}
		r.rowVer = make([]uint64, n)
		r.cost = make([]float64, n)
		if r.key == nil {
			r.key = make([]uint64, n)
		}
	}
	// MaxProp's drop order: prefer evicting high-cost (unlikely to be
	// delivered) copies, approximated with the last computed cost vector;
	// ties and cold caches fall back to most-hops.
	self.Buf.SetPolicy(func(_ float64, copies []*msg.Copy) int {
		best, bestScore := 0, math.Inf(-1)
		for i, c := range copies {
			score := float64(c.Hops)
			if r.costWanted {
				if pc := r.Cost(c.M.To); !math.IsInf(pc, 1) {
					score = 1e6 * pc
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		return best
	})
}

// Prob returns this node's current meeting probability for peer v.
func (r *MaxProp) Prob(v int) float64 {
	if r.Sparse {
		if row := r.rows.Row(r.Self.ID); row != nil {
			if p, ok := row.Get(v); ok {
				return p
			}
		}
		return 0
	}
	return r.own[v]
}

// ContactUp implements network.Router: incremental-average own vector,
// exchange vectors by freshness, merge delivery acks, purge dead copies.
func (r *MaxProp) ContactUp(t float64, peer *network.Node) {
	pr, _ := peer.Router.(*MaxProp)
	if r.Sparse {
		r.contactUpSparse(t, peer, pr)
	} else {
		r.contactUpDense(t, peer, pr)
	}
	if pr == nil {
		return
	}
	// Ack merge: each side learns the other's delivered set.
	r.Self.SyncKnownDelivered(peer)
	r.PurgeKnownDelivered()
	pr.PurgeKnownDelivered()
}

func (r *MaxProp) contactUpDense(t float64, peer *network.Node, pr *MaxProp) {
	self := r.Self.ID
	own := r.own
	own[peer.ID]++
	sum := 0.0
	for _, p := range own {
		sum += p
	}
	for i := range own {
		own[i] /= sum
	}
	r.edges[self] = costRow(own)
	r.updated[self] = t
	r.version++
	r.rowVer[self] = r.version
	r.rowsChanged()
	if pr == nil {
		return
	}
	// Vector exchange with per-row freshness, both directions. Entries
	// counted are the positive probabilities — exactly what a sparse row
	// stores — so dense and sparse exchange volume agree. Delta mode
	// restricts the exchange to rows mutated since the pair's last sync
	// (always a superset of the strictly-fresher rows; dense storage never
	// evicts, so the watermark alone is sound), flood meters full vector
	// transmission; every mode applies the same freshness merge.
	var st core.ExchangeStats
	aSeen, bSeen := uint64(0), uint64(0)
	switch r.Gossip {
	case core.ExchangeDelta:
		aSeen, bSeen = r.seen[peer.ID], pr.seen[self]
		st.AddDigest(r.advertised(aSeen))
		st.AddDigest(pr.advertised(bSeen))
	case core.ExchangeFlood:
		st.Add(r.floodVolume())
		st.Add(pr.floodVolume())
	}
	var moved core.ExchangeStats
	for i := range r.edges {
		if pr.updated[i] > r.updated[i] {
			if r.Gossip == core.ExchangeDelta && pr.rowVer[i] <= bSeen {
				continue
			}
			r.takeRow(pr, i)
			moved.AddRow(len(r.edges[i]))
		} else if r.updated[i] > pr.updated[i] {
			if r.Gossip == core.ExchangeDelta && r.rowVer[i] <= aSeen {
				continue
			}
			pr.takeRow(r, i)
			pr.rowsChanged()
			moved.AddRow(len(r.edges[i]))
		}
	}
	switch r.Gossip {
	case core.ExchangeDelta:
		st.Add(moved)
		st.AddRequests(moved.Rows)
		if r.seen == nil {
			r.seen = make(map[int]uint64)
		}
		if pr.seen == nil {
			pr.seen = make(map[int]uint64)
		}
		r.seen[peer.ID] = r.version
		pr.seen[self] = pr.version
	case core.ExchangeFlood:
		// Volume already accounted pre-merge.
	default:
		st = moved
	}
	r.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
}

// takeRow adopts the peer's published row i — sharing it, since published
// rows are immutable — with its freshness, and stamps the local mutation.
func (r *MaxProp) takeRow(from *MaxProp, i int) {
	r.edges[i] = from.edges[i]
	r.updated[i] = from.updated[i]
	r.version++
	r.rowVer[i] = r.version
}

// costRow publishes a probability row as its Dijkstra edge list: each
// positive probability p, ascending by peer, becomes an edge of weight
// max(1−p, graph.MinProbCost). Its length is the row's positive-entry
// count — the entries the sparse row stores and the exchange meters.
func costRow(probs []float64) []graph.Edge {
	n := 0
	for _, p := range probs {
		if p > 0 {
			n++
		}
	}
	row := make([]graph.Edge, 0, n)
	for v, p := range probs {
		if p > 0 {
			row = append(row, graph.Edge{To: v, Weight: max(1-p, graph.MinProbCost)})
		}
	}
	return row
}

// advertised counts and sizes the published rows mutated past the
// watermark — the dense delta digest to one peer, each row costing a
// varint (owner, stamp) entry.
func (r *MaxProp) advertised(seen uint64) (rows, payloadBytes int) {
	for i, u := range r.updated {
		if u >= 0 && r.rowVer[i] > seen {
			rows++
			payloadBytes += core.DigestEntryLen(i, u)
		}
	}
	return rows, payloadBytes
}

// floodVolume is the cost of transmitting every published probability row.
func (r *MaxProp) floodVolume() core.ExchangeStats {
	var st core.ExchangeStats
	for i, u := range r.updated {
		if u >= 0 {
			st.AddRow(len(r.edges[i]))
		}
	}
	return st
}

// contactUpSparse mirrors contactUpDense over sparse rows. The own-row
// update is bit-identical: the normalisation sum and the divisions visit
// stored entries ascending, and the dense scan's untouched zero entries
// are exact no-ops in both the sum and the division.
func (r *MaxProp) contactUpSparse(t float64, peer *network.Node, pr *MaxProp) {
	own := r.rows.Ensure(r.Self.ID)
	p, _ := own.Get(peer.ID)
	own.Set(peer.ID, p+1)
	own.Div(own.Sum())
	own.Updated = t
	r.rows.Touch(own)
	r.rowsChanged()
	if pr == nil {
		return
	}
	// Row exchange with per-row freshness, both directions, metered (and
	// in delta mode restricted) by the configured gossip mode. The merge
	// outcome is mode-independent, so invalidating the peer's cost cache
	// whenever any row moved — rather than only on the return direction —
	// costs at most a recompute of identical values.
	st := core.SyncRowsMode(r.rows, pr.rows, r.Self.ID, peer.ID, r.Gossip)
	if st.Rows > 0 {
		pr.rowsChanged()
	}
	r.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
}

// refreshCost recomputes the Σ(1−p) Dijkstra costs from this node.
func (r *MaxProp) refreshCost() {
	if r.Sparse {
		settled := r.dij.Run(r.Self.ID, func(u int, relax func(v int, w float64)) {
			row := r.rows.Row(u)
			if row == nil || row.Updated < 0 {
				return
			}
			row.ForEach(func(v int, p float64) {
				if p <= 0 {
					return
				}
				c := 1 - p
				if c < graph.MinProbCost {
					c = graph.MinProbCost
				}
				relax(v, c)
			})
		})
		r.World.Profiler().EstimatorDijkstra(settled)
		r.costValid = true
		return
	}
	// Dense: the published rows are the edge lists, weights included; a
	// never-published row is nil, no edges.
	settled := graph.EdgeDijkstra(func(u int) []graph.Edge { return r.edges[u] }, r.Self.ID, r.cost, r.key)
	r.World.Profiler().EstimatorDijkstra(settled)
	r.costValid = true
}

// rowsChanged drops the cost cache after a change of the published rows.
func (r *MaxProp) rowsChanged() {
	r.costValid = false
	r.costWanted = false
}

// pathCost returns the cached cost to dst; +Inf when unreached. Callers
// must have refreshed the cache (costValid).
func (r *MaxProp) pathCost(dst int) float64 {
	if r.Sparse {
		if d, ok := r.dij.Dist(dst); ok {
			return d
		}
		return math.Inf(1)
	}
	return r.cost[dst]
}

// Cost returns the current path cost estimate to dst.
func (r *MaxProp) Cost(dst int) float64 {
	r.costWanted = true
	if !r.costValid {
		r.refreshCost()
	}
	return r.pathCost(dst)
}

// NextTransfer implements network.Router with MaxProp's transmission
// order.
func (r *MaxProp) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := r.DeliverDirect(t, peer); p != nil {
		return p
	}
	cands := r.Candidates(t, peer)
	if len(cands) == 0 {
		return nil
	}
	r.costWanted = true
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		aLow, bLow := a.Hops < r.HopThreshold, b.Hops < r.HopThreshold
		if aLow != bLow {
			return aLow
		}
		if aLow {
			if a.Hops != b.Hops {
				return a.Hops < b.Hops
			}
			return a.M.ID < b.M.ID
		}
		// Only copies past the hop threshold are ranked by cost, so most
		// orders never run the Dijkstra.
		ca, cb := r.Cost(a.M.To), r.Cost(b.M.To)
		if ca != cb {
			return ca < cb
		}
		return a.M.ID < b.M.ID
	})
	return network.Replicate(cands[0])
}
