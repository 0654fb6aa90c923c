package routing

import (
	"math"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/network"
)

// EERConfig parameterises the EER router.
type EERConfig struct {
	// Lambda is the initial replica quota λ (paper default 10).
	Lambda int
	// Alpha scales the EEV horizon to α·TTL_k (paper value 0.28).
	Alpha float64
	// Window is the sliding-window capacity per peer (0 selects
	// core.DefaultWindow).
	Window int

	// FixedHorizon, when positive, replaces the α·TTL_k horizon with a
	// constant — the TTL-independent expected EV of the A1 ablation,
	// isolating the paper's central claim against EBR-style estimation.
	FixedHorizon float64
	// MeanIntervalMD, when true, builds the node's own MD row from plain
	// mean intervals rather than Theorem-2 elapsed-conditioned EMDs — the
	// MEED-style A2 ablation (Jones et al.).
	MeanIntervalMD bool
	// ForwardHysteresis only forwards a single replica when the peer's
	// MEMD undercuts the holder's by more than this many seconds. The
	// paper's Algorithm 1 uses a strict comparison (0); the A3 ablation
	// uses positive values to quantify estimator-noise ping-pong.
	ForwardHysteresis float64

	// SparseEstimators selects the sparse estimator core: per-observed-peer
	// history and MI storage plus the heap MEMD, with bit-identical
	// decisions (see core.MeetingStore). Mandatory at city scale, where the
	// dense per-node state (n history slots and n row headers per node,
	// n² per world) cannot be allocated.
	SparseEstimators bool
	// MaxSparseRows caps the sparse MI store at that many rows with
	// stale-row eviction (own row pinned); 0 = unbounded. Only meaningful
	// with SparseEstimators — a bound for long-horizon runs.
	MaxSparseRows int

	// Gossip selects how the MI exchange at contacts is metered (and, in
	// delta mode, restricted): core.ExchangeFresher (the zero value, the
	// historical accounting), ExchangeFlood or ExchangeDelta. All modes
	// leave identical MI state — only the gossip byte counters differ.
	Gossip core.ExchangeMode
}

// DefaultEERConfig returns the paper's parameters with quota lambda.
func DefaultEERConfig(lambda int) EERConfig {
	return EERConfig{Lambda: lambda, Alpha: 0.28}
}

// eerShared is per-world state shared by all EER routers: the MEMD scratch
// (the MD of Theorem 3 is transient, so one buffer serves every node on
// the single simulation goroutine — the holder's compact row and O(n)
// Dijkstra keys at figure scale, a bounded-heap sparse calculator at city
// scale), plus freelists of
// per-contact state. Contacts are constant churn — every one allocated a
// snapshot, a decision map and a MEMD vector — so recycling them removes
// the router layer's steady-state allocations entirely.
type eerShared struct {
	memd  *core.MEMD       // dense scratch; nil in sparse mode
	smemd *core.SparseMEMD // sparse scratch; nil in dense mode

	snapPool []*core.EEVSnapshot
	ctPool   []*eerContact
}

// newEERShared sizes the scratch for the configured storage mode.
func newEERShared(cfg EERConfig, n int) *eerShared {
	if cfg.SparseEstimators {
		return &eerShared{smemd: core.NewSparseMEMD()}
	}
	return &eerShared{memd: core.NewMEMD(n)}
}

func (sh *eerShared) getSnapshot() *core.EEVSnapshot {
	if n := len(sh.snapPool); n > 0 {
		s := sh.snapPool[n-1]
		sh.snapPool = sh.snapPool[:n-1]
		return s
	}
	return &core.EEVSnapshot{}
}

func (sh *eerShared) getContact(t0 float64) *eerContact {
	if n := len(sh.ctPool); n > 0 {
		st := sh.ctPool[n-1]
		sh.ctPool = sh.ctPool[:n-1]
		st.t0 = t0
		st.memd = nil
		st.memdDone = false
		clear(st.memdMap)
		clear(st.decided)
		return st
	}
	return &eerContact{t0: t0, decided: make(map[int]eerDecision), pooled: true}
}

// putContact recycles a contact and its snapshot. Only pooled contacts
// (those from getContact) are recycled; decide's defensive fallback
// contacts are left to the garbage collector.
func (sh *eerShared) putContact(st *eerContact) {
	if !st.pooled {
		return
	}
	if st.snap != nil {
		sh.snapPool = append(sh.snapPool, st.snap)
		st.snap = nil
	}
	sh.ctPool = append(sh.ctPool, st)
}

// EER implements the paper's Expected-Encounter based Routing (Section
// III, Algorithm 1): quota distribution proportional to TTL-scaled
// expected encounter values, and single-replica forwarding by minimum
// expected meeting delay.
type EER struct {
	Base
	cfg    EERConfig
	shared *eerShared

	hist *core.History
	mi   core.MeetingStore

	contacts map[int]*eerContact
}

// eerContact caches the per-contact estimator state: Algorithm 1 fixes
// routing information at meeting time t0.
type eerContact struct {
	t0      float64
	snap    *core.EEVSnapshot
	memd    []float64 // dense mode: MEMD to every node, by id; nil until built
	memdBuf []float64 // retained backing array for memd across recycling
	// Sparse mode: delays for reached destinations only (absent = +Inf);
	// the map is retained and cleared across recycling.
	memdMap  map[int]float64
	memdDone bool
	decided  map[int]eerDecision
	pooled   bool // came from the shared freelist; recycled on contact down
}

// eerDecision is the meeting-time decision for one message.
type eerDecision struct {
	wSelf, wPeer float64 // EEV weights for the quota split
	forward      bool    // single-replica: hand over?
}

// NewEER returns an EER router. Routers of one world must share the same
// factory so they share the MD scratch; use EERFactory.
func NewEER(cfg EERConfig, shared *eerShared) *EER {
	if cfg.Lambda < 1 {
		panic("routing: EER lambda must be >= 1")
	}
	return &EER{cfg: cfg, shared: shared}
}

// EERFactory returns a constructor producing EER routers that share one
// MEMD scratch sized for n nodes (or one sparse calculator when
// cfg.SparseEstimators is set).
func EERFactory(cfg EERConfig, n int) func() network.Router {
	shared := newEERShared(cfg, n)
	return func() network.Router { return NewEER(cfg, shared) }
}

// Config returns the router's configuration.
func (r *EER) Config() EERConfig { return r.cfg }

// History exposes the contact history (tests, trace tools).
func (r *EER) History() *core.History { return r.hist }

// MI exposes the meeting-interval store (tests, trace tools).
func (r *EER) MI() core.MeetingStore { return r.mi }

// InitialReplicas implements network.Router.
func (r *EER) InitialReplicas(*msg.Message) int { return r.cfg.Lambda }

// Init implements network.Router.
func (r *EER) Init(self *network.Node, w *network.World) {
	r.Base.Init(self, w)
	n := w.N()
	if r.cfg.SparseEstimators {
		r.hist = core.NewSparseHistory(self.ID, n, r.cfg.Window)
		mi := core.NewSparseMeetingStore(n)
		if r.cfg.MaxSparseRows > 0 {
			mi.SetMaxRows(r.cfg.MaxSparseRows, self.ID)
		}
		r.mi = mi
	} else {
		r.hist = core.NewHistory(self.ID, n, r.cfg.Window)
		r.mi = core.NewFullMeetingMatrix(n)
	}
	r.contacts = make(map[int]*eerContact)
	if r.shared == nil {
		r.shared = newEERShared(r.cfg, n)
	}
}

// ContactUp implements network.Router: record the meeting, refresh the own
// MI row and run the freshness-based MI exchange (Algorithm 1 lines 3–5).
func (r *EER) ContactUp(t float64, peer *network.Node) {
	r.hist.RecordContact(peer.ID, t)
	r.mi.UpdateOwnRow(r.Self.ID, t, r.hist)
	if pr, ok := peer.Router.(*EER); ok {
		st := core.SyncMode(r.mi, pr.mi, r.Self.ID, peer.ID, r.cfg.Gossip)
		r.World.Metrics.EstimatorExchanged(st.Rows, st.Entries, st.Bytes, st.DigestBytes)
	}
	r.contacts[peer.ID] = r.shared.getContact(t)
}

// ContactDown implements network.Router.
func (r *EER) ContactDown(t float64, peer *network.Node) {
	r.Base.ContactDown(t, peer)
	if st := r.contacts[peer.ID]; st != nil {
		r.shared.putContact(st)
		delete(r.contacts, peer.ID)
	}
}

// snapshot lazily builds the meeting-time EEV snapshot for a contact.
func (r *EER) snapshot(st *eerContact) *core.EEVSnapshot {
	if st.snap == nil {
		if st.pooled {
			st.snap = r.hist.SnapshotEEVInto(st.t0, r.shared.getSnapshot())
		} else {
			st.snap = r.hist.SnapshotEEV(st.t0)
		}
	}
	return st.snap
}

// memdTo lazily computes the MEMD vector for a contact and returns the
// delay to dst.
func (r *EER) memdTo(st *eerContact, dst int) float64 {
	if r.cfg.SparseEstimators {
		return r.sparseMEMDTo(st, dst)
	}
	if st.memd == nil {
		calc, mi := r.shared.memd, r.mi.(*core.MeetingMatrix)
		var settled int
		if r.cfg.MeanIntervalMD {
			// A2 ablation: the own row uses plain mean intervals (MEED)
			// instead of elapsed-conditioned EMDs, so the MD matrix is the
			// MI matrix itself.
			settled = calc.ComputeStoreOnly(r.Self.ID, mi)
		} else {
			settled = calc.Compute(r.Self.ID, st.t0, r.hist, mi)
		}
		r.World.Profiler().EstimatorDijkstra(settled)
		st.memd = append(st.memdBuf[:0], calc.Distances()...)
		st.memdBuf = st.memd
	}
	return st.memd[dst]
}

// sparseMEMDTo is memdTo over the sparse core: the heap Dijkstra touches
// only recorded edges, and the contact caches delays for the reached
// destinations (absent = +Inf, exactly the dense convention).
func (r *EER) sparseMEMDTo(st *eerContact, dst int) float64 {
	if !st.memdDone {
		calc := r.shared.smemd
		var settled int
		if r.cfg.MeanIntervalMD {
			settled = calc.ComputeStoreOnly(r.Self.ID, r.mi)
		} else {
			settled = calc.Compute(r.Self.ID, st.t0, r.hist, r.mi)
		}
		r.World.Profiler().EstimatorDijkstra(settled)
		if st.memdMap == nil {
			st.memdMap = make(map[int]float64)
		}
		calc.ForEachReached(func(id int, d float64) { st.memdMap[id] = d })
		st.memdDone = true
	}
	if d, ok := st.memdMap[dst]; ok {
		return d
	}
	return math.Inf(1)
}

// horizon returns the EEV horizon for message m decided at time t.
func (r *EER) horizon(m *msg.Message, t float64) float64 {
	if r.cfg.FixedHorizon > 0 {
		return r.cfg.FixedHorizon
	}
	res := m.ResidualTTL(t)
	if res < 0 {
		res = 0
	}
	return r.cfg.Alpha * res
}

// decide makes the Algorithm-1 decision for message c against peer pr on
// the contact st.
func (r *EER) decide(st *eerContact, pr *EER, c *msg.Copy) eerDecision {
	var d eerDecision
	tau := r.horizon(c.M, st.t0)
	peerSt := pr.contacts[r.Self.ID]
	if peerSt == nil {
		// The peer has not (yet) seen this contact; fall back to direct
		// evaluation at our meeting time.
		peerSt = &eerContact{t0: st.t0, decided: map[int]eerDecision{}}
	}
	d.wSelf = r.snapshot(st).EEV(tau)
	d.wPeer = pr.snapshot(peerSt).EEV(tau)
	myD := r.memdTo(st, c.M.To)
	peerD := pr.memdTo(peerSt, c.M.To)
	d.forward = myD > peerD+r.cfg.ForwardHysteresis && !math.IsInf(peerD, 1)
	return d
}

// NextTransfer implements network.Router (Algorithm 1 lines 6–18).
func (r *EER) NextTransfer(t float64, peer *network.Node) *network.Plan {
	if p := r.DeliverDirect(t, peer); p != nil {
		return p
	}
	pr, ok := peer.Router.(*EER)
	if !ok {
		return nil
	}
	st := r.contacts[peer.ID]
	if st == nil {
		return nil
	}
	for _, c := range r.Candidates(t, peer) {
		d, seen := st.decided[c.M.ID]
		if !seen {
			d = r.decide(st, pr, c)
			st.decided[c.M.ID] = d
		}
		if c.Replicas > 1 {
			if p := SplitPlan(c, QuotaShare(c.Replicas, d.wSelf, d.wPeer)); p != nil {
				return p
			}
			continue
		}
		if d.forward {
			return network.Forward(c)
		}
	}
	return nil
}
