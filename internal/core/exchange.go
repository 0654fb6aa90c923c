package core

import "fmt"

// This file is the delta/digest gossip layer over the freshness merge of
// Algorithm 1 line 4. The paper's exchange is semantic: two encountering
// nodes end up with the element-wise fresher rows. How many bytes that
// costs depends on the wire protocol, and this layer meters three:
//
//   - ExchangeFresher: the repository's historical accounting — only the
//     rows that actually replace the receiver's are counted, and the
//     freshness negotiation itself is treated as free. An optimistic
//     lower bound kept as the default so long-standing figure baselines
//     stay comparable.
//   - ExchangeFlood: each side transmits every published row it holds and
//     the receiver keeps the fresher ones — what a naive implementation
//     (and MaxProp's original "flooded vectors" description) would put on
//     the air. The honest upper baseline for savings claims.
//   - ExchangeDelta: anti-entropy. Each store counts local row mutations
//     (version), stamps each row with the version of its last mutation,
//     and remembers the version as of the end of its last sync with each
//     peer. A sync first trades digests — one (owner, freshness stamp)
//     entry per row mutated since the peers last met — then each side
//     requests and receives exactly the advertised rows that beat its
//     own. First meetings degenerate to a full digest (the watermark is
//     zero), and a capped store that evicted rows since the last sync
//     makes its peer fall back to a full digest too (tracked by an
//     eviction generation), because an evicted row must be re-offered
//     even though its sender never re-mutated it.
//
// All three modes apply the identical fresher-wins merge — routing state,
// and therefore every simulation outcome except the gossip byte counters,
// is mode-independent. For delta this needs the watermark soundness
// argument: after two stores delta-sync, their row stamps agree on every
// row (both end with the element-wise max, exactly as a full sync), so a
// row one side holds strictly fresher at the *next* sync must have mutated
// there in between — and rows mutated since the last sync are precisely
// what the digest advertises. Cap evictions are the one way a store can
// fall behind without the invariant noticing, which the eviction
// generation fallback closes. exchange_test.go pins the equivalence, and
// the scenario-level suite pins dense == sparse == delta at summary level.

// ExchangeMode selects the metered wire protocol of estimator syncs.
type ExchangeMode uint8

const (
	// ExchangeFresher meters replaced rows only (legacy accounting).
	ExchangeFresher ExchangeMode = iota
	// ExchangeFlood meters full row-set transmission both ways.
	ExchangeFlood
	// ExchangeDelta meters digest round-trip + requested rows only.
	ExchangeDelta
)

// ParseExchangeMode maps the scenario-level gossip mode names; the empty
// string selects the historical default.
func ParseExchangeMode(s string) (ExchangeMode, error) {
	switch s {
	case "", "fresher":
		return ExchangeFresher, nil
	case "flood":
		return ExchangeFlood, nil
	case "delta":
		return ExchangeDelta, nil
	}
	return 0, fmt.Errorf("core: unknown gossip mode %q (want fresher, flood or delta)", s)
}

// String returns the spec-level name of the mode.
func (m ExchangeMode) String() string {
	switch m {
	case ExchangeFlood:
		return "flood"
	case ExchangeDelta:
		return "delta"
	default:
		return "fresher"
	}
}

// SyncMode merges two stores of the same implementation into the
// element-wise fresher rows, metering the exchange under the given mode.
// aID and bID are the global node ids of the stores' owners (the keys of
// the per-peer delta watermarks). Mixing implementations panics: a world
// runs one storage mode.
func SyncMode(a, b MeetingStore, aID, bID int, mode ExchangeMode) ExchangeStats {
	switch x := a.(type) {
	case *MeetingMatrix:
		return SyncPairMode(x, b.(*MeetingMatrix), aID, bID, mode)
	case *SparseMeetingStore:
		return SyncRowsMode(x.rows, b.(*SparseMeetingStore).rows, aID, bID, mode)
	default:
		panic(fmt.Sprintf("core: SyncMode over unknown MeetingStore implementation %T", a))
	}
}

// --- dense ---

// SyncPairMode is SyncPair with metered-mode selection.
func SyncPairMode(a, b *MeetingMatrix, aID, bID int, mode ExchangeMode) ExchangeStats {
	switch mode {
	case ExchangeFlood:
		var st ExchangeStats
		st.Add(a.floodVolume())
		st.Add(b.floodVolume())
		a.Merge(b)
		b.Merge(a)
		return st
	case ExchangeDelta:
		return syncPairDelta(a, b, aID, bID)
	default:
		return SyncPair(a, b)
	}
}

// floodVolume is the cost of transmitting every published row.
func (m *MeetingMatrix) floodVolume() ExchangeStats {
	var st ExchangeStats
	for i, u := range m.updated {
		if u >= 0 {
			st.AddRow(len(m.rows[i]))
		}
	}
	return st
}

// advertised counts and sizes the rows a delta digest to the peer with
// watermark seen carries: published rows mutated since the peers last
// met, each costing a varint (owner, stamp) entry.
func (m *MeetingMatrix) advertised(seen uint64) (rows, payloadBytes int) {
	for i, u := range m.updated {
		if u >= 0 && m.rowVer[i] > seen {
			rows++
			payloadBytes += DigestEntryLen(m.ids[i], u)
		}
	}
	return rows, payloadBytes
}

// mergeDelta is Merge restricted to the rows other advertised (mutated
// past otherSeen). The dense matrix never evicts, so the watermark alone
// is sound and there is no full-digest fallback beyond seen == 0.
func (m *MeetingMatrix) mergeDelta(other *MeetingMatrix, otherSeen uint64) ExchangeStats {
	if len(m.ids) != len(other.ids) {
		panic("core: merging meeting matrices over different node sets")
	}
	var st ExchangeStats
	for i := range m.ids {
		if m.ids[i] != other.ids[i] {
			panic("core: merging meeting matrices over different node sets")
		}
		if other.updated[i] < 0 || other.rowVer[i] <= otherSeen {
			continue
		}
		if other.updated[i] > m.updated[i] {
			m.takeRow(other, i)
			st.AddRow(len(m.rows[i]))
		}
	}
	return st
}

func syncPairDelta(a, b *MeetingMatrix, aID, bID int) ExchangeStats {
	aSeen, bSeen := a.seen[bID], b.seen[aID]
	var st ExchangeStats
	st.AddDigest(a.advertised(aSeen))
	st.AddDigest(b.advertised(bSeen))
	// Same sequential direction order as SyncPair: a absorbs b's rows
	// first, then b reads a's merged state. Rows a just learned carry a
	// fresh stamp past aSeen but equal freshness, so they never re-ship.
	fwd := a.mergeDelta(b, bSeen)
	back := b.mergeDelta(a, aSeen)
	st.Add(fwd)
	st.Add(back)
	st.AddRequests(fwd.Rows + back.Rows)
	if a.seen == nil {
		a.seen = make(map[int]uint64)
	}
	if b.seen == nil {
		b.seen = make(map[int]uint64)
	}
	a.seen[bID] = a.version
	b.seen[aID] = b.version
	return st
}

// --- sparse ---

// SyncRowsMode merges two sparse row sets both ways (the exchange of
// SyncSparse and of MaxProp's sparse vector flood), metering under the
// given mode.
func SyncRowsMode(a, b *SparseRows, aID, bID int, mode ExchangeMode) ExchangeStats {
	switch mode {
	case ExchangeFlood:
		var st ExchangeStats
		st.Add(a.floodVolume())
		st.Add(b.floodVolume())
		a.MergeFresher(b)
		b.MergeFresher(a)
		return st
	case ExchangeDelta:
		return syncRowsDelta(a, b, aID, bID)
	default:
		st := a.MergeFresher(b)
		st.Add(b.MergeFresher(a))
		return st
	}
}

// floodVolume is the cost of transmitting every published row.
func (s *SparseRows) floodVolume() ExchangeStats {
	var st ExchangeStats
	for _, r := range s.rows {
		if r.Updated >= 0 {
			st.AddRow(r.Len())
		}
	}
	return st
}

// advertised counts and sizes the rows a delta digest carries: published
// rows mutated past the watermark, or all published rows for a full
// digest, each costing a varint (owner, stamp) entry.
func (s *SparseRows) advertised(seen uint64, full bool) (rows, payloadBytes int) {
	for id, r := range s.rows {
		if r.Updated >= 0 && (full || r.ver > seen) {
			rows++
			payloadBytes += DigestEntryLen(id, r.Updated)
		}
	}
	return rows, payloadBytes
}

func syncRowsDelta(a, b *SparseRows, aID, bID int) ExchangeStats {
	// A side evicted rows since the peers last met (or mid-sync, hence the
	// pre-merge snapshot below) may be missing rows its peer never
	// re-mutated; the peer answers with a full digest.
	aFull := b.evictGen != b.evictSeen[aID]
	bFull := a.evictGen != a.evictSeen[bID]
	aSeen, bSeen := a.seen[bID], b.seen[aID]
	aEvictPre, bEvictPre := a.evictGen, b.evictGen
	var st ExchangeStats
	st.AddDigest(a.advertised(aSeen, aFull))
	st.AddDigest(b.advertised(bSeen, bFull))
	// Same sequential direction order as the fresher path (a absorbs b
	// first, b then reads a's merged — and possibly just-evicted — state),
	// so the shipped row sets match fresher exactly even when a's cap
	// evicts mid-sync; the eviction itself is caught by the evictGen
	// fallback at the pair's next meeting.
	fwd := a.mergeFresherDelta(b, bSeen, bFull)
	back := b.mergeFresherDelta(a, aSeen, aFull)
	st.Add(fwd)
	st.Add(back)
	st.AddRequests(fwd.Rows + back.Rows)
	a.noteSynced(bID, aEvictPre)
	b.noteSynced(aID, bEvictPre)
	return st
}

// noteSynced records the delta watermarks at the end of a sync with peer:
// the current version (rows learned during the sync need no re-advertising
// — the peer sent them) and the pre-sync eviction generation (evictions
// during the sync still demand a full digest next time).
func (s *SparseRows) noteSynced(peer int, evictPre uint64) {
	if s.seen == nil {
		s.seen = make(map[int]uint64)
		s.evictSeen = make(map[int]uint64)
	}
	s.seen[peer] = s.version
	s.evictSeen[peer] = evictPre
}
