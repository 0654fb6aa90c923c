package routing

import (
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/xrand"
)

// TestMaxPropGossipVolumePinned drives dense MaxProp routers through one
// scripted contact sequence under each gossip mode and pins the metered
// vector-exchange volume to the figures the routers produced when every
// exchange copied probability rows into private n×n storage. Sharing the
// published cost rows changes where a row lives, never what an exchange
// ships or how it is metered.
func TestMaxPropGossipVolumePinned(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		mode                 core.ExchangeMode
		rows, entries, bytes int
	}{
		{core.ExchangeFresher, 379, 1705, 26524},
		{core.ExchangeFlood, 1694, 7334, 115112},
		{core.ExchangeDelta, 379, 1705, 34686},
	} {
		factory := MaxPropFactory(n, false, 0, tc.mode)
		h := newHarness(t, n, func(int) network.Router { return factory() })
		rng := xrand.New(17)
		for i := 0; i < 60; i++ {
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			h.meet(a, b, 1+float64(rng.Intn(3)))
		}
		s := h.w.Metrics.Summary()
		if s.GossipRows != tc.rows || s.GossipEntries != tc.entries || s.GossipBytes != tc.bytes {
			t.Errorf("%s: gossip rows/entries/bytes = %d/%d/%d, want %d/%d/%d", tc.mode,
				s.GossipRows, s.GossipEntries, s.GossipBytes, tc.rows, tc.entries, tc.bytes)
		}
	}
}
