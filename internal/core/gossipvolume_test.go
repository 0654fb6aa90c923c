package core

import "testing"

// TestDenseGossipVolumePinned replays one scripted contact sequence over
// dense matrices under each gossip mode and pins the metered volume —
// rows, entries, bytes and digest overhead — to the figures the matrix
// produced when every merge copied rows into private n×n storage. Sharing
// immutable rows changes where a row lives, never what an exchange ships
// or how it is metered.
func TestDenseGossipVolumePinned(t *testing.T) {
	sc := makeScript(12, 600, 41)
	for _, tc := range []struct {
		mode ExchangeMode
		want ExchangeStats
	}{
		{ExchangeFresher, ExchangeStats{Rows: 2904, Entries: 20508, Bytes: 292560}},
		{ExchangeFlood, ExchangeStats{Rows: 7702, Entries: 54266, Bytes: 774424}},
		{ExchangeDelta, ExchangeStats{Rows: 2904, Entries: 20508, Bytes: 339987, DigestRows: 6236, DigestBytes: 47427}},
	} {
		_, stats := playScript(sc, false, 0, tc.mode)
		var got ExchangeStats
		for _, st := range stats {
			got.Add(st)
		}
		if got != tc.want {
			t.Errorf("%s: gossip volume %+v, want %+v", tc.mode, got, tc.want)
		}
	}
}
