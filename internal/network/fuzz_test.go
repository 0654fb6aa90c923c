package network

import (
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geo"
	"repro/internal/sim"
)

// FuzzGridParity drives the incremental broad phase with fuzz-chosen
// move / teleport / park ("insert") sequences and checks, tick by tick,
// that the engine's contact set equals the naive O(N²) distance sweep —
// for the serial path and the sharded path simultaneously, which must
// additionally agree on link order.
//
// Input layout: data[0] picks the node count, data[1] bit 0 picks
// whether a speed bound is configured. The rest is consumed 3 bytes per
// (tick, node): an opcode plus a dx/dy payload. In bounded mode every op
// is a clamped small move (so the configured MaxSpeed stays truthful);
// in unbounded mode ops include arbitrary teleports and parking far
// outside the arena, which models removal plus re-insertion and is the
// worst case for incremental tracking. Parking at ±1e7 m puts cells
// beyond the cell index cap, exercising the overflow cells on both paths.

// fuzzPuppet is a mover whose next position the fuzz loop scripts.
type fuzzPuppet struct {
	pos, next geo.Point
}

func (p *fuzzPuppet) Pos() geo.Point         { return p.pos }
func (p *fuzzPuppet) Step(float64) geo.Point { p.pos = p.next; return p.pos }

func FuzzGridParity(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{12, 1, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{20, 0, 2, 250, 5, 2, 5, 250, 3, 0, 0, 3, 1, 1, 0, 40, 40, 1, 200, 200})
	f.Add([]byte{5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 7, 1, 1, 15, 1, 1, 7, 1, 1, 3, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 7, 1, 1, 7, 1, 1, 7, 1, 1, 7, 1, 1, 0, 255, 128, 0, 255, 128, 0, 255, 128, 0, 255, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 4 + int(data[0]%20)
		bounded := data[1]&1 == 1
		ops := data[2:]

		cfg := Config{Range: 10, Bandwidth: 1000}
		if bounded {
			// Per-axis steps are clamped to 4 below: speed <= 4*sqrt(2) < 6.
			cfg.MaxSpeed = 6
		}
		shardedCfg := cfg
		shardedCfg.Shards = 2

		build := func(cfg Config) (*World, *sim.Runner, []*fuzzPuppet) {
			runner := sim.NewRunner(1)
			w := New(cfg, runner)
			puppets := make([]*fuzzPuppet, n)
			for i := range puppets {
				start := geo.Point{X: float64(i%5) * 7, Y: float64(i/5) * 7}
				puppets[i] = &fuzzPuppet{pos: start, next: start}
				w.AddNode(puppets[i], buffer.New(0, nil), &probe{})
			}
			w.Start()
			return w, runner, puppets
		}
		ws, rs, ps := build(cfg)
		wp, rp, pp := build(shardedCfg)
		// Narrow sub-grid stripes: teleports and even small moves cross
		// region boundaries constantly, stressing the parallel-safe
		// classification and the serial boundary reconcile.
		wp.grid.stripe = 4

		signed := func(b byte, scale float64) float64 { return (float64(b) - 128) * scale }
		const maxTicks = 64
		for tick := 1; tick <= maxTicks && len(ops) >= 3*n; tick++ {
			for i := 0; i < n; i++ {
				op, bx, by := ops[0], ops[1], ops[2]
				ops = ops[3:]
				cur := ps[i].next
				var next geo.Point
				switch {
				case bounded || op%4 < 2:
					// Small move; clamp to the bound in bounded mode.
					scale := 5.0 / 128
					if bounded {
						scale = 4.0 / 128
					}
					next = geo.Point{X: cur.X + signed(bx, scale), Y: cur.Y + signed(by, scale)}
				case op%4 == 2:
					// Teleport anywhere in [-100, 100]², negative included.
					next = geo.Point{X: signed(bx, 100.0/128), Y: signed(by, 100.0/128)}
				case math.Abs(cur.X) >= 5000:
					// Return from parking.
					next = geo.Point{X: float64(i) * 3, Y: 0}
				case op&4 == 0:
					// Park far away (node leaves the scenario).
					next = geo.Point{X: 9000 + float64(i)*1000, Y: -9000}
				default:
					// Park at ±1e7 m, beyond the cell index cap: the cell
					// lives in the overflow. Nodes parked on one side share
					// cells, so contacts form there too.
					sign := 1.0
					if op&8 != 0 {
						sign = -1
					}
					next = geo.Point{X: sign*1e7 + float64(i%3)*4, Y: -sign * 1e7}
				}
				ps[i].next = next
				pp[i].next = next
			}
			rs.Run(float64(tick))
			rp.Run(float64(tick))
			comparePairSets(t, tick, bruteForcePairs(ws), linkPairs(ws))
			comparePairSets(t, tick, bruteForcePairs(wp), linkPairs(wp))
			if len(ws.linkList) != len(wp.linkList) {
				t.Fatalf("tick %d: serial has %d links, sharded %d", tick, len(ws.linkList), len(wp.linkList))
			}
			for x := range ws.linkList {
				a, b := ws.linkList[x], wp.linkList[x]
				if a.a.ID != b.a.ID || a.b.ID != b.b.ID {
					t.Fatalf("tick %d: link order diverged at %d: (%d,%d) vs (%d,%d)",
						tick, x, a.a.ID, a.b.ID, b.a.ID, b.b.ID)
				}
			}
		}
	})
}
