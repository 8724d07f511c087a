package distributed

import (
	"fmt"
	"math"
	"testing"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/quant"
)

// The golden bitwise-trajectory regression: per-step mean-loss bit patterns
// captured from the pre-embedding-tier code (direct table access in the
// SPTT engine, owner-rank SparseAdam in the trainer). The redesigned
// embeddings.Store reroute must reproduce them EXACTLY — not approximately
// — at both cluster shapes and under both wire schemes, or the refactor
// changed arithmetic somewhere.
var goldenLossBits = map[string][5]uint64{
	"G=4/fp32": {0x3fe601353fab0fbf, 0x3fe67b2371e4b70a, 0x3fe74390be07c69e, 0x3fe860999c0e5e91, 0x3fe73285cb19c6c4},
	"G=4/fp16": {0x3fe601355f9b8dd9, 0x3fe67b232fed70e3, 0x3fe7439020b426ea, 0x3fe8609a1bf0a5d6, 0x3fe7328547256db4},
	"G=8/fp32": {0x3fe64e5b6a1230e5, 0x3fe66323ba197426, 0x3fe63a49ac97bc98, 0x3fe6584ae6dfd184, 0x3fe5ecf0db43fd75},
	"G=8/fp16": {0x3fe64e5bccb04513, 0x3fe6631442eae21e, 0x3fe63a4ac9eebb84, 0x3fe65897e35372b4, 0x3fe5ecf3f43b4822},
}

// goldenTowers returns the capture configuration's tower partition for g
// ranks at 2 per host.
func goldenTowers(g int) [][]int {
	if g == 4 {
		return [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	}
	return [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
}

func TestGoldenTrajectoryBitwise(t *testing.T) {
	const (
		l          = 2
		localBatch = 6
		steps      = 5
		features   = 8
	)
	for _, g := range []int{4, 8} {
		for _, s := range []quant.Scheme{quant.None, quant.FP16} {
			name := fmt.Sprintf("G=%d/%s", g, s)
			t.Run(name, func(t *testing.T) {
				want, ok := goldenLossBits[name]
				if !ok {
					t.Fatalf("no golden bits for %s", name)
				}
				dcfg := data.CriteoLike(1)
				dcfg.Cardinalities = make([]int, features)
				dcfg.HotSizes = make([]int, features)
				for i := range dcfg.Cardinalities {
					dcfg.Cardinalities[i] = 32
					dcfg.HotSizes[i] = 1
				}
				dcfg.NumGroups = g / l
				gen := data.NewGenerator(dcfg)

				tr, err := New(Config{
					G: g, L: l, LocalBatch: localBatch,
					Model: models.DMTDLRMConfig{
						Schema: dcfg.Schema, N: 8,
						Towers: goldenTowers(g),
						C:      1, P: 0, D: 4,
						BottomMLP: []int{16, 4},
						TopMLP:    []int{16},
						Seed:      99,
					},
					DenseLR: 1e-3, SparseLR: 1e-2, Seed: 7,
					Schedule:    Sequential,
					Compression: Compression{Gradient: s, Embedding: s},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				for step := 0; step < steps; step++ {
					locals := make([]*data.Batch, g)
					for r := 0; r < g; r++ {
						locals[r] = gen.Batch(step*g*localBatch+r*localBatch, localBatch)
					}
					res := tr.Step(locals)
					if got := math.Float64bits(res.MeanLoss); got != want[step] {
						t.Fatalf("step %d: loss %v (bits %#x), golden bits %#x — trajectory diverged from pre-refactor capture",
							step, res.MeanLoss, got, want[step])
					}
				}
			})
		}
	}
}
