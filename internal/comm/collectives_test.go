package comm

import (
	"testing"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// TestCompressedWireAccounting: every tensor collective must charge the
// traffic counters the wire size of its encoded payloads, not the raw fp32
// bytes — 4 bytes/element raw, 2 for fp16, 1 plus a 4-byte per-row scale
// for int8, half that plus the scale for int4 — and a nil AlltoAll chunk
// must charge nothing.
func TestCompressedWireAccounting(t *testing.T) {
	const n, elems = 3, 10 // 1-D tensors: one scale per payload
	perPayload := map[quant.Scheme]int64{
		quant.None: 4 * elems,
		quant.FP16: 2 * elems,
		quant.INT8: elems + 4,
		quant.INT4: (elems+1)/2 + 4,
	}
	x := func(c *Comm) *tensor.Tensor { return tensor.Full(float32(c.Rank()+1), elems) }
	chunks := func(c *Comm) []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for d := range out {
			out[d] = x(c)
		}
		return out
	}
	one := func(src, dst int) int64 { return 1 }
	collectives := []struct {
		name string
		run  func(c *Comm, s quant.Scheme)
		// payloads is how many payloads the (src, dst) link carries.
		payloads func(src, dst int) int64
	}{
		{"AlltoAll", func(c *Comm, s quant.Scheme) {
			c.IAlltoAllTensorsQ(s, chunks(c)).Wait()
		}, one},
		{"AlltoAll/nil chunk", func(c *Comm, s quant.Scheme) {
			ch := chunks(c)
			ch[(c.Rank()+1)%n] = nil
			c.IAlltoAllTensorsQ(s, ch).Wait()
		}, func(src, dst int) int64 {
			if dst == (src+1)%n {
				return 0
			}
			return 1
		}},
		{"AllGather", func(c *Comm, s quant.Scheme) {
			c.IAllGatherQ(s, x(c)).Wait()
		}, one},
		{"AllGatherBatch", func(c *Comm, s quant.Scheme) {
			c.IAllGatherBatchQ(s, []*tensor.Tensor{x(c), x(c)}).Wait()
		}, func(src, dst int) int64 { return 2 }},
		{"AllReduce", func(c *Comm, s quant.Scheme) {
			c.IAllReduceSumQ(s, x(c)).Wait()
		}, one},
		{"ReduceScatter", func(c *Comm, s quant.Scheme) {
			c.IReduceScatterSumQ(s, chunks(c)).Wait()
		}, one},
	}
	for _, col := range collectives {
		for _, s := range quant.Schemes() {
			comms := NewGroup(n)
			Run(comms, func(c *Comm) { col.run(c, s) })
			m := TrafficMatrix(comms)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if want := col.payloads(src, dst) * perPayload[s]; m[src][dst] != want {
						t.Fatalf("%s/%s: traffic[%d][%d] = %d, want %d", col.name, s, src, dst, m[src][dst], want)
					}
				}
			}
		}
	}
}

// TestCompressedAlltoAllDeliversQuantized: each received chunk must equal
// the sender's payload passed through the scheme's round trip (quant.Apply
// is exactly Encode∘Decode), and nil chunks stay nil.
func TestCompressedAlltoAllDeliversQuantized(t *testing.T) {
	const n = 4
	r := tensor.NewRNG(11)
	orig := make([][]*tensor.Tensor, n)
	for src := 0; src < n; src++ {
		orig[src] = make([]*tensor.Tensor, n)
		for d := 0; d < n; d++ {
			if src == 1 && d == 2 {
				continue // exercise the nil-chunk path
			}
			orig[src][d] = tensor.RandN(r, 1, 3, 5)
		}
	}
	for _, s := range []quant.Scheme{quant.FP16, quant.INT8, quant.INT4} {
		got := make([][]*tensor.Tensor, n)
		comms := NewGroup(n)
		Run(comms, func(c *Comm) {
			got[c.Rank()] = c.IAlltoAllTensorsQ(s, orig[c.Rank()]).Wait()
		})
		for dst := 0; dst < n; dst++ {
			for src := 0; src < n; src++ {
				if orig[src][dst] == nil {
					if got[dst][src] != nil {
						t.Fatalf("%s: nil chunk arrived non-nil", s)
					}
					continue
				}
				want := quant.Apply(s, orig[src][dst])
				if !got[dst][src].Equal(want) {
					t.Fatalf("%s: dst %d src %d decoded payload differs from Apply", s, dst, src)
				}
			}
		}
	}
}

// TestReduceScatterSumQMatchesReference: the quantized reduce-scatter must
// equal the rank-ordered sum of the quantized chunks addressed to the rank.
func TestReduceScatterSumQMatchesReference(t *testing.T) {
	const n = 3
	r := tensor.NewRNG(7)
	chunks := make([][]*tensor.Tensor, n)
	for src := 0; src < n; src++ {
		chunks[src] = make([]*tensor.Tensor, n)
		for d := 0; d < n; d++ {
			chunks[src][d] = tensor.RandN(r, 1, 2, 4)
		}
	}
	for _, s := range []quant.Scheme{quant.FP16, quant.INT4} {
		out := make([]*tensor.Tensor, n)
		comms := NewGroup(n)
		Run(comms, func(c *Comm) {
			out[c.Rank()] = c.IReduceScatterSumQ(s, chunks[c.Rank()]).Wait()
		})
		for d := 0; d < n; d++ {
			want := quant.Apply(s, chunks[0][d]).Clone()
			for src := 1; src < n; src++ {
				tensor.AddInPlace(want, quant.Apply(s, chunks[src][d]))
			}
			if !out[d].Equal(want) {
				t.Fatalf("%s: rank %d reduce-scatter differs from sequential reference", s, d)
			}
		}
	}
}

// TestCompressedCollectivesConcurrencyAgree drives IAllReduceSumQ
// and IAlltoAllTensorsQ at G=8 under comm.Run — the `-race` workout for the
// compressed wire path — and checks that every rank's AllReduce result is
// bit-identical across ranks and equal to the sequential reference (the
// rank-ordered sum of each rank's quantized contribution).
func TestCompressedCollectivesConcurrencyAgree(t *testing.T) {
	const g, rounds = 8, 5
	r := tensor.NewRNG(23)
	for _, s := range []quant.Scheme{quant.None, quant.FP16, quant.INT8} {
		xs := make([][]*tensor.Tensor, rounds)
		chunks := make([][][]*tensor.Tensor, rounds)
		for round := 0; round < rounds; round++ {
			xs[round] = make([]*tensor.Tensor, g)
			chunks[round] = make([][]*tensor.Tensor, g)
			for rk := 0; rk < g; rk++ {
				xs[round][rk] = tensor.RandN(r, 1, 4, 8)
				chunks[round][rk] = make([]*tensor.Tensor, g)
				for d := 0; d < g; d++ {
					chunks[round][rk][d] = tensor.RandN(r, 1, 2, 8)
				}
			}
		}
		sums := make([][]*tensor.Tensor, g)
		a2a := make([][][]*tensor.Tensor, g)
		for rk := 0; rk < g; rk++ {
			sums[rk] = make([]*tensor.Tensor, rounds)
			a2a[rk] = make([][]*tensor.Tensor, rounds)
		}
		comms := NewGroup(g)
		Run(comms, func(c *Comm) {
			for round := 0; round < rounds; round++ {
				sums[c.Rank()][round] = c.IAllReduceSumQ(s, xs[round][c.Rank()]).Wait()
				a2a[c.Rank()][round] = c.IAlltoAllTensorsQ(s, chunks[round][c.Rank()]).Wait()
			}
		})
		for round := 0; round < rounds; round++ {
			ref := quant.Apply(s, xs[round][0]).Clone()
			for rk := 1; rk < g; rk++ {
				tensor.AddInPlace(ref, quant.Apply(s, xs[round][rk]))
			}
			for rk := 0; rk < g; rk++ {
				if !sums[rk][round].Equal(ref) {
					t.Fatalf("%s round %d: rank %d AllReduce differs from sequential reference", s, round, rk)
				}
				for src := 0; src < g; src++ {
					if !a2a[rk][round][src].Equal(quant.Apply(s, chunks[round][src][rk])) {
						t.Fatalf("%s round %d: AlltoAll dst %d src %d payload wrong", s, round, rk, src)
					}
				}
			}
		}
	}
}

// TestSplitByHostTable covers the satellite edge cases: one rank per host,
// all ranks on one host, a rank count not divisible by the host width, and
// the empty matrix.
func TestSplitByHostTable(t *testing.T) {
	full3 := [][]int64{ // 3 ranks, diagonal must always be ignored
		{9, 1, 2},
		{3, 9, 4},
		{5, 6, 9},
	}
	cases := []struct {
		name                 string
		m                    [][]int64
		l                    int
		wantIntra, wantCross int64
	}{
		{"l=1 every hop is cross-host", full3, 1, 0, 1 + 2 + 3 + 4 + 5 + 6},
		{"l=G one host, all intra", full3, 3, 1 + 2 + 3 + 4 + 5 + 6, 0},
		{"G=3 l=2 ragged tail host", full3, 2, 1 + 3, 2 + 4 + 5 + 6},
		{"empty matrix", [][]int64{}, 2, 0, 0},
		{"l exceeds G", full3, 8, 1 + 2 + 3 + 4 + 5 + 6, 0},
	}
	for _, tc := range cases {
		intra, cross := SplitByHost(tc.m, tc.l)
		if intra != tc.wantIntra || cross != tc.wantCross {
			t.Fatalf("%s: got intra %d cross %d, want %d and %d",
				tc.name, intra, cross, tc.wantIntra, tc.wantCross)
		}
	}
}

func TestSplitByHostRejectsBadWidth(t *testing.T) {
	for _, l := range []int{0, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("l=%d must panic", l)
				}
			}()
			SplitByHost([][]int64{{0}}, l)
		}()
	}
}

// TestCompressedNoneIsRawPath: under quant.None the gathers and AlltoAll
// must deliver the sender's tensor by reference (the zero-copy raw wire),
// while the reductions must return a fresh tensor that aliases no input and
// leaves every input untouched.
func TestCompressedNoneIsRawPath(t *testing.T) {
	const n = 3
	xs := make([]*tensor.Tensor, n) // rank r's payload
	for r := range xs {
		xs[r] = tensor.FromSlice([]float32{float32(r), 1, 2}, 3)
	}
	same := func(c *Comm) []*tensor.Tensor {
		chunks := make([]*tensor.Tensor, n)
		for d := range chunks {
			chunks[d] = xs[c.Rank()]
		}
		return chunks
	}
	gathers := []struct {
		name string
		run  func(c *Comm) []*tensor.Tensor // received payloads by source
	}{
		{"AlltoAll", func(c *Comm) []*tensor.Tensor {
			return c.IAlltoAllTensorsQ(quant.None, same(c)).Wait()
		}},
		{"AllGather", func(c *Comm) []*tensor.Tensor {
			return c.IAllGatherQ(quant.None, xs[c.Rank()]).Wait()
		}},
		{"AllGatherBatch", func(c *Comm) []*tensor.Tensor {
			parts := c.IAllGatherBatchQ(quant.None, []*tensor.Tensor{xs[c.Rank()]}).Wait()
			out := make([]*tensor.Tensor, len(parts))
			for src, p := range parts {
				out[src] = p[0]
			}
			return out
		}},
	}
	for _, tc := range gathers {
		got := make([][]*tensor.Tensor, n)
		Run(NewGroup(n), func(c *Comm) { got[c.Rank()] = tc.run(c) })
		for dst := 0; dst < n; dst++ {
			for src := 0; src < n; src++ {
				if got[dst][src] != xs[src] {
					t.Fatalf("%s: rank %d got a copy of rank %d's tensor, want it by reference", tc.name, dst, src)
				}
			}
		}
	}

	want := tensor.FromSlice([]float32{0 + 1 + 2, 3, 6}, 3)
	reductions := []struct {
		name string
		run  func(c *Comm) *tensor.Tensor
	}{
		{"AllReduce", func(c *Comm) *tensor.Tensor {
			return c.IAllReduceSumQ(quant.None, xs[c.Rank()]).Wait()
		}},
		{"ReduceScatter", func(c *Comm) *tensor.Tensor {
			return c.IReduceScatterSumQ(quant.None, same(c)).Wait()
		}},
	}
	for _, tc := range reductions {
		got := make([]*tensor.Tensor, n)
		Run(NewGroup(n), func(c *Comm) { got[c.Rank()] = tc.run(c) })
		for r := 0; r < n; r++ {
			if !got[r].Equal(want) {
				t.Fatalf("%s: rank %d sum %v, want %v", tc.name, r, got[r].Data(), want.Data())
			}
			for i, x := range xs {
				if &got[r].Data()[0] == &x.Data()[0] {
					t.Fatalf("%s: rank %d result aliases rank %d's input", tc.name, r, i)
				}
				if x.Data()[0] != float32(i) || x.Data()[1] != 1 || x.Data()[2] != 2 {
					t.Fatalf("%s: rank %d's input was mutated to %v", tc.name, i, x.Data())
				}
			}
			for q := 0; q < r; q++ {
				if &got[r].Data()[0] == &got[q].Data()[0] {
					t.Fatalf("%s: ranks %d and %d share one result buffer", tc.name, q, r)
				}
			}
		}
	}
}
