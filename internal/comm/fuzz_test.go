package comm

import (
	"math"
	"slices"
	"testing"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// The collective kinds FuzzCollectiveInterleaving draws from.
const (
	fuzzAlltoAll = iota
	fuzzAlltoAllInt32
	fuzzAllGather
	fuzzAllGatherBatch
	fuzzAllReduce
	fuzzReduceScatter
	fuzzKinds
)

// fuzzOp is one drawn collective: its kind, wire scheme, and every rank's
// contribution. in[src][j] is the tensor rank src sends toward rank j
// (AlltoAll, ReduceScatter) or its j-th gathered/reduced tensor (one for
// AllGather and AllReduce, the batch for AllGatherBatch); idx[src][j] is the
// index chunk for AlltoAllInt32.
type fuzzOp struct {
	kind   int
	scheme quant.Scheme
	in     [][]*tensor.Tensor
	idx    [][][]int32
}

// fuzzResult is one rank's view of one collective in a shape every kind
// shares: ts[src] lists what arrived from src (a reduction puts its single
// sum at ts[0][0]) and ints[src] the index chunk from src.
type fuzzResult struct {
	ts   [][]*tensor.Tensor
	ints [][]int32
}

// fuzzBytes reads the fuzz input cyclically, so any input — even an empty
// one — decodes to a complete program.
type fuzzBytes struct {
	data []byte
	i    int
}

func (r *fuzzBytes) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.i%len(r.data)]
	r.i++
	return int(b)
}

// tensor draws a rows x cols tensor whose values are signed multiples of
// 1/8 (zero rows included, which exercises the linear schemes' zero-scale
// path).
func (r *fuzzBytes) tensor(rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data() {
		t.Data()[i] = float32(int8(r.next())) / 8
	}
	return t
}

// drawProgram decodes a group size of 1–5 and a sequence of up to 8
// collectives from the fuzz input.
func drawProgram(data []byte) (n int, ops []fuzzOp) {
	r := &fuzzBytes{data: data}
	n = 1 + r.next()%5
	ops = make([]fuzzOp, 1+r.next()%8)
	for k := range ops {
		op := fuzzOp{kind: r.next() % fuzzKinds, scheme: quant.Schemes()[r.next()%4]}
		rows, cols := 1+r.next()%3, 1+r.next()%4
		width := func(dst int) int { return 1 + (cols+dst)%4 } // "V" shapes
		nilMask := r.next()
		op.in = make([][]*tensor.Tensor, n)
		op.idx = make([][][]int32, n)
		for src := 0; src < n; src++ {
			switch op.kind {
			case fuzzAlltoAll:
				op.in[src] = make([]*tensor.Tensor, n)
				for dst := 0; dst < n; dst++ {
					if nilMask>>((src*n+dst)%8)&1 == 0 {
						op.in[src][dst] = r.tensor(rows, width(dst))
					}
				}
			case fuzzAlltoAllInt32:
				op.idx[src] = make([][]int32, n)
				for dst := 0; dst < n; dst++ {
					if l := r.next() % 4; l > 0 {
						op.idx[src][dst] = make([]int32, l)
						for i := range op.idx[src][dst] {
							op.idx[src][dst][i] = int32(r.next()) - 128
						}
					}
				}
			case fuzzAllGather:
				op.in[src] = []*tensor.Tensor{r.tensor(1+r.next()%3, width(src))}
			case fuzzAllGatherBatch:
				op.in[src] = make([]*tensor.Tensor, r.next()%3)
				for i := range op.in[src] {
					op.in[src][i] = r.tensor(rows, width(i))
				}
			case fuzzAllReduce:
				op.in[src] = []*tensor.Tensor{r.tensor(rows, cols)}
			case fuzzReduceScatter:
				op.in[src] = make([]*tensor.Tensor, n)
				for dst := 0; dst < n; dst++ {
					op.in[src][dst] = r.tensor(rows, width(dst))
				}
			}
		}
		ops[k] = op
	}
	return n, ops
}

// issue posts rank c's side of op and returns the Wait that completes it.
func (op fuzzOp) issue(c *Comm) func() fuzzResult {
	in := op.in[c.Rank()]
	wrap := func(ts []*tensor.Tensor) fuzzResult {
		res := fuzzResult{ts: make([][]*tensor.Tensor, len(ts))}
		for src, t := range ts {
			res.ts[src] = []*tensor.Tensor{t}
		}
		return res
	}
	switch op.kind {
	case fuzzAlltoAll:
		h := c.IAlltoAllTensorsQ(op.scheme, in)
		return func() fuzzResult { return wrap(h.Wait()) }
	case fuzzAlltoAllInt32:
		h := c.IAlltoAllInt32(op.idx[c.Rank()])
		return func() fuzzResult { return fuzzResult{ints: h.Wait()} }
	case fuzzAllGather:
		h := c.IAllGatherQ(op.scheme, in[0])
		return func() fuzzResult { return wrap(h.Wait()) }
	case fuzzAllGatherBatch:
		h := c.IAllGatherBatchQ(op.scheme, in)
		return func() fuzzResult { return fuzzResult{ts: h.Wait()} }
	case fuzzAllReduce:
		h := c.IAllReduceSumQ(op.scheme, in[0])
		return func() fuzzResult { return wrap([]*tensor.Tensor{h.Wait()}) }
	default: // fuzzReduceScatter
		h := c.IReduceScatterSumQ(op.scheme, in)
		return func() fuzzResult { return wrap([]*tensor.Tensor{h.Wait()}) }
	}
}

// reference is what rank dst must obtain from op, built sequentially from
// quant.Apply (exactly the wire round trip) and rank-ordered sums.
func (op fuzzOp) reference(dst int) fuzzResult {
	n := len(op.in)
	var res fuzzResult
	sum := func(pick func(src int) *tensor.Tensor) {
		acc := quant.Apply(op.scheme, pick(0)).Clone()
		for src := 1; src < n; src++ {
			tensor.AddInPlace(acc, quant.Apply(op.scheme, pick(src)))
		}
		res.ts = [][]*tensor.Tensor{{acc}}
	}
	switch op.kind {
	case fuzzAlltoAllInt32:
		for src := 0; src < n; src++ {
			res.ints = append(res.ints, op.idx[src][dst])
		}
	case fuzzAllReduce:
		sum(func(src int) *tensor.Tensor { return op.in[src][0] })
	case fuzzReduceScatter:
		sum(func(src int) *tensor.Tensor { return op.in[src][dst] })
	default:
		for src := 0; src < n; src++ {
			sent := op.in[src]
			if op.kind == fuzzAlltoAll {
				sent = sent[dst : dst+1]
			}
			got := make([]*tensor.Tensor, len(sent))
			for i, t := range sent {
				if t != nil {
					got[i] = quant.Apply(op.scheme, t)
				}
			}
			res.ts = append(res.ts, got)
		}
	}
	return res
}

// bitsEqual compares two tensors bit for bit (nil matches only nil). Under
// quant.None, where payloads travel by reference, it also demands pointer
// identity for non-reduction results.
func bitsEqual(got, want *tensor.Tensor, byRef bool) bool {
	if got == nil || want == nil {
		return got == want
	}
	if byRef {
		return got == want
	}
	if !slices.Equal(got.Shape(), want.Shape()) {
		return false
	}
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
			return false
		}
	}
	return true
}

// FuzzCollectiveInterleaving draws a group size of 1–5 and a sequence of up
// to 8 collectives (kind x scheme x shapes, nil AlltoAll chunks included),
// issues them back to back on every rank, waits them in issue order, and
// checks every rank's results bitwise against a sequential reference. It
// pins the properties the single-form API rests on: per-pair mailbox FIFO
// keeps in-flight collectives apart, quant.None is the by-reference raw
// wire, and every reduction is the rank-ordered sum of the wire round trips.
func FuzzCollectiveInterleaving(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 0, 0, 1, 2, 0x05, 1, 1, 2, 2, 0, 3, 3, 3, 4, 1, 0, 2, 5, 2, 1, 3})
	f.Add([]byte{4, 7, 4, 1, 2, 3, 0, 5, 2, 1, 1, 0, 3, 3, 0, 2, 1, 0, 2, 0, 3, 0xff, 0x80, 0x7f})
	f.Add([]byte{0, 2, 3, 2, 0, 0, 0, 4, 3, 2, 2, 1})
	f.Add([]byte{2, 0, 0, 0, 2, 3, 0x12, 0x80, 0x00, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ops := drawProgram(data)
		got := make([][]fuzzResult, n) // [rank][op]
		Run(NewGroup(n), func(c *Comm) {
			waits := make([]func() fuzzResult, len(ops))
			for k, op := range ops {
				waits[k] = op.issue(c)
			}
			got[c.Rank()] = make([]fuzzResult, len(ops))
			for k, wait := range waits {
				got[c.Rank()][k] = wait()
			}
		})
		for k, op := range ops {
			byRef := op.scheme == quant.None && op.kind != fuzzAllReduce && op.kind != fuzzReduceScatter
			for dst := 0; dst < n; dst++ {
				g, w := got[dst][k], op.reference(dst)
				if len(g.ts) != len(w.ts) || len(g.ints) != len(w.ints) {
					t.Fatalf("op %d (kind %d, %s) rank %d: %d/%d sources, want %d/%d",
						k, op.kind, op.scheme, dst, len(g.ts), len(g.ints), len(w.ts), len(w.ints))
				}
				for src := range w.ints {
					if !slices.Equal(g.ints[src], w.ints[src]) {
						t.Fatalf("op %d rank %d: index chunk from %d is %v, want %v", k, dst, src, g.ints[src], w.ints[src])
					}
				}
				for src := range w.ts {
					if len(g.ts[src]) != len(w.ts[src]) {
						t.Fatalf("op %d (kind %d) rank %d: %d tensors from %d, want %d",
							k, op.kind, dst, len(g.ts[src]), src, len(w.ts[src]))
					}
					for i := range w.ts[src] {
						if !bitsEqual(g.ts[src][i], w.ts[src][i], byRef) {
							t.Fatalf("op %d (kind %d, %s) rank %d: tensor %d from %d differs from the sequential reference",
								k, op.kind, op.scheme, dst, i, src)
						}
					}
				}
			}
		}
	})
}
