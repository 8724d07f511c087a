package sptt

import (
	"dmt/internal/quant"
	"fmt"

	"dmt/internal/comm"
	"dmt/internal/embeddings"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// Engine holds the embedding tables of one distribution problem and executes
// the baseline and SPTT dataflows over fresh communicator groups. Tables are
// logically owned by Config.RankOf; only the owning rank's goroutine reads
// or updates a table, mirroring model parallelism.
type Engine struct {
	Cfg    Config
	Tables []*nn.EmbeddingBag // indexed by feature
	// Tier is the embedding backend every step (b) lookup goes through.
	// NewEngine installs an in-process LocalTier over Tables (bitwise
	// identical to direct table access); the distributed trainer swaps in
	// its own tier — a LocalTier carrying the training learning rate, or a
	// RemoteTier whose lookups travel the simulated fabric.
	Tier embeddings.Tier
}

// NewEngine builds deterministic tables for the configuration.
func NewEngine(cfg Config, seed uint64) (*Engine, error) {
	if err := cfg.Validate(len(cfg.TowerOf) > 0); err != nil {
		return nil, err
	}
	r := tensor.NewRNG(seed)
	e := &Engine{Cfg: cfg}
	for f, spec := range cfg.Features {
		e.Tables = append(e.Tables,
			nn.NewEmbeddingBag(r.Split(uint64(f)+1), spec.Cardinality, cfg.N, spec.Mode, spec.Name))
	}
	e.Tier = embeddings.NewLocalTier(e.Tables, 0)
	return e, nil
}

// rankLookupState caches, per owned feature, the global-batch bags assembled
// during step (b); the backward pass turns output gradients into sparse
// table gradients with them.
type rankLookupState struct {
	features []int     // owned features, ascending
	indices  [][]int32 // per owned feature: flat indices for the global batch
	offsets  [][]int32 // per owned feature: offsets, length G*B
	// order is the source-rank sequence the global bags were assembled in:
	// nil means rank order (baseline and standard SPTT); the swapped-(b,c)
	// specialization assembles directly in peer order.
	order []int
}

// BaselineState carries everything the baseline backward needs plus the
// traffic matrix of the forward's global collectives.
type BaselineState struct {
	lookups []*rankLookupState // per rank
	Traffic [][]int64          // (src, dst) bytes on the global group
}

// distributeAndLookup implements steps (a)+(b), shared by both paths:
// exchange sparse inputs so each owner holds its features' bags for the
// global batch, then pool-lookup each owned feature. Returns the
// per-owned-feature pooled embeddings, each of shape (G*B, N), with the
// source-rank blocks arranged in the given order (nil = rank order).
//
// A non-nil order is the §3.1.3 "swap steps (b) and (c)" specialization:
// when the sparse inputs are smaller than the embeddings, the peer permute
// is applied to the index payloads before lookup, so the embeddings come
// out of step (b) already peer-ordered and no embedding-sized shuffle is
// needed.
func (e *Engine) distributeAndLookup(c *comm.Comm, in *Inputs, order []int) (*rankLookupState, []*tensor.Tensor) {
	cfg := e.Cfg
	chunks := make([][]int32, cfg.G)
	for dst := 0; dst < cfg.G; dst++ {
		chunks[dst] = encodeBags(cfg.OwnedFeatures(dst), in, cfg.B)
	}
	recvd := c.IAlltoAllInt32(chunks).Wait()

	owned := cfg.OwnedFeatures(c.Rank())
	st := &rankLookupState{features: owned, order: order}
	decoded := make([][2][][]int32, cfg.G) // per src: (indices, offsets) per owned feature
	for src := 0; src < cfg.G; src++ {
		idx, off := decodeBags(recvd[src], len(owned), cfg.B)
		decoded[src] = [2][][]int32{idx, off}
	}
	srcAt := func(pos int) int {
		if order == nil {
			return pos
		}
		return order[pos]
	}

	reqs := make([]embeddings.Req, len(owned))
	for i, f := range owned {
		// Assemble the global batch for feature f, blocks in `order`.
		var gIdx []int32
		gOff := make([]int32, 0, cfg.G*cfg.B)
		for pos := 0; pos < cfg.G; pos++ {
			src := srcAt(pos)
			idx := decoded[src][0][i]
			off := decoded[src][1][i]
			base := int32(len(gIdx))
			for _, o := range off {
				gOff = append(gOff, base+o)
			}
			gIdx = append(gIdx, idx...)
		}
		st.indices = append(st.indices, gIdx)
		st.offsets = append(st.offsets, gOff)
		reqs[i] = embeddings.Req{Table: f, IDs: gIdx}
	}

	// Step (b) through the embedding tier. The Lookup is issued even with
	// zero owned features: remote stores count one round per client per
	// phase (round symmetry), and an owner-less rank still participates.
	rows := e.Tier.Client(c.Rank()).Lookup(reqs)
	pooled := make([]*tensor.Tensor, len(owned))
	for i, f := range owned {
		pooled[i] = poolRows(rows[i], cfg.Features[f].Mode, st.offsets[i], cfg.N)
	}
	return st, pooled
}

// BaselineForward runs Figure 4's flat dataflow: steps (a), (b), then one
// global AlltoAll (c) returning embeddings. outs[r] is rank r's (B, F, N)
// tensor in canonical feature order.
func (e *Engine) BaselineForward(inputs []*Inputs) ([]*tensor.Tensor, *BaselineState) {
	cfg := e.Cfg
	if len(inputs) != cfg.G {
		panic(fmt.Sprintf("sptt: %d inputs for %d ranks", len(inputs), cfg.G))
	}
	world := comm.NewGroup(cfg.G)
	outs := make([]*tensor.Tensor, cfg.G)
	st := &BaselineState{lookups: make([]*rankLookupState, cfg.G)}

	comm.Run(world, func(c *comm.Comm) {
		rank := c.Rank()
		ls, pooled := e.distributeAndLookup(c, inputs[rank], nil)
		st.lookups[rank] = ls

		// Step (c): global AlltoAll of embeddings. To dst: my owned
		// features' pooled rows for dst's local batch.
		chunks := make([]*tensor.Tensor, cfg.G)
		for dst := 0; dst < cfg.G; dst++ {
			blk := tensor.New(len(ls.features), cfg.B, cfg.N)
			for i := range ls.features {
				src := pooled[i].Data()[dst*cfg.B*cfg.N : (dst+1)*cfg.B*cfg.N]
				copy(blk.Data()[i*cfg.B*cfg.N:(i+1)*cfg.B*cfg.N], src)
			}
			chunks[dst] = blk
		}
		got := c.IAlltoAllTensorsQ(quant.None, chunks).Wait()

		// Assemble (B, F, N) in canonical feature order.
		out := tensor.New(cfg.B, cfg.F(), cfg.N)
		for src := 0; src < cfg.G; src++ {
			feats := cfg.OwnedFeatures(src)
			for i, f := range feats {
				blk := got[src].Data()[i*cfg.B*cfg.N : (i+1)*cfg.B*cfg.N]
				for s := 0; s < cfg.B; s++ {
					dst := out.Data()[(s*cfg.F()+f)*cfg.N : (s*cfg.F()+f+1)*cfg.N]
					copy(dst, blk[s*cfg.N:(s+1)*cfg.N])
				}
			}
		}
		outs[rank] = out
	})
	st.Traffic = comm.TrafficMatrix(world)
	return outs, st
}

// BaselineBackward routes output gradients dOuts[r] (B, F, N) back to the
// owning ranks (the reverse AlltoAll of §2.2's backward pass) and returns
// the coalesced sparse gradient per feature.
func (e *Engine) BaselineBackward(st *BaselineState, dOuts []*tensor.Tensor) map[int]*nn.SparseGrad {
	cfg := e.Cfg
	world := comm.NewGroup(cfg.G)
	grads := make([]map[int]*nn.SparseGrad, cfg.G)

	comm.Run(world, func(c *comm.Comm) {
		rank := c.Rank()
		dOut := dOuts[rank]
		// Reverse of step (c): send each owner the gradient slice of its
		// features for my local batch.
		chunks := make([]*tensor.Tensor, cfg.G)
		for dst := 0; dst < cfg.G; dst++ {
			feats := cfg.OwnedFeatures(dst)
			blk := tensor.New(len(feats), cfg.B, cfg.N)
			for i, f := range feats {
				for s := 0; s < cfg.B; s++ {
					src := dOut.Data()[(s*cfg.F()+f)*cfg.N : (s*cfg.F()+f+1)*cfg.N]
					copy(blk.Data()[(i*cfg.B+s)*cfg.N:(i*cfg.B+s+1)*cfg.N], src)
				}
			}
			chunks[dst] = blk
		}
		got := c.IAlltoAllTensorsQ(quant.None, chunks).Wait()

		ls := st.lookups[rank]
		out := make(map[int]*nn.SparseGrad, len(ls.features))
		for i, f := range ls.features {
			// dPooled for the global batch, source-rank order.
			dPooled := tensor.New(cfg.G*cfg.B, cfg.N)
			for src := 0; src < cfg.G; src++ {
				blk := got[src].Data()[i*cfg.B*cfg.N : (i+1)*cfg.B*cfg.N]
				copy(dPooled.Data()[src*cfg.B*cfg.N:(src+1)*cfg.B*cfg.N], blk)
			}
			out[f] = poolBackward(cfg.Features[f].Mode, ls.indices[i], ls.offsets[i], dPooled)
		}
		grads[rank] = out
	})

	merged := make(map[int]*nn.SparseGrad)
	for _, m := range grads {
		for f, g := range m {
			if _, dup := merged[f]; dup {
				panic(fmt.Sprintf("sptt: feature %d graded on two ranks", f))
			}
			merged[f] = g
		}
	}
	return merged
}

// ApplySparseSGD applies per-feature sparse gradients to the engine's
// tables with plain SGD — the distributed trainer's embedding update.
func (e *Engine) ApplySparseSGD(grads map[int]*nn.SparseGrad, lr float32) {
	//dmt:nondeterministic-ok each entry updates its own table; features are disjoint, so visit order cannot be observed
	for f, g := range grads {
		e.Tables[f].ApplySparseSGD(g, lr)
	}
}
