package sptt

import (
	"dmt/internal/quant"
	"fmt"
	"sort"

	"dmt/internal/comm"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// RowWiseState is the backward cache of the row-wise specialization.
type RowWiseState struct {
	// Per rank, per tower feature (host order): the rank's local-row-range
	// bags of the global batch.
	indices [][][]int32
	offsets [][][]int32

	GlobalTraffic [][]int64
	HostTraffic   [][]int64
	PeerTraffic   [][]int64
}

// rowRange returns local rank j's row slice of a table with rows rows when
// split over l ranks.
func rowRange(rows, l, j int) (lo, hi int) {
	return j * rows / l, (j + 1) * rows / l
}

// SPTTForwardRowWise runs the §3.1.3 specialization for multi-hot features:
// every feature's table is row-wise sharded across its tower's L GPUs, each
// rank pools the hits in its row range, and step (d) becomes a
// ReduceScatter that sums the partial pools. Steps (e) and (f) are
// unchanged. Only sum pooling is supported (partial sums compose; partial
// means do not).
//
// Unlike the table-wise dataflows, this path reads Engine.Tables directly
// rather than through the embeddings tier: row-wise sharding splits single
// tables ACROSS compute ranks, the antithesis of disaggregating whole
// tables onto memory nodes, so the Store API's per-table ownership does not
// describe it.
func (e *Engine) SPTTForwardRowWise(inputs []*Inputs) ([]*tensor.Tensor, *RowWiseState) {
	cfg := e.Cfg
	for f, spec := range cfg.Features {
		if spec.Mode != nn.PoolSum {
			panic(fmt.Sprintf("sptt: row-wise SPTT requires sum pooling, feature %d uses mean", f))
		}
	}
	if len(cfg.TowerOf) != cfg.F() {
		panic("sptt: row-wise SPTT requires TowerOf")
	}
	gs := newGroupSet(cfg.G, cfg.L, nil)
	perm := PeerOrder(cfg.G, cfg.L)
	T, L, B, N := cfg.T(), cfg.L, cfg.B, cfg.N
	outs := make([]*tensor.Tensor, cfg.G)
	st := &RowWiseState{
		indices: make([][][]int32, cfg.G),
		offsets: make([][][]int32, cfg.G),
	}

	// towerFeatureList[t] = features of tower t, ascending (no per-rank
	// ownership in the row-wise layout: all of the host shares all tables).
	towerFeatureList := make([][]int, T)
	for f := 0; f < cfg.F(); f++ {
		t := cfg.TowerOf[f]
		towerFeatureList[t] = append(towerFeatureList[t], f)
	}

	comm.Run(gs.global, func(c *comm.Comm) {
		rank := c.Rank()
		_, hostC, peerC := gs.forRank(rank)
		h, j := rank/L, rank%L
		feats := towerFeatureList[h]
		ft := len(feats)

		// Step (a): indices of tower-t features go to every rank of host t
		// (each row shard needs to see the full bags to filter its hits).
		chunks := make([][]int32, cfg.G)
		for dst := 0; dst < cfg.G; dst++ {
			chunks[dst] = encodeBags(towerFeatureList[dst/L], inputs[rank], B)
		}
		recvd := c.IAlltoAllInt32(chunks).Wait()

		// Assemble global bags per tower feature; cache for backward.
		decoded := make([][2][][]int32, cfg.G)
		for src := 0; src < cfg.G; src++ {
			idx, off := decodeBags(recvd[src], ft, B)
			decoded[src] = [2][][]int32{idx, off}
		}
		st.indices[rank] = make([][]int32, ft)
		st.offsets[rank] = make([][]int32, ft)
		for i := range feats {
			var gIdx []int32
			gOff := make([]int32, 0, cfg.G*B)
			for src := 0; src < cfg.G; src++ {
				base := int32(len(gIdx))
				for _, o := range decoded[src][1][i] {
					gOff = append(gOff, base+o)
				}
				gIdx = append(gIdx, decoded[src][0][i]...)
			}
			st.indices[rank][i] = gIdx
			st.offsets[rank][i] = gOff
		}

		// Step (b): partial pooled lookup over my row range of each table.
		partial := make([]*tensor.Tensor, ft) // (G*B, N) each
		for i, f := range feats {
			lo, hi := rowRange(cfg.Features[f].Cardinality, L, j)
			partial[i] = partialPoolLookup(e.Tables[f].Table, st.indices[rank][i], st.offsets[rank][i], N, lo, hi)
		}

		// Step (c): peer permute of the partial blocks.
		// Step (d): ReduceScatter — local rank k receives the class-k slice
		// summed over all L partial contributions.
		rsChunks := make([]*tensor.Tensor, L)
		for k := 0; k < L; k++ {
			blk := tensor.New(ft, T, B, N)
			for i := 0; i < ft; i++ {
				for p := 0; p < T; p++ {
					src := perm[k*T+p]
					copy(blk.Data()[((i*T+p)*B)*N:((i*T+p)*B+B)*N],
						partial[i].Data()[src*B*N:(src+1)*B*N])
				}
			}
			rsChunks[k] = blk
		}
		towerData := hostC.IReduceScatterSumQ(quant.None, rsChunks).Wait() // (F_t, T, B, N) complete pools

		// Steps (e)+(f): identical to the table-wise path.
		shuffled := tensor.Transpose3D01(towerData.Reshape(ft, T, B*N))
		pchunks := make([]*tensor.Tensor, T)
		for t := 0; t < T; t++ {
			blk := tensor.New(ft, B, N)
			copy(blk.Data(), shuffled.Data()[t*ft*B*N:(t+1)*ft*B*N])
			pchunks[t] = blk
		}
		pg := peerC.IAlltoAllTensorsQ(quant.None, pchunks).Wait()

		out := tensor.New(B, cfg.F(), N)
		for t := 0; t < T; t++ {
			for i, f := range towerFeatureList[t] {
				blk := pg[t].Data()[i*B*N : (i+1)*B*N]
				for s := 0; s < B; s++ {
					copy(out.Data()[(s*cfg.F()+f)*N:(s*cfg.F()+f+1)*N], blk[s*N:(s+1)*N])
				}
			}
		}
		outs[rank] = out
	})
	st.GlobalTraffic, st.HostTraffic, st.PeerTraffic = gs.fold()
	return outs, st
}

// SPTTBackwardRowWise reverses the row-wise path. The reverse of step (d)'s
// ReduceScatter is an AllGather (the sum's gradient fans out unchanged).
// Each rank then scatters gradients into its own row range; the merged
// result concatenates disjoint row sets across the tower's ranks.
func (e *Engine) SPTTBackwardRowWise(st *RowWiseState, dOuts []*tensor.Tensor) map[int]*nn.SparseGrad {
	cfg := e.Cfg
	gs := newGroupSet(cfg.G, cfg.L, nil)
	perm := PeerOrder(cfg.G, cfg.L)
	T, L, B, N := cfg.T(), cfg.L, cfg.B, cfg.N

	towerFeatureList := make([][]int, T)
	for f := 0; f < cfg.F(); f++ {
		towerFeatureList[cfg.TowerOf[f]] = append(towerFeatureList[cfg.TowerOf[f]], f)
	}
	partials := make([]map[int]*nn.SparseGrad, cfg.G)

	comm.Run(gs.global, func(c *comm.Comm) {
		rank := c.Rank()
		_, hostC, peerC := gs.forRank(rank)
		h, j := rank/L, rank%L
		feats := towerFeatureList[h]
		ft := len(feats)
		dOut := dOuts[rank]

		// Reverse step (f).
		pchunks := make([]*tensor.Tensor, T)
		for t := 0; t < T; t++ {
			tf := towerFeatureList[t]
			blk := tensor.New(len(tf), B, N)
			for i, f := range tf {
				for s := 0; s < B; s++ {
					src := dOut.Data()[(s*cfg.F()+f)*N : (s*cfg.F()+f+1)*N]
					copy(blk.Data()[(i*B+s)*N:(i*B+s+1)*N], src)
				}
			}
			pchunks[t] = blk
		}
		pg := peerC.IAlltoAllTensorsQ(quant.None, pchunks).Wait()
		dShuffled := tensor.New(T, ft, B*N)
		for p := 0; p < T; p++ {
			copy(dShuffled.Data()[p*ft*B*N:(p+1)*ft*B*N], pg[p].Data())
		}

		// Reverse step (e).
		dTower := tensor.Transpose3D01(dShuffled) // (F_t, T, B*N): my class slice

		// Reverse step (d): AllGather the class slices so every row shard
		// sees the full global-batch gradient.
		gathered := hostC.IAllGatherQ(quant.None, dTower.Reshape(ft, T, B, N)).Wait()

		// Reassemble rank-ordered (G*B, N) per feature and scatter into my
		// row range only.
		out := make(map[int]*nn.SparseGrad, ft)
		for i, f := range feats {
			dPooled := tensor.New(cfg.G*B, N)
			for k := 0; k < L; k++ {
				for p := 0; p < T; p++ {
					src := gathered[k].Data()[((i*T+p)*B)*N : ((i*T+p)*B+B)*N]
					dst := dPooled.Data()[perm[k*T+p]*B*N : (perm[k*T+p]+1)*B*N]
					copy(dst, src)
				}
			}
			lo, hi := rowRange(cfg.Features[f].Cardinality, L, j)
			g := partialPoolBackward(st.indices[rank][i], st.offsets[rank][i], dPooled, lo, hi)
			if len(g.Rows) > 0 {
				out[f] = g
			}
		}
		partials[rank] = out
	})

	// Merge: each feature's rows are disjoint across the tower's L ranks.
	merged := make(map[int]*nn.SparseGrad)
	for _, m := range partials {
		//dmt:nondeterministic-ok distinct features land in distinct merged keys, and rank merge order is fixed by the outer slice
		for f, g := range m {
			if ex, ok := merged[f]; ok {
				merged[f] = mergeDisjointSparse(ex, g)
			} else {
				merged[f] = g
			}
		}
	}
	return merged
}

// partialPoolLookup pools only the bag entries whose row index falls in
// [lo, hi) — the row-shard's partial contribution.
func partialPoolLookup(table *tensor.Tensor, indices, offsets []int32, dim, lo, hi int) *tensor.Tensor {
	b := len(offsets)
	out := tensor.New(b, dim)
	for s := 0; s < b; s++ {
		a := int(offsets[s])
		z := len(indices)
		if s+1 < b {
			z = int(offsets[s+1])
		}
		dst := out.Row(s)
		for _, ix := range indices[a:z] {
			if int(ix) < lo || int(ix) >= hi {
				continue
			}
			src := table.Row(int(ix))
			for d := 0; d < dim; d++ {
				dst[d] += src[d]
			}
		}
	}
	return out
}

// partialPoolBackward is poolBackward restricted to rows in [lo, hi).
func partialPoolBackward(indices, offsets []int32, dPooled *tensor.Tensor, lo, hi int) *nn.SparseGrad {
	b := len(offsets)
	dim := dPooled.Dim(1)
	acc := make(map[int][]float32)
	for s := 0; s < b; s++ {
		a := int(offsets[s])
		z := len(indices)
		if s+1 < b {
			z = int(offsets[s+1])
		}
		g := dPooled.Row(s)
		for _, ix := range indices[a:z] {
			if int(ix) < lo || int(ix) >= hi {
				continue
			}
			row := acc[int(ix)]
			if row == nil {
				row = make([]float32, dim)
				acc[int(ix)] = row
			}
			for d := 0; d < dim; d++ {
				row[d] += g[d]
			}
		}
	}
	rows := make([]int, 0, len(acc))
	for r := range acc {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	grads := tensor.New(len(rows), dim)
	for i, r := range rows {
		copy(grads.Row(i), acc[r])
	}
	return &nn.SparseGrad{Rows: rows, Grads: grads}
}

// mergeDisjointSparse merges two sparse gradients with disjoint row sets.
func mergeDisjointSparse(a, b *nn.SparseGrad) *nn.SparseGrad {
	dim := a.Grads.Dim(1)
	type entry struct {
		row int
		src []float32
	}
	entries := make([]entry, 0, len(a.Rows)+len(b.Rows))
	for i, r := range a.Rows {
		entries = append(entries, entry{r, a.Grads.Row(i)})
	}
	for i, r := range b.Rows {
		entries = append(entries, entry{r, b.Grads.Row(i)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].row < entries[j].row })
	rows := make([]int, len(entries))
	grads := tensor.New(len(entries), dim)
	for i, e := range entries {
		rows[i] = e.row
		copy(grads.Row(i), e.src)
	}
	return &nn.SparseGrad{Rows: rows, Grads: grads}
}
