package sptt

import (
	"dmt/internal/quant"
	"fmt"

	"dmt/internal/comm"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// SPTTBackward reverses the transform: output gradients flow back through
// step (f)'s peer AlltoAll, the tower module (if any, with its gradients
// AllReduced across the tower's host — the intra-tower synchronization of
// §3.2), step (e)'s transpose, step (d)'s intra-host AlltoAll, and step
// (c)'s permute, ending in sparse table gradients at the owning ranks.
//
// For pass-through states (no tower modules), dOuts[r] has shape (B, F, N);
// for compressed states, (B, Σ O_t). The returned map is keyed by feature.
func (e *Engine) SPTTBackward(st *SPTTState, dOuts []*tensor.Tensor) map[int]*nn.SparseGrad {
	cfg := e.Cfg
	if len(dOuts) != cfg.G {
		panic(fmt.Sprintf("sptt: %d gradients for %d ranks", len(dOuts), cfg.G))
	}
	gs := newGroupSet(cfg.G, cfg.L, st.comms.Net)
	perm := PeerOrder(cfg.G, cfg.L)
	T, L, B, N := cfg.T(), cfg.L, cfg.B, cfg.N
	grads := make([]map[int]*nn.SparseGrad, cfg.G)

	gs.run(func(c *comm.Comm) {
		rank := c.Rank()
		_, hostC, peerC := gs.forRank(rank)
		h := rank / L
		towerFeats := cfg.TowerFeatures(h)
		ft := len(towerFeats)
		dOut := dOuts[rank]

		// Reverse step (f): return gradient slices to the tower that
		// produced them; receive my tower's gradients for every peer batch.
		var dShuffled *tensor.Tensor // (T, F_t, B*N)
		if st.modules == nil {
			pchunks := make([]*tensor.Tensor, T)
			for t := 0; t < T; t++ {
				feats := cfg.TowerFeatures(t)
				blk := tensor.New(len(feats), B, N)
				for i, f := range feats {
					for s := 0; s < B; s++ {
						src := dOut.Data()[(s*cfg.F()+f)*N : (s*cfg.F()+f+1)*N]
						copy(blk.Data()[(i*B+s)*N:(i*B+s+1)*N], src)
					}
				}
				pchunks[t] = blk
			}
			pending := peerC.IAlltoAllTensorsQ(st.comms.CrossHost, pchunks)
			if st.comms.BwdOverlap != nil {
				st.comms.BwdOverlap(rank)
			}
			pg := pending.Wait()
			dShuffled = tensor.New(T, ft, B*N)
			for p := 0; p < T; p++ {
				copy(dShuffled.Data()[p*ft*B*N:(p+1)*ft*B*N], pg[p].Data())
			}
		} else {
			// Compressed: split dOut by tower output widths.
			mod := st.modules[rank]
			widths := make([]int, T)
			for t := 0; t < T; t++ {
				widths[t] = st.modules[t*L].OutDim()
			}
			parts := tensor.SplitCols(dOut, widths)
			pchunks := make([]*tensor.Tensor, T)
			for t := 0; t < T; t++ {
				pchunks[t] = parts[t]
			}
			// Reverse step (f): post the peer AlltoAll, let the trainer
			// hide the transfer under its bottom-MLP backward via the
			// backward-side hook, then wait — the results feed the tower-
			// module backward below.
			pending := peerC.IAlltoAllTensorsQ(st.comms.CrossHost, pchunks)
			if st.comms.BwdOverlap != nil {
				st.comms.BwdOverlap(rank)
			}
			pg := pending.Wait()
			oT := mod.OutDim()
			dCompressed := tensor.New(T*B, oT)
			for p := 0; p < T; p++ {
				copy(dCompressed.Data()[p*B*oT:(p+1)*B*oT], pg[p].Data())
			}
			// Tower module backward, then intra-tower gradient reduction.
			// The local gradient is cloned before the reduce: collectives
			// share payloads by reference, and prm.Grad is overwritten with
			// the reduced value while peers may still be reading it.
			dTmIn := mod.Backward(dCompressed) // (T*B, F_t, N)
			for _, prm := range mod.Params() {
				reduced := hostC.IAllReduceSumQ(quant.None, prm.Grad.Clone()).Wait()
				prm.Grad.CopyFrom(reduced)
			}
			// Back to per-peer, feature-major layout (T, F_t, B*N).
			dShuffled = tensor.New(T, ft, B*N)
			for t := 0; t < T; t++ {
				for i := 0; i < ft; i++ {
					for s := 0; s < B; s++ {
						src := dTmIn.Data()[(((t*B+s)*ft)+i)*N : (((t*B+s)*ft)+i+1)*N]
						dst := dShuffled.Data()[((t*ft+i)*B+s)*N : ((t*ft+i)*B+s+1)*N]
						copy(dst, src)
					}
				}
			}
		}

		// Reverse step (e): (peers, features) -> (features, peers).
		dTower := tensor.Transpose3D01(dShuffled) // (F_t, T, B*N)

		// Reverse step (d): return each local rank's feature rows.
		chunks := make([]*tensor.Tensor, L)
		row := 0
		for j := 0; j < L; j++ {
			nj := len(cfg.OwnedFeatures(h*L + j))
			blk := tensor.New(nj, T, B, N)
			copy(blk.Data(), dTower.Data()[row*T*B*N:(row+nj)*T*B*N])
			chunks[j] = blk
			row += nj
		}
		got := hostC.IAlltoAllTensorsQ(quant.None, chunks).Wait()

		// got[j] = class-j gradient slices of MY features: (nOwned, T, B, N).
		ls := st.lookups[rank]
		out := make(map[int]*nn.SparseGrad, len(ls.features))
		for i, f := range ls.features {
			// Reassemble (G, B, N) in the layout the cached bags were
			// assembled in: rank order for the standard flow (reversing the
			// peer permute), peer order for the swapped-(b,c) flow (whose
			// lookup ran directly in peer order).
			dPooled := tensor.New(cfg.G*B, N)
			for j := 0; j < L; j++ {
				for k := 0; k < T; k++ {
					pos := j*T + k
					dstPos := perm[pos]
					if ls.order != nil {
						dstPos = pos
					}
					src := got[j].Data()[((i*T+k)*B)*N : ((i*T+k)*B+B)*N]
					dst := dPooled.Data()[dstPos*B*N : (dstPos+1)*B*N]
					copy(dst, src)
				}
			}
			out[f] = poolBackward(cfg.Features[f].Mode, ls.indices[i], ls.offsets[i], dPooled)
		}
		grads[rank] = out
	})
	st.BwdGlobalTraffic, st.BwdHostTraffic, st.BwdPeerTraffic = gs.fold()
	st.BwdExposedComm, st.BwdHiddenComm = gs.times()

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
