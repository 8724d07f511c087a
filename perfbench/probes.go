package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"dmt/internal/comm"
	"dmt/internal/data"
	"dmt/internal/distributed"
	"dmt/internal/embeddings"
	"dmt/internal/experiments"
	"dmt/internal/nn"
	"dmt/internal/quant"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
)

// Layer probes: each times one public function of one layer at the shapes
// the workload actually uses, and reports ns, allocations and bytes per
// call.

type probeResult struct {
	ns, allocs, bytes float64 // per operation
}

const (
	probeRounds = 5
	probeRound  = 15 * time.Millisecond
)

// probe times op: calibrates a round to ~probeRound, runs probeRounds
// rounds, and reports the median round's ns/op with the allocation counts
// averaged over all rounds. The probe is one span in the traced run.
func probe(e *env, parent int64, name string, op func()) probeResult {
	k := e.tr.begin("probe "+name, parent, -1)
	defer e.tr.end(k)
	op()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t0) >= probeRound/4 || n >= 1<<22 {
			break
		}
		n *= 2
	}
	n *= 4
	runtime.GC()
	a0 := readAllocs()
	var per []float64
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	a := readAllocs().since(a0)
	ops := float64(probeRounds * n)
	return probeResult{ns: median(per), allocs: float64(a.mallocs) / ops, bytes: float64(a.bytes) / ops}
}

// record stores a probe's three metrics; timeValue converts ns/op to the
// probe's time unit.
func record(res *result, base string, pr probeResult, timeValue float64) {
	for _, p := range probeBases {
		if p.base == base {
			res.set(p.timeName, timeValue)
			res.set(base+"_allocs", pr.allocs)
			res.set(base+"_bytes", pr.bytes)
			return
		}
	}
	panic("perfbench: unknown probe " + base)
}

// widest returns the layer of m with the most weights: the over-arch GEMM
// shape the step spends most time in.
func widest(m *nn.MLP) *nn.Linear {
	best := m.Layers[0]
	for _, l := range m.Layers {
		if l.In*l.Out > best.In*best.Out {
			best = l
		}
	}
	return best
}

// denseProbes times the GEMM kernels and the Linear and DotInteraction ops
// at the over-arch shape: batch rows into layer, and an interaction over f
// features of width d. training adds the backward passes.
func denseProbes(e *env, parent int64, res *result, layer *nn.Linear, batch, f, d int, training bool) {
	rng := tensor.NewRNG(e.seed)
	x := tensor.RandN(rng, 1, batch, layer.In)
	dy := tensor.RandN(rng, 1, batch, layer.Out)
	w := layer.W.Value
	flops := 2 * float64(batch) * float64(layer.In) * float64(layer.Out)
	gflops := func(pr probeResult) float64 { return flops / pr.ns }

	pr := probe(e, parent, "tensor.MatMul", func() { tensor.MatMul(dy, w) })
	record(res, "tensor.matmul", pr, gflops(pr))
	pr = probe(e, parent, "tensor.MatMulBT", func() { tensor.MatMulBT(x, w) })
	record(res, "tensor.matmul_bt", pr, gflops(pr))
	pr = probe(e, parent, "tensor.MatMulAT", func() { tensor.MatMulAT(dy, x) })
	record(res, "tensor.matmul_at", pr, gflops(pr))

	lin := nn.NewLinear(rng, layer.In, layer.Out, "probe")
	pr = probe(e, parent, "nn.Linear.Forward", func() { lin.Forward(x) })
	record(res, "nn.linear_fwd", pr, pr.ns/1e3)

	inter := &nn.DotInteraction{}
	xi := tensor.RandN(rng, 1, batch, f, d)
	pr = probe(e, parent, "nn.DotInteraction.Forward", func() { inter.Forward(xi) })
	record(res, "nn.dot_interaction_fwd", pr, pr.ns/1e3)
	if !training {
		return
	}
	pr = probe(e, parent, "nn.Linear.Backward", func() { lin.Backward(dy) })
	record(res, "nn.linear_bwd", pr, pr.ns/1e3)
	dz := tensor.RandN(rng, 1, batch, inter.OutDim(f))
	pr = probe(e, parent, "nn.DotInteraction.Backward", func() { inter.Backward(dz) })
	record(res, "nn.dot_interaction_bwd", pr, pr.ns/1e3)
}

// interactionShape recovers the global interaction's (features, width) from
// the top MLP's input: width d dense embedding plus f(f-1)/2 dots.
func interactionShape(top *nn.MLP, d int) int {
	pairs := top.Layers[0].In - d
	return int(math.Round((1 + math.Sqrt(1+8*float64(pairs))) / 2))
}

// globalBags concatenates every rank's bags of feature f: the global batch
// an owner rank looks up in SPTT step (b).
func globalBags(batches []*data.Batch, f int) (idx, off []int32) {
	for _, b := range batches {
		base := int32(len(idx))
		for _, o := range b.Offsets[f] {
			off = append(off, base+o)
		}
		idx = append(idx, b.Indices[f]...)
	}
	return idx, off
}

// trainProbes runs every layer probe the training workloads exercise.
func trainProbes(e *env, p experiments.TrainingProfile, tr *distributed.Trainer, pool [][]*data.Batch, res *result, parent int64) error {
	k := e.tr.begin("probes", parent, -1)
	defer e.tr.end(k)
	rep := tr.Replica(0)
	denseProbes(e, k.id, res, widest(rep.Top), p.LocalBatch, interactionShape(rep.Top, p.D), p.D, true)

	rng := tensor.NewRNG(e.seed + 1)
	params := make([]*nn.Param, 0)
	for _, q := range rep.OverArchParams() {
		c := nn.NewParam(q.Name, q.Value.Clone())
		c.Grad = tensor.RandN(rng, 1e-3, q.Value.Shape()...)
		params = append(params, c)
	}
	adam := nn.NewAdam(1e-3)
	pr := probe(e, k.id, "nn.Adam.Step", func() { adam.Step(params) })
	record(res, "nn.adam_step", pr, pr.ns/1e3)

	// One table of the workload at its cardinality, fed the global batch
	// an owner rank pools (G x LocalBatch bags).
	cfg := tr.Engine().Cfg
	owned := cfg.OwnedFeatures(0)
	f0 := owned[0]
	idx, off := globalBags(pool[0], f0)
	bag := nn.NewEmbeddingBag(rng, cfg.Features[f0].Cardinality, cfg.N, cfg.Features[f0].Mode, "probe")
	pr = probe(e, k.id, "nn.EmbeddingBag.Forward", func() { bag.Forward(idx, off) })
	record(res, "nn.embbag_fwd", pr, pr.ns/1e3)
	bag.Forward(idx, off)
	dPooled := tensor.RandN(rng, 1e-2, len(off), cfg.N)
	pr = probe(e, k.id, "nn.EmbeddingBag.Backward", func() { bag.Backward(dPooled) })
	record(res, "nn.embbag_bwd", pr, pr.ns/1e3)
	grad := bag.Backward(dPooled)
	sadam := nn.NewSparseAdam(1e-2)
	sadam.Prime(bag)
	pr = probe(e, k.id, "nn.SparseAdam.Step", func() { sadam.Step(bag, grad) })
	record(res, "nn.sparse_adam_step", pr, pr.ns/1e3)

	wireProbes(e, p, tr, k.id, res)
	if err := storeProbes(e, p, tr, pool[0], owned, k.id, res); err != nil {
		return err
	}

	inputs := make([]*sptt.Inputs, len(pool[0]))
	for g, b := range pool[0] {
		inputs[g] = &sptt.Inputs{Indices: b.Indices, Offsets: b.Offsets}
	}
	eng, err := sptt.NewEngine(cfg, 99)
	if err != nil {
		return err
	}
	opt := sptt.Options{Comms: sptt.Comms{CrossHost: p.Compress}}
	pr = probe(e, k.id, "sptt.Engine.SPTTForward", func() { eng.SPTTForward(inputs, opt) })
	record(res, "sptt.forward", pr, pr.ns/1e3)
	return nil
}

// wireProbes times the gradient wire at the trainer's bucket plan: the
// batched all-gather of one step's buckets over G ranks, and (on a
// compressed wire) the fused codec per KB of fp32 gradient.
func wireProbes(e *env, p experiments.TrainingProfile, tr *distributed.Trainer, parent int64, res *result) {
	params := tr.Replica(0).OverArchParams()
	plan := tr.Buckets()
	if len(plan) == 0 { // blocking schedules reduce all parameters as one batch
		all := make([]int, len(params))
		for i := range all {
			all[i] = i
		}
		plan = [][]int{all}
	}
	rng := tensor.NewRNG(e.seed + 2)
	buckets := make([][][]*tensor.Tensor, p.G) // [rank][bucket][param]
	for g := range buckets {
		for _, b := range plan {
			var ts []*tensor.Tensor
			for _, pi := range b {
				ts = append(ts, tensor.RandN(rng, 1e-3, params[pi].Value.Shape()...))
			}
			buckets[g] = append(buckets[g], ts)
		}
	}
	group := comm.NewGroup(p.G)
	pr := probe(e, parent, "comm.IAllGatherBatchQ", func() {
		comm.Run(group, func(c *comm.Comm) {
			hs := make([]*comm.Pending[[][]*tensor.Tensor], len(plan))
			for i, ts := range buckets[c.Rank()] {
				hs[i] = c.IAllGatherBatchQ(p.Compress, ts)
			}
			for _, h := range hs {
				h.Wait()
			}
		})
	})
	record(res, "comm.allgather_batch", pr, pr.ns/1e3)

	if p.Compress == quant.None {
		return
	}
	var grads, resid, outs []*tensor.Tensor
	kb := 0.0
	for _, q := range params {
		grads = append(grads, tensor.RandN(rng, 1e-3, q.Value.Shape()...))
		resid = append(resid, tensor.New(q.Value.Shape()...))
		outs = append(outs, tensor.New(q.Value.Shape()...))
		kb += float64(4*q.Value.Len()) / 1024
	}
	encs := make([]*quant.Encoded, len(params))
	pr = probe(e, parent, "quant.EncodeResidual", func() {
		for i := range grads {
			encs[i] = quant.EncodeResidual(p.Compress, grads[i], resid[i])
			encs[i].Release()
		}
	})
	record(res, "quant.encode_residual", pr, pr.ns/kb)
	allocs := pr.allocs
	for i := range grads {
		encs[i] = quant.EncodeResidual(p.Compress, grads[i], resid[i])
	}
	pr = probe(e, parent, "quant.Encoded.DecodeInto", func() {
		for i, enc := range encs {
			enc.DecodeInto(outs[i])
		}
	})
	record(res, "quant.decode_into", pr, pr.ns/kb)
	for _, enc := range encs {
		enc.Release()
	}
	res.set("quant.allocs_per_op", (allocs+pr.allocs)/float64(len(params)))
}

// storeProbes times one owner rank's embedding-store round at the
// workload's request sizes: a Lookup of its owned features' global-batch
// ids and an Update of their touched rows — against the in-process store,
// or against a disaggregated tier of the workload's server count and cache
// size (instant delivery: the probe measures the code path, the fabric's
// cost is in the modeled metrics).
func storeProbes(e *env, p experiments.TrainingProfile, tr *distributed.Trainer, step []*data.Batch, owned []int, parent int64, res *result) error {
	cfg := tr.Engine().Cfg
	eng, err := sptt.NewEngine(cfg, 99)
	if err != nil {
		return err
	}
	rng := tensor.NewRNG(e.seed + 3)
	var reqs []embeddings.Req
	var ups []embeddings.Upd
	for _, f := range owned {
		ids, _ := globalBags(step, f)
		reqs = append(reqs, embeddings.Req{Table: f, IDs: ids})
		seen := map[int]bool{}
		var rows []int
		for _, id := range ids {
			if !seen[int(id)] {
				seen[int(id)] = true
				rows = append(rows, int(id))
			}
		}
		sort.Ints(rows)
		ups = append(ups, embeddings.Upd{Table: f, Rows: rows, GradRows: tensor.RandN(rng, 1e-3, len(rows), cfg.N)})
	}
	var store embeddings.Store
	closeStore := func() {}
	if p.EmbServers > 0 {
		tier := embeddings.NewRemote(embeddings.RemoteConfig{
			Clients: 1, Servers: p.EmbServers, Tables: eng.Tables,
			SparseLR: 1e-2, CacheRows: p.EmbCacheRows,
		})
		store, closeStore = tier.Client(0), tier.Close
	} else {
		store = embeddings.NewLocal(eng.Tables, 1e-2)
	}
	defer closeStore()
	pr := probe(e, parent, "embeddings.Store.Lookup", func() { store.Lookup(reqs) })
	record(res, "embeddings.store_lookup", pr, pr.ns/1e3)
	pr = probe(e, parent, "embeddings.Store.Update", func() { store.Update(ups) })
	record(res, "embeddings.store_update", pr, pr.ns/1e3)
	return nil
}

// keyedProbes replays the serve workload's key stream against a Keyed cache
// of the server's capacity: Get on every key, Put on every miss. On the hot
// pool Puts mostly refresh resident keys; on the churn pool they insert and
// evict.
func keyedProbes(e *env, parent int64, res *result, capacity, shards int, keys []uint64, dim int) {
	c := embeddings.NewKeyed(capacity, shards)
	vec := make([]float32, dim)
	for _, key := range keys {
		if _, ok := c.GetVec(0, key); !ok {
			c.PutVec(0, key, vec)
		}
	}
	i := 0
	pr := probe(e, parent, "embeddings.Keyed.GetVec", func() {
		c.GetVec(0, keys[i%len(keys)])
		i++
	})
	record(res, "embeddings.keyed_get", pr, pr.ns)
	j := 0
	pr = probe(e, parent, "embeddings.Keyed.PutVec", func() {
		c.PutVec(0, keys[j%len(keys)], vec)
		j++
	})
	record(res, "embeddings.keyed_put", pr, pr.ns)
}
