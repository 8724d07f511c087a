package main

import (
	"math"
	"sort"
	"time"

	"dmt/internal/data"
	"dmt/internal/distributed"
	"dmt/internal/experiments"
	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// Training workloads. Both run G=8 ranks on 4 hosts of 2 through
// experiments.NewTrainer, so schedule knobs are chosen by profile and the
// benchmark never spells a distributed.Config itself.

// trainCompute is G=8, fp32, in-process tables, instant delivery, the
// default rank-parallel schedule and an over-arch widened to {512, 256}:
// GEMM, nn ops and Adam do the work; the codec, netsim and the remote tier
// stay idle.
func trainCompute() experiments.TrainingProfile {
	p := experiments.DefaultTraining()
	p.TopMLP = []int{512, 256}
	return p
}

// trainDisagg is G=8 with an fp16 wire on a simulated A100 fabric, the
// cross-step pipelined schedule, and 2 embedding-server ranks behind each
// compute rank's hot-ID cache, on the narrow DefaultTraining over-arch.
func trainDisagg() experiments.TrainingProfile {
	p := experiments.DefaultTraining()
	p.Compress = quant.FP16
	p.Fabric = netsim.New(topology.A100)
	p.Pipeline = true
	p.EmbServers = 2
	p.EmbCacheRows = 4096
	return p
}

const (
	trainPoolSteps = 48  // distinct step batches, cycled through
	trainMinSteps  = 100 // timed steps at least: >= 10 lie beyond the p90
	trainRefSteps  = 3   // steps compared bitwise against the Sequential trainer
	trainFixed     = 16  // fixed-length window for the deterministic counters
)

func runTrainCompute(e *env) (*result, error) { return runTrain(e, trainCompute()) }
func runTrainDisagg(e *env) (*result, error)  { return runTrain(e, trainDisagg()) }

// trainInputs materializes the workload's step batches from the seed: the
// trainer's own data schema with the benchmark seed, and sample offsets
// shifted by the seed so distinct seeds draw distinct samples.
func trainInputs(p experiments.TrainingProfile, schema data.Config, seed uint64) [][]*data.Batch {
	cfg := schema
	cfg.Seed = seed
	gen := data.NewGenerator(cfg)
	pool := make([][]*data.Batch, trainPoolSteps)
	base := int(seed%1000) * trainPoolSteps
	for s := range pool {
		pool[s] = experiments.TrainingBatches(gen, p, base+s)
	}
	return pool
}

// trainSetup is one set-up: the inputs plus a ready trainer.
type trainSetup struct {
	tr   *distributed.Trainer
	pool [][]*data.Batch
}

func buildTrain(p experiments.TrainingProfile, seed uint64) (trainSetup, error) {
	tr, gen, err := experiments.NewTrainer(p, false)
	if err != nil {
		return trainSetup{}, err
	}
	return trainSetup{tr: tr, pool: trainInputs(p, gen.Config(), seed)}, nil
}

// stepLoop is one timed run of training steps.
type stepLoop struct {
	times  []float64 // untraced step wall times, ms
	traced []float64 // traced step wall times, ms
	losses []float64
	wall   time.Duration // all steps plus the final Drain
	// Summed over the traced blocks only.
	phases distributed.PhaseTimes
	allocs allocDelta
}

// traceBlock is how many consecutive steps share one tracing state: the
// traced run alternates untraced and traced blocks, so both halves see the
// same machine conditions and their difference is the tracing overhead.
const traceBlock = 4

// timeSteps times steps until the budget is spent and at least minSteps
// ran. With a tracer, blocks alternate between untraced and traced; the
// traced blocks are wrapped in spans and supply the phase and allocation
// sums.
func timeSteps(tr *distributed.Trainer, pool [][]*data.Batch, first int, budget time.Duration, minSteps int,
	t *tracer, parent int64) stepLoop {
	var l stepLoop
	start := time.Now()
	s := first
	for blk := 0; ; blk++ {
		n := s - first
		if n >= minSteps && time.Since(start) >= budget {
			break
		}
		// Hard stop at 3x the budget: a pathologically slow build still
		// finishes inside the run's time limit (the p90 sample count is
		// printed, so a short run shows).
		if n > 0 && time.Since(start) >= 3*budget {
			break
		}
		on := t != nil && blk%2 == 1
		bt := t
		if !on {
			bt = nil
		}
		var st0 distributed.Stats
		var a0 allocDelta
		if on {
			st0 = tr.Stats()
			a0 = readAllocs()
		}
		for i := 0; i < traceBlock; i++ {
			k := bt.begin("distributed.Trainer.Step", parent, int64(s))
			t0 := time.Now()
			loss := tr.Step(pool[s%len(pool)]).MeanLoss
			d := ms(time.Since(t0))
			bt.end(k)
			if on {
				l.traced = append(l.traced, d)
			} else {
				l.times = append(l.times, d)
			}
			l.losses = append(l.losses, loss)
			s++
		}
		if on {
			a := readAllocs().since(a0)
			l.allocs.mallocs += a.mallocs
			l.allocs.bytes += a.bytes
			addPhases(&l.phases, tr.Stats().Phases, st0.Phases)
		}
	}
	k := t.begin("distributed.Trainer.Drain", parent, -1)
	tr.Drain()
	t.end(k)
	l.wall = time.Since(start)
	return l
}

// addPhases adds the phase times between two cumulative snapshots to dst.
func addPhases(dst *distributed.PhaseTimes, after, before distributed.PhaseTimes) {
	dst.EmbComm += after.EmbComm - before.EmbComm
	dst.Dense += after.Dense - before.Dense
	dst.GradExchange += after.GradExchange - before.GradExchange
	dst.Update += after.Update - before.Update
	dst.ExposedComm += after.ExposedComm - before.ExposedComm
	dst.HiddenComm += after.HiddenComm - before.HiddenComm
	dst.CrossStepExposed += after.CrossStepExposed - before.CrossStepExposed
	dst.CrossStepHidden += after.CrossStepHidden - before.CrossStepHidden
}

func runTrain(e *env, p experiments.TrainingProfile) (*result, error) {
	res := newResult()
	root := e.tr.begin("workload", 0, -1)
	defer e.tr.end(root)

	var st trainSetup
	var setupS float64
	var err error
	e.tr.do("setup", root.id, -1, func(id int64) {
		st, setupS, err = setupTimes(func() (trainSetup, error) {
			k := e.tr.begin("experiments.NewTrainer", id, -1)
			defer e.tr.end(k)
			return buildTrain(p, e.seed)
		}, func(s trainSetup) { s.tr.Close() })
	})
	if err != nil {
		return nil, err
	}
	tr := st.tr
	defer tr.Close()
	// train-disagg is defined as the pipelined schedule: a plan-time
	// fallback to the overlapped one would measure another schedule under
	// the same name.
	if p.Pipeline {
		res.attempted++
		if why := tr.PipelineFallback(); why != "" {
			res.fail("pipelined schedule fell back to overlapped: %s", why)
		}
	}
	samplesPerStep := float64(p.G * p.LocalBatch)

	// Warm-up: two steps absorb first-touch allocation (arenas, optimizer
	// state) so the timed loop measures the steady state.
	var losses []float64
	for s := 0; s < 2; s++ {
		k := e.tr.begin("distributed.Trainer.Step", root.id, int64(s))
		losses = append(losses, tr.Step(st.pool[s]).MeanLoss)
		e.tr.end(k)
	}
	budget := time.Duration(e.seconds * float64(time.Second))

	var loop stepLoop
	e.tr.do("timed-steps", root.id, -1, func(id int64) {
		loop = timeSteps(tr, st.pool, 2, budget, trainMinSteps, e.tr, id)
	})
	losses = append(losses, loop.losses...)
	if !e.traced {
		sorted := append([]float64(nil), loop.times...)
		sort.Float64s(sorted)
		p90 := percentile(sorted, 0.90)
		res.set("setup_s", setupS)
		res.set("throughput_per_s", float64(len(loop.times))*samplesPerStep/loop.wall.Seconds())
		res.set("latency_p50_ms", percentile(sorted, 0.50))
		res.set("latency_tail_ms", p90)
		e.logf("train: %d timed steps, %d beyond the p90 step time (p90 = %.3f ms); latency_tail_ms is the p90 step time",
			len(loop.times), beyond(loop.times, p90), p90)
	} else {
		n := float64(len(loop.traced))
		res.set("distributed.allocs_per_step", float64(loop.allocs.mallocs)/n)
		res.set("distributed.alloc_mb_per_step", float64(loop.allocs.bytes)/n/(1<<20))
		res.set("bench.tracing_overhead_pct", 100*(median(loop.traced)/median(loop.times)-1))
		if p.Fabric == nil {
			// Wall-clock phases from the traced blocks. On a simulated
			// fabric the phases are virtual time and come from the fixed
			// window instead.
			setPhases(res, loop.phases, len(loop.traced))
		}
		e.logf("train: %d untraced + %d traced timed steps, interleaved in blocks of %d",
			len(loop.times), len(loop.traced), traceBlock)
	}
	res.attempted += len(losses)
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			res.fail("step %d loss is %v", i, l)
		}
	}
	if err := tr.ReplicasInSync(); err != nil {
		res.fail("replicas out of sync: %v", err)
	}
	res.set("heap_peak_mb", e.heap.peakMB())
	e.tr.do("check-sequential", root.id, -1, func(id int64) {
		checkSequential(e, p, st.pool, losses, res, id)
	})
	if e.traced {
		// Counters and modeled times over a fixed window of a fresh trainer
		// repeat exactly; the timed loop's length depends on wall time.
		if err := fixedWindow(e, p, st.pool, res, root.id); err != nil {
			return nil, err
		}
		e.heap.stop()
		if err := trainProbes(e, p, tr, st.pool, res, root.id); err != nil {
			return nil, err
		}
		setAbsent(e, res)
	}
	return res, nil
}

// checkSequential replays the first steps on the single-goroutine reference
// trainer over the same batches; each loss must match bitwise.
func checkSequential(e *env, p experiments.TrainingProfile, pool [][]*data.Batch, losses []float64, res *result, parent int64) {
	ref, _, err := experiments.NewTrainer(p, true)
	if err != nil {
		res.fail("sequential reference: %v", err)
		return
	}
	defer ref.Close()
	for s := 0; s < trainRefSteps && s < len(losses); s++ {
		k := e.tr.begin("distributed.Trainer.Step(sequential)", parent, int64(s))
		want := ref.Step(pool[s]).MeanLoss
		e.tr.end(k)
		res.attempted++
		if math.Float64bits(want) != math.Float64bits(losses[s]) {
			res.fail("step %d loss %v differs from the sequential reference %v", s, losses[s], want)
		}
	}
}

// fixedWindow runs a fresh trainer for exactly trainFixed steps plus Drain
// and records the counters and modeled times that must repeat exactly:
// wire bytes, tier counters and, on a simulated fabric, the virtual-clock
// step time and its component split.
func fixedWindow(e *env, p experiments.TrainingProfile, pool [][]*data.Batch, res *result, parent int64) error {
	tr, _, err := experiments.NewTrainer(p, false)
	if err != nil {
		return err
	}
	defer tr.Close()
	k := e.tr.begin("fixed-window", parent, -1)
	var v0 time.Duration
	if net := tr.Network(); net != nil {
		v0 = net.Now()
	}
	for s := 0; s < trainFixed; s++ {
		ks := e.tr.begin("distributed.Trainer.Step", k.id, int64(s))
		tr.Step(pool[s%len(pool)])
		e.tr.end(ks)
	}
	kd := e.tr.begin("distributed.Trainer.Drain", k.id, -1)
	tr.Drain()
	e.tr.end(kd)
	e.tr.end(k)
	st := tr.Stats()
	n := float64(trainFixed)
	res.set("comm.grad_cross_bytes_per_step", float64(st.GradCrossHostBytes)/n)
	res.set("comm.grad_intra_bytes_per_step", float64(st.GradIntraHostBytes)/n)
	res.set("comm.emb_cross_bytes_per_step", float64(st.EmbCrossHostBytes)/n)
	res.set("comm.emb_intra_bytes_per_step", float64(st.EmbIntraHostBytes)/n)
	if net := tr.Network(); net != nil {
		res.set("train_modeled_step_us", us(net.Now()-v0)/n)
		setPhases(res, st.Phases, trainFixed)
		res.set("sptt.fwd_exposed_us_per_step", us(st.Sim.SPTTFwdExposed)/n)
		res.set("sptt.fwd_hidden_us_per_step", us(st.Sim.SPTTFwdHidden)/n)
		res.set("sptt.bwd_exposed_us_per_step", us(st.Sim.SPTTBwdExposed)/n)
		res.set("sptt.bwd_hidden_us_per_step", us(st.Sim.SPTTBwdHidden)/n)
	}
	t := st.Tier
	if p.EmbServers > 0 {
		res.set("embeddings.lookup_cross_kb_per_step", float64(t.LookupCrossBytes)/1024/n)
		res.set("embeddings.update_cross_kb_per_step", float64(t.UpdateCrossBytes)/1024/n)
		res.set("embeddings.lookup_exposed_us_per_step", us(t.LookupExposed)/n)
		res.set("embeddings.update_exposed_us_per_step", us(t.UpdateExposed)/n)
		acc := t.CacheHits + t.CacheMisses
		res.set("embeddings.tier_cache_accesses_per_step", float64(acc)/n)
		if acc > 0 {
			res.set("embeddings.tier_cache_hit_ratio", float64(t.CacheHits)/float64(acc))
		}
		e.logf("train: hot-ID cache hit ratio %.4f over %d accesses (fixed %d-step window)",
			float64(t.CacheHits)/math.Max(1, float64(acc)), acc, trainFixed)
	}
	return nil
}

// setPhases records the per-step phase split of steps steps.
func setPhases(res *result, ph distributed.PhaseTimes, steps int) {
	n := float64(steps)
	res.set("distributed.emb_ms_per_step", ms(ph.EmbComm)/n)
	res.set("distributed.dense_ms_per_step", ms(ph.Dense)/n)
	res.set("distributed.grad_exchange_ms_per_step", ms(ph.GradExchange)/n)
	res.set("distributed.update_ms_per_step", ms(ph.Update)/n)
	res.set("distributed.exposed_comm_ms_per_step", ms(ph.ExposedComm)/n)
	res.set("distributed.hidden_comm_ms_per_step", ms(ph.HiddenComm)/n)
	res.set("distributed.cross_step_hidden_us_per_step", us(ph.CrossStepHidden)/n)
}
