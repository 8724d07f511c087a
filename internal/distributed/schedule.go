package distributed

import (
	"fmt"
	"time"

	"dmt/internal/comm"
	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
)

// Schedule selects how a training step orders its compute and
// communication. Every schedule computes the same mathematics on one
// bitwise trajectory: each over-arch parameter is reduced by one collective
// that accumulates in source-rank order, buckets never split a parameter
// (so compressed runs quantize exactly the tensors the sequential oracle
// quantizes), and launch/wait order is identical on every rank. The
// rank-parallel schedules differ in just three decisions of stepRanks:
//
//	schedule    bottom-MLP forward   bottom-MLP backward   buckets waited
//	Blocking    dense phase          dense phase           pairwise after SPTT backward
//	Overlapped  SPTT forward hook    dense phase           all after SPTT backward
//	Pipelined   SPTT forward hook    SPTT backward hook    next step's forward hook, or Drain
type Schedule int

const (
	// Blocking runs the phases back to back: the bottom MLP runs in the
	// dense phase, and each gradient bucket is launched and waited in turn
	// after the SPTT backward. The zero value.
	Blocking Schedule = iota
	// Overlapped hides communication inside the step: the bottom-MLP
	// forward runs while the SPTT forward's step (f) peer AlltoAll — the
	// cross-host hop — is in flight, and the gradient buckets launch in
	// readiness order during the dense backward (top-MLP buckets while the
	// bottom backward still runs) and are all waited after the SPTT
	// backward, hiding behind the remaining dense and embedding backward.
	Overlapped
	// Pipelined extends Overlapped across the step boundary. Step N's
	// buckets stay in flight (carried) and complete inside step N+1's SPTT
	// forward hook, followed by the deferred over-arch Adam step, before
	// ForwardBottom reads the parameters. The bottom-MLP backward and the
	// bottom-bucket launches run in the SPTT backward's BwdOverlap hook,
	// hiding the reverse peer AlltoAll. Legal because step N+1's forward
	// touches only tables and tower modules, disjoint from the over-arch
	// (asserted at plan time by pipelinePlanCheck; a conflict falls back to
	// Overlapped, see Trainer.PipelineFallback). Drain, which Close calls,
	// completes the last step's carried work.
	Pipelined
	// Sequential is the single-goroutine oracle: the same mathematics with
	// the dense phases executed rank by rank and gradients averaged through
	// centralized loops instead of collectives. Kept as the bitwise
	// cross-check and the benchmark baseline.
	Sequential
)

// defaultBucketBytes is the per-bucket gradient payload cap when
// Config.BucketBytes is zero.
const defaultBucketBytes = 64 << 10

// gradBucket is one launch unit of the over-arch gradient reduction: a run
// of whole parameters (indices into OverArchParams) that become ready at
// the same backward stage.
type gradBucket struct {
	params []int
	// afterBottom marks buckets whose gradients are final only once
	// BackwardBottom has run; the rest are final right after BackwardTop.
	afterBottom bool
	// idx is the bucket's position in launch order — the key into each
	// rank's persistent bucket arena (see launchBucket).
	idx int
}

// planBuckets groups the over-arch parameters into buckets in launch order:
// top-MLP parameters first (ready after BackwardTop), bottom-MLP parameters
// second (ready after BackwardBottom), each group greedily packed up to
// bucketBytes. The plan depends only on the model architecture, so every
// rank computes the identical schedule.
func planBuckets(m *models.DMTDLRM, bucketBytes int) []gradBucket {
	if bucketBytes <= 0 {
		bucketBytes = defaultBucketBytes
	}
	all := m.OverArchParams()
	nBottom := len(m.BottomParams())
	var out []gradBucket
	pack := func(lo, hi int, afterBottom bool) {
		cur := gradBucket{afterBottom: afterBottom}
		bytes := 0
		for pi := lo; pi < hi; pi++ {
			sz := 4 * all[pi].Value.Len()
			if len(cur.params) > 0 && bytes+sz > bucketBytes {
				out = append(out, cur)
				cur = gradBucket{afterBottom: afterBottom}
				bytes = 0
			}
			cur.params = append(cur.params, pi)
			bytes += sz
		}
		if len(cur.params) > 0 {
			out = append(out, cur)
		}
	}
	pack(nBottom, len(all), false)
	pack(0, nBottom, true)
	for i := range out {
		out[i].idx = i
	}
	return out
}

// Buckets exposes the gradient-bucket launch plan as parameter-index groups
// in launch order — test and diagnostics hook.
func (tr *Trainer) Buckets() [][]int {
	out := make([][]int, len(tr.buckets))
	for i, b := range tr.buckets {
		out[i] = append([]int(nil), b.params...)
	}
	return out
}

// Schedule returns the schedule in effect: Config.Schedule, or Overlapped
// when a Pipelined plan conflict forced the fallback.
func (tr *Trainer) Schedule() Schedule { return tr.cfg.Schedule }

// PipelineFallback returns the plan-time conflict that downgraded a
// Pipelined config to Overlapped (empty when none did).
func (tr *Trainer) PipelineFallback() string { return tr.pipelineFallback }

// stepRanks is the rank-parallel step of the Blocking, Overlapped and
// Pipelined schedules: five phases (SPTT forward, dense, SPTT backward,
// gradient exchange, update), each one goroutine per rank. The SPTT phases
// build their own communicator families; the rest share the world group.
// The schedule decides only where the bottom MLP runs and where the
// gradient buckets are waited (see Schedule).
func (tr *Trainer) stepRanks(batches []*data.Batch, inputs []*sptt.Inputs) StepResult {
	cfg := tr.cfg
	sched := cfg.Schedule
	lap := tr.phaseClock()
	invG := 1 / float32(cfg.G)

	carried := tr.carried
	tr.carried = nil
	crossE := make([]time.Duration, cfg.G)
	crossH := make([]time.Duration, cfg.G)
	denseEmb := make([]*tensor.Tensor, cfg.G)
	dDenseEmb := make([]*tensor.Tensor, cfg.G)
	inflight := make([][]pendingBucket, cfg.G)

	bottomFwd := func(g int) {
		m := tr.replicas[g]
		for _, p := range m.DenseParams() {
			p.ZeroGrad()
		}
		denseEmb[g] = m.ForwardBottom(batches[g].Dense)
		tr.charge(g, tr.bottomFwd)
	}
	bottomBwd := func(g int) {
		tr.replicas[g].BackwardBottom(dDenseEmb[g])
		tr.charge(g, tr.bottomBwd)
		if sched != Blocking {
			inflight[g] = tr.launchBuckets(g, true, inflight[g])
		}
	}

	// SPTT forward. The hooks run on each rank's dataflow goroutine between
	// posting a step (f) peer AlltoAll and waiting on it; in latency mode
	// the compute they charge covers the modeled transfer in virtual time.
	comms := sptt.Comms{CrossHost: cfg.Compression.Embedding, Net: tr.net}
	if sched != Blocking {
		comms.Overlap = func(g int) {
			if carried != nil {
				crossE[g], crossH[g] = tr.finishCarried(g, carried[g])
			}
			bottomFwd(g)
		}
	}
	if sched == Pipelined {
		comms.BwdOverlap = bottomBwd
	}
	compressed, st := tr.engine.SPTTForwardCompressed(inputs, tr.modules, sptt.Options{Comms: comms})
	embFwd := lap()

	// Dense phase: whatever of the dense forward/backward the hooks do not
	// run. Bucket launches are non-blocking, so under Overlapped and
	// Pipelined the collectives ride out the rest of the step.
	res := StepResult{PerRankLoss: make([]float64, cfg.G)}
	dCompressed := make([]*tensor.Tensor, cfg.G)
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		m := tr.replicas[g]
		if sched == Blocking {
			bottomFwd(g)
		}
		logits := m.ForwardDenseFrom(denseEmb[g], compressed[g])
		res.PerRankLoss[g] = tr.loss[g].Forward(logits, batches[g].Labels)
		tr.charge(g, tr.topFwd)
		dCompressed[g], dDenseEmb[g] = m.BackwardTop(tr.loss[g].Backward())
		tr.charge(g, tr.topBwd)
		if sched != Blocking {
			// Top-MLP buckets fly while the bottom backward runs.
			inflight[g] = tr.launchBuckets(g, false, inflight[g])
		}
		if sched != Pipelined {
			bottomBwd(g)
		}
	})
	// Summed in rank order after the join so the mean is deterministic.
	for g := 0; g < cfg.G; g++ {
		res.MeanLoss += res.PerRankLoss[g] / float64(cfg.G)
	}
	dense := lap()

	// Backward through the dataflow: tower-module gradients are reduced
	// intra-host inside SPTTBackward; sparse gradients land at the owners.
	// Buckets already in flight hide behind it.
	sparse := tr.engine.SPTTBackward(st, dCompressed)
	embBwd := lap()

	// Gradient normalization to the global-batch mean (see package doc):
	// over-arch gradients average in finishBucket; tower-module gradients
	// arrive host-summed over all G·B samples and divide by G, and sparse
	// gradients likewise, scaled by their owner.
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		switch sched {
		case Blocking:
			params := tr.replicas[g].OverArchParams()
			for _, b := range tr.buckets {
				tr.finishBucket(g, params, tr.launchBucket(c, g, params, b), invG)
			}
		case Overlapped:
			tr.finishBuckets(g, inflight[g])
		}
		tr.scaleRank(g, sparse, invG)
	})
	gradEx := lap()

	// Updates: each rank steps its own tower module and applies its owned
	// sparse updates — the next step's forward reads both — and, unless the
	// over-arch gradients are still on the wire, its over-arch.
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		if sched != Pipelined {
			tr.overOpts[g].Step(tr.replicas[g].OverArchParams())
		}
		tr.tmOpts[g].Step(tr.modules[g].Params())
		tr.applySparse(g, sparse)
	})
	update := lap()

	if sched == Pipelined {
		// Leave this step's buckets in flight across the boundary; Carry
		// tells the comm runtime's leak guards they are pipelined, not
		// leaked.
		for _, pbs := range inflight {
			for _, pb := range pbs {
				pb.h.Carry()
			}
		}
		tr.carried = inflight
	}
	exposed, hidden := tr.commTimes(st)
	tr.account(st, PhaseTimes{
		EmbComm:          embFwd + embBwd,
		Dense:            dense,
		GradExchange:     gradEx,
		Update:           update,
		ExposedComm:      exposed,
		HiddenComm:       hidden,
		CrossStepExposed: meanPerRank(crossE),
		CrossStepHidden:  meanPerRank(crossH),
	})
	return res
}

// launchBuckets posts rank g's buckets of one backward stage (afterBottom
// or not), appending the handles to inflight in launch order.
func (tr *Trainer) launchBuckets(g int, afterBottom bool, inflight []pendingBucket) []pendingBucket {
	c := tr.world[g]
	params := tr.replicas[g].OverArchParams()
	for _, b := range tr.buckets {
		if b.afterBottom == afterBottom {
			inflight = append(inflight, tr.launchBucket(c, g, params, b))
		}
	}
	return inflight
}

// finishBuckets completes rank g's launched buckets in launch order — the
// wire format.
func (tr *Trainer) finishBuckets(g int, pbs []pendingBucket) {
	params := tr.replicas[g].OverArchParams()
	invG := 1 / float32(tr.cfg.G)
	for _, pb := range pbs {
		tr.finishBucket(g, params, pb, invG)
	}
}

// finishCarried completes rank g's buckets carried over from the previous
// Pipelined step, then applies the deferred over-arch update, and returns
// the world-group exposed/hidden time the completion took — the cross-step
// share. The step's forward hook and Drain both call it, on the rank's own
// goroutine, sequenced after the previous step's Run joins, so reading the
// rank's counters is race-free. Every rank finishes its carried buckets
// before any rank launches new ones, so the bucket arenas are free to reuse.
func (tr *Trainer) finishCarried(g int, pbs []pendingBucket) (exposed, hidden time.Duration) {
	c := tr.world[g]
	e0, h0 := c.Times()
	tr.finishBuckets(g, pbs)
	e1, h1 := c.Times()
	tr.overOpts[g].Step(tr.replicas[g].OverArchParams())
	return e1 - e0, h1 - h0
}

// meanPerRank sums per-rank durations and divides by the rank count.
func meanPerRank(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Drain completes the carried work of the last Pipelined step — each rank's
// in-flight gradient buckets and the deferred over-arch update — then
// asserts the comm runtime is fully drained. The drain's exposure is folded
// into the cumulative stats without counting a step. Idempotent, and a
// no-op when nothing is carried; Close calls it, and tests call it before
// comparing final parameters.
func (tr *Trainer) Drain() {
	carried := tr.carried
	if carried == nil {
		return
	}
	tr.carried = nil
	crossE := make([]time.Duration, tr.cfg.G)
	crossH := make([]time.Duration, tr.cfg.G)
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		crossE[g], crossH[g] = tr.finishCarried(g, carried[g])
	})
	comm.AssertDrained(tr.world)
	exposed, hidden := tr.commTimes(&sptt.SPTTState{})
	tr.foldPhases(PhaseTimes{
		ExposedComm:      exposed,
		HiddenComm:       hidden,
		CrossStepExposed: meanPerRank(crossE),
		CrossStepHidden:  meanPerRank(crossH),
	})
}

// pipelineConflictInject, when non-nil, is consulted by pipelinePlanCheck
// after the structural assertions — test seam for the fallback path, since
// trainers built through New can never actually conflict (the SPTT config
// derives ownership from a validated partition).
var pipelineConflictInject func(tr *Trainer) error

// pipelinePlanCheck asserts the independence the Pipelined schedule rests
// on: per rank, the over-arch parameters (updated behind the step boundary)
// share no tensors with the tower-module parameters (read by the next
// step's forward), and the embedding tables are owned by exactly one rank
// each, so step N+1's lookups never race step N's deferred update path. A
// violation downgrades the trainer to Overlapped rather than risking a
// silent value divergence.
func (tr *Trainer) pipelinePlanCheck() error {
	for g := 0; g < tr.cfg.G; g++ {
		over := make(map[*tensor.Tensor]string)
		for _, p := range tr.replicas[g].OverArchParams() {
			over[p.Value] = p.Name
		}
		for _, p := range tr.modules[g].Params() {
			if name, ok := over[p.Value]; ok {
				return fmt.Errorf("distributed: pipeline conflict: rank %d tower-module param %s aliases over-arch param %s", g, p.Name, name)
			}
		}
	}
	owned := make([][]int, tr.cfg.G)
	for g := 0; g < tr.cfg.G; g++ {
		owned[g] = tr.engine.Cfg.OwnedFeatures(g)
	}
	if err := checkOwnershipPartition(owned, tr.cfg.Model.Schema.NumSparse()); err != nil {
		return err
	}
	if pipelineConflictInject != nil {
		return pipelineConflictInject(tr)
	}
	return nil
}

// checkOwnershipPartition verifies that owned (per-rank table lists) is an
// exact partition of the nf tables: every table claimed by exactly one
// rank. Any overlap would let step N's deferred update path race step
// N+1's lookups on a shared table, so a violation disables pipelining.
func checkOwnershipPartition(owned [][]int, nf int) error {
	owner := make([]int, nf)
	for f := range owner {
		owner[f] = -1
	}
	for g := range owned {
		for _, f := range owned[g] {
			if f < 0 || f >= nf {
				return fmt.Errorf("distributed: pipeline conflict: rank %d owns out-of-range table %d", g, f)
			}
			if owner[f] >= 0 {
				return fmt.Errorf("distributed: pipeline conflict: table %d owned by ranks %d and %d", f, owner[f], g)
			}
			owner[f] = g
		}
	}
	for f, g := range owner {
		if g < 0 {
			return fmt.Errorf("distributed: pipeline conflict: table %d has no owner", f)
		}
	}
	return nil
}
