package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmt/internal/cluster"
	"dmt/internal/data"
	"dmt/internal/embeddings"
	"dmt/internal/models"
	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/tensor"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

// Serving workloads: one DMT-DLRM micro-batching server with both caches,
// driven open-loop from a single generator goroutine that issues requests
// on schedule. Each in-flight Predict is its own goroutine (Predict
// blocks), so the generator adds no OS threads and no connections.

func runServeHot(e *env) (*result, error)   { return runServe(e, "serve-hot") }
func runServeChurn(e *env) (*result, error) { return runServe(e, "serve-churn") }

// serveSetup is one set-up: the key pool's samples, the model and a
// started server.
type serveSetup struct {
	samples []serve.Sample
	model   *models.DMTDLRM
	srv     *serve.Server
}

func serveModel(sp serveSpec, schema data.Schema) *models.DMTDLRM {
	cfg := models.ServingDMTDLRMConfig(schema, models.RoundRobinTowers(sp.Towers, schema.NumSparse()), sp.ModelSeed)
	cfg.TopMLP = append([]int(nil), sp.TopMLP...)
	return models.NewDMTDLRM(cfg)
}

func serverConfig(sp serveSpec) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.MaxBatch = sp.MaxBatch
	cfg.MaxWait = time.Duration(sp.MaxWaitMs * float64(time.Millisecond))
	cfg.EmbCacheEntries = sp.CacheEntries
	cfg.TowerCacheEntries = sp.CacheEntries
	cfg.CacheShards = sp.CacheShards
	return cfg
}

func buildServe(sp serveSpec, ws workloadSpec, seed uint64) serveSetup {
	gen := data.NewGenerator(data.CriteoLike(seed))
	samples := serve.BuildSamples(gen, ws.Pool)
	m := serveModel(sp, gen.Config().Schema)
	return serveSetup{samples: samples, model: m, srv: serve.NewServer(m, serverConfig(sp))}
}

// arrivals generates one open-loop Poisson trace over the workload's pool.
// phase separates the traces of one run (warm-up, reference, each rung).
func arrivals(sp serveSpec, ws workloadSpec, seed uint64, phase int, rate, seconds float64) *workload.Trace {
	return workload.Generate(workload.Config{
		Arrival:  workload.Poisson,
		Rate:     rate,
		Requests: int(math.Ceil(rate * seconds)),
		Samples:  ws.Pool,
		ZipfS:    ws.ZipfS,
		Classes: []workload.Class{{Name: "default", Share: 1, Items: 1,
			SLO: time.Duration(sp.P99LimitMs * float64(time.Millisecond))}},
		Seed: seed*1_000_003 + uint64(phase),
	})
}

// drive is the open-loop generator: one goroutine walks the trace, sleeping
// until each request is due and issuing it as its own goroutine. Latency is
// measured from the due time, so generator lag counts against the server
// rather than hiding queueing; the lag itself (how late each request was
// issued) is kept, so a rung the generator could not keep up with is told
// apart from one the server could not. Issuing stops early when more than
// cap requests are in flight (the rung is overloaded). Every every-th request's
// logit is kept for the correctness check. With a tracer, each Predict is
// an async span when traceIf (nil: always) accepts its arrival time.
type driveOut struct {
	lat      []float64 // ms from due to answer, per issued request
	at       []time.Duration
	issued   int
	failed   int
	backlog  int
	overload bool
	lag      []float64 // ms from due to issue, per issued request, sorted
	checks   []logitCheck
}

// maxLag and lagP99 read the generator's issue lag, ms.
func (d driveOut) maxLag() float64 { return percentile(d.lag, 1) }
func (d driveOut) lagP99() float64 { return percentile(d.lag, 0.99) }

type logitCheck struct {
	sample int
	logit  float32
}

func drive(srv *serve.Server, samples []serve.Sample, tr *workload.Trace, capInFlight int, every int,
	t *tracer, parent int64, traceIf func(at time.Duration) bool) driveOut {
	reqs := tr.Requests
	out := driveOut{lat: make([]float64, len(reqs)), at: make([]time.Duration, len(reqs)),
		lag: make([]float64, 0, len(reqs))}
	logits := make([]float32, len(reqs))
	var failed atomic.Int64
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := ms(time.Since(due))
		if inflight.Load() >= int64(capInFlight) {
			out.overload = true
			break
		}
		inflight.Add(1)
		wg.Add(1)
		out.issued++
		out.lag = append(out.lag, lag)
		out.at[i] = reqs[i].At
		rt := t
		if traceIf != nil && !traceIf(reqs[i].At) {
			rt = nil
		}
		go func(i int, due time.Time, t *tracer) {
			defer wg.Done()
			k := t.beginAsync("serve.Server.Predict", parent, int64(reqs[i].Seq))
			logit, err := srv.Predict(samples[reqs[i].Sample])
			t.end(k)
			out.lat[i] = ms(time.Since(due))
			logits[i] = logit
			if err != nil {
				failed.Add(1)
			}
			inflight.Add(-1)
		}(i, due, rt)
	}
	out.backlog = int(inflight.Load())
	wg.Wait()
	out.lat = out.lat[:out.issued]
	out.at = out.at[:out.issued]
	out.failed = int(failed.Load())
	sort.Float64s(out.lag)
	for i := 0; i < out.issued; i += every {
		out.checks = append(out.checks, logitCheck{reqs[i].Sample, logits[i]})
	}
	return out
}

// segmentLatencies splits a reference run into n equal arrival-time
// segments and returns each segment's p50, p90 and p99 (ms).
func segmentLatencies(d driveOut, n int, span time.Duration) (p50s, p90s, p99s []float64) {
	segs := make([][]float64, n)
	for i, l := range d.lat {
		k := segmentOf(d.at[i], n, span)
		segs[k] = append(segs[k], l)
	}
	for _, s := range segs {
		sort.Float64s(s)
		p50s = append(p50s, percentile(s, 0.50))
		p90s = append(p90s, percentile(s, 0.90))
		p99s = append(p99s, percentile(s, 0.99))
	}
	return p50s, p90s, p99s
}

// segmentOf returns which of n equal segments of span arrival time at
// falls in.
func segmentOf(at time.Duration, n int, span time.Duration) int {
	k := int(int64(at) * int64(n) / int64(span))
	if k >= n {
		k = n - 1
	}
	return k
}

func runServe(e *env, name string) (*result, error) {
	res := newResult()
	sp := e.spec.Serve
	ws := e.spec.Workloads[name]
	root := e.tr.begin("workload", 0, -1)
	defer e.tr.end(root)

	var st serveSetup
	var setupS float64
	e.tr.do("setup", root.id, -1, func(id int64) {
		st, setupS, _ = setupTimes(func() (serveSetup, error) {
			k := e.tr.begin("serve.NewServer", id, -1)
			defer e.tr.end(k)
			return buildServe(sp, ws, e.seed), nil
		}, func(s serveSetup) { s.srv.Close() })
	})
	srv := st.srv
	limit := sp.P99LimitMs
	capFor := func(rate float64) int { return int(rate*limit/1000*2) + 64 }
	var checks []logitCheck
	account := func(d driveOut) {
		res.attempted += d.issued
		if d.failed > 0 {
			res.fail("%d of %d Predict calls failed", d.failed, d.issued)
		}
		checks = append(checks, d.checks...)
	}

	// Warm-up at the reference rate fills the caches to the workload's
	// steady state before anything is measured.
	warm := arrivals(sp, ws, e.seed, 0, ws.RefRate, sp.WarmupS)
	e.tr.do("warmup", root.id, -1, func(id int64) {
		account(drive(srv, st.samples, warm, capFor(ws.RefRate), sp.CheckEvery, e.tr, id, nil))
	})

	// Reference rate: percentiles per short segment, medians reported, so
	// a burst of host contention that hits a few segments does not move
	// the figure. The tail metric is the p90, as for training steps: on a
	// shared two-core host the p99 of a run moves with other tenants' load
	// by more than any bound could absorb, so it is reported per layer
	// (serve.p99_ms) and not gated. The traced run traces the odd segments
	// only; the even ones are its untraced baseline.
	refSeconds := e.seconds * 0.4
	ref := arrivals(sp, ws, e.seed, 1, ws.RefRate, refSeconds)
	span := time.Duration(refSeconds * float64(time.Second))
	oddSegment := func(at time.Duration) bool { return segmentOf(at, sp.Segments, span)%2 == 1 }
	runtime.GC()
	s0 := srv.Stats()
	var d driveOut
	e.tr.do("reference", root.id, -1, func(id int64) {
		d = drive(srv, st.samples, ref, capFor(ws.RefRate), sp.CheckEvery, e.tr, id, oddSegment)
	})
	account(d)
	p50s, p90s, p99s := segmentLatencies(d, sp.Segments, span)
	e.logf("serve: reference %g qps: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (medians of %d segments of ~%d requests, so ~%d lie beyond each segment's p90); generator issue lag p50 %.3f, p99 %.3f, max %.3f ms",
		ws.RefRate, median(p50s), median(p90s), median(p99s), sp.Segments, len(d.lat)/sp.Segments, len(d.lat)/sp.Segments/10,
		percentile(d.lag, 0.5), d.lagP99(), d.maxLag())

	if !e.traced {
		s1 := srv.Stats()
		res.set("setup_s", setupS)
		res.set("latency_p50_ms", median(p50s))
		res.set("latency_tail_ms", median(p90s))
		e.logf("serve: cache hit ratios so far: tower %.4f, embedding %.4f; avg batch %.2f",
			s1.Tower.HitRate(), s1.Emb.HitRate(), s1.AvgBatch)
		res.set("heap_peak_mb", e.heap.peakMB())

		// Goodput: binary search over the fixed ladder. A rung passes when
		// two of its attempts pass and fails when two fail, so neither one
		// disturbance nor one lucky attempt decides it. A failed attempt
		// that only the generator's issue lag pushed over the limit says
		// nothing about the server: it is counted as generator-bound
		// instead, and a rung left undecided that way fails but is
		// reported as the generator's limit, not the server's.
		runs := 0
		lagAt := map[float64]float64{} // rung rate -> max issue lag over its attempts, ms
		genBound := map[float64]bool{}
		pass := func(i int) bool {
			rate := sp.LadderQPS[i]
			passed, failed := 0, 0
			for attempt := 0; passed < 2 && failed < 2 && attempt < rungMaxAttempts; attempt++ {
				tr := arrivals(sp, ws, e.seed, 10+rungMaxAttempts*i+attempt, rate, sp.RungS)
				runtime.GC()
				d := drive(srv, st.samples, tr, capFor(rate), sp.CheckEvery, nil, 0, nil)
				account(d)
				runs++
				sorted := append([]float64(nil), d.lat...)
				sort.Float64s(sorted)
				r := rungResult{Rate: rate, Issued: d.issued, Planned: len(tr.Requests), Failed: d.failed,
					P99: percentile(sorted, 0.99), Backlog: d.backlog, Overload: d.overload, LagP99: d.lagP99()}
				lagAt[rate] = math.Max(lagAt[rate], d.maxLag())
				verdict := "pass"
				switch {
				case r.passes(limit):
					passed++
				case r.generatorBound(limit, genBoundShare):
					verdict = "generator-bound"
				default:
					verdict = "fail"
					failed++
				}
				e.logf("serve: rung %6.0f qps attempt %d: p99 %8.3f ms, backlog %d, issued %d/%d, generator lag p99 %.3f max %.3f ms: %s",
					rate, attempt, r.P99, r.Backlog, r.Issued, r.Planned, d.lagP99(), d.maxLag(), verdict)
			}
			if passed < 2 && failed < 2 {
				genBound[rate] = true
			}
			return passed == 2
		}
		g, next := goodput(sp.LadderQPS, pass)
		if g == 0 {
			return nil, fmt.Errorf("no ladder rung passes (lowest %g qps, p99 limit %g ms)", sp.LadderQPS[0], limit)
		}
		res.set("throughput_per_s", g)
		e.logf("serve: goodput %g qps (p99 limit %g ms, %d rung runs); generator lag at that rung: max %.3f ms",
			g, limit, runs, lagAt[g])
		if genBound[next] {
			e.logf("serve: WARNING: the rung above, %g qps, was generator-bound: goodput is the generator's limit here, not the server's", next)
		}
	} else {
		res.set("serve.p99_ms", median(p99s))
		var even, odd []float64
		for k, v := range p50s {
			if k%2 == 1 {
				odd = append(odd, v)
			} else {
				even = append(even, v)
			}
		}
		res.set("bench.tracing_overhead_pct", 100*(median(odd)/median(even)-1))
		s1 := srv.Stats()
		served, batches := float64(s1.Served-s0.Served), float64(s1.Batches-s0.Batches)
		res.set("serve.avg_batch", served/batches)
		tower, emb := s1.Tower, s1.Emb
		tower.Hits -= s0.Tower.Hits
		tower.Misses -= s0.Tower.Misses
		emb.Hits -= s0.Emb.Hits
		emb.Misses -= s0.Emb.Misses
		res.set("serve.tower_hit_ratio", tower.HitRate())
		res.set("serve.emb_hit_ratio", emb.HitRate())
		e.logf("serve: reference phase: tower hit ratio %.4f of %d, embedding hit ratio %.4f of %d, avg batch %.2f",
			tower.HitRate(), tower.Hits+tower.Misses, emb.HitRate(), emb.Hits+emb.Misses, served/batches)
		// Issue lag over the measured reference phase (the warm-up starts
		// on cold caches and is not measured).
		res.set("bench.gen_lag_ms_max", d.maxLag())
		var at []time.Duration
		for _, r := range ref.Requests {
			at = append(at, r.At)
		}
		timerShare, fillMs := batchFill(at, sp.MaxBatch, time.Duration(sp.MaxWaitMs*float64(time.Millisecond)))
		e.logf("serve: batch fill at %g qps (flush rule replayed on the arrivals): %.1f%% of batches flushed by the %g ms timer, mean wait for the batch to leave %.3f ms = %.0f%% of the p50",
			ws.RefRate, 100*timerShare, sp.MaxWaitMs, fillMs, 100*fillMs/median(p50s))

		// The same reference trace through the fleet simulator, reported in
		// the measured shape.
		cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), sp.Towers)
		ccfg := cluster.Config{
			Replicas: 1, Cost: cost, MaxBatch: sp.MaxBatch,
			MaxWait:           time.Duration(sp.MaxWaitMs * float64(time.Millisecond)),
			Policy:            cluster.RoundRobin(),
			TowerCacheEntries: sp.CacheEntries, EmbCacheEntries: sp.CacheEntries,
			CacheShards: sp.CacheShards, EmbIDSpace: sp.EmbIDSpace,
		}
		var cr cluster.Result
		k := e.tr.begin("cluster.Run", root.id, -1)
		t0 := time.Now()
		cr = cluster.Run(ccfg, ref)
		res.set("cluster.run_ms", ms(time.Since(t0)))
		e.tr.end(k)
		res.set("cluster.modeled_p50_ms", ms(cr.P50))
		res.set("cluster.modeled_p99_ms", ms(cr.P99))
		e.logf("serve: modeled (%s): p50 %.4f ms, p99 %.4f ms over %d requests", cost, ms(cr.P50), ms(cr.P99), cr.Served)

		e.heap.stop()
		serveProbes(e, sp, st, ref, served/batches, res, root.id)
	}
	srv.Close()
	checkLogits(e, st, checks, res, root.id)
	setAbsent(e, res)
	return res, nil
}

// A failed rung attempt can be generator-bound (see
// rungResult.generatorBound) only when the generator's p99 issue lag
// exceeds this share of the latency limit; a rung is given up to
// rungMaxAttempts attempts to collect two passes or two server failures.
const (
	genBoundShare   = 0.2
	rungMaxAttempts = 5
)

// checkLogits compares the sampled served logits with the same model's
// direct, uncached Predict on a batch of one. Batching and caching change
// the summation grouping of nothing the model computes per row, so the
// tolerance only absorbs float reassociation in the GEMM kernels.
func checkLogits(e *env, st serveSetup, checks []logitCheck, res *result, parent int64) {
	k := e.tr.begin("check-logits", parent, -1)
	defer e.tr.end(k)
	want := map[int]float32{}
	bad := 0
	for _, c := range checks {
		w, ok := want[c.sample]
		if !ok {
			w = st.model.Predict(mergeBatch(st.samples[c.sample:c.sample+1]), models.PredictOptions{}).Data()[0]
			want[c.sample] = w
		}
		if math.Abs(float64(w-c.logit)) > 1e-5*math.Max(1, math.Abs(float64(w))) {
			bad++
			if bad <= 3 {
				res.problems = append(res.problems,
					fmt.Sprintf("sample %d: served logit %v, direct Predict %v", c.sample, c.logit, w))
			}
		}
	}
	res.failed += bad
	e.logf("serve: %d sampled logits checked against direct Predict (%d distinct samples), %d mismatched",
		len(checks), len(want), bad)
}

// mergeBatch concatenates samples into one batch, the layout the server's
// micro-batcher builds.
func mergeBatch(sms []serve.Sample) *data.Batch {
	nf := len(sms[0].Indices)
	nd := len(sms[0].Dense)
	dense := make([]float32, 0, len(sms)*nd)
	b := &data.Batch{Size: len(sms), Indices: make([][]int32, nf), Offsets: make([][]int32, nf)}
	for _, sm := range sms {
		dense = append(dense, sm.Dense...)
		for f := range sm.Indices {
			b.Offsets[f] = append(b.Offsets[f], int32(len(b.Indices[f])))
			b.Indices[f] = append(b.Indices[f], sm.Indices[f]...)
		}
	}
	b.Dense = tensor.FromSlice(dense, len(sms), nd)
	return b
}

// serveProbes times Predict at batch 1 and at the measured average batch
// (with caches of the server's size warmed on the reference keys), the
// Keyed cache on the workload's tower-key stream, the dense layers at the
// serving over-arch shape, and a closed-loop allocation count per request.
func serveProbes(e *env, sp serveSpec, st serveSetup, ref *workload.Trace, avgBatch float64, res *result, parent int64) {
	k := e.tr.begin("probes", parent, -1)
	defer e.tr.end(k)
	m := st.model
	opt := models.PredictOptions{
		Embeddings: embeddings.NewKeyed(sp.CacheEntries, sp.CacheShards),
		Towers:     embeddings.NewKeyed(sp.CacheEntries, sp.CacheShards),
	}
	reqs := ref.Requests
	for _, r := range reqs {
		m.Predict(mergeBatch(st.samples[r.Sample:r.Sample+1]), opt)
	}
	b1 := make([]*data.Batch, 0, 256)
	for i := 0; i < 256 && i < len(reqs); i++ {
		b1 = append(b1, mergeBatch(st.samples[reqs[i].Sample:reqs[i].Sample+1]))
	}
	i := 0
	pr := probe(e, k.id, "models.DMTDLRM.Predict(b=1)", func() {
		m.Predict(b1[i%len(b1)], opt)
		i++
	})
	record(res, "models.predict_b1", pr, pr.ns/1e3)
	bs := int(math.Round(avgBatch))
	if bs < 1 {
		bs = 1
	}
	var bb []*data.Batch
	for j := 0; j+bs <= len(reqs) && len(bb) < 64; j += bs {
		sms := make([]serve.Sample, bs)
		for q := range sms {
			sms[q] = st.samples[reqs[j+q].Sample]
		}
		bb = append(bb, mergeBatch(sms))
	}
	i = 0
	pr = probe(e, k.id, fmt.Sprintf("models.DMTDLRM.Predict(b=%d)", bs), func() {
		m.Predict(bb[i%len(bb)], opt)
		i++
	})
	record(res, "models.predict_avg_batch", pr, pr.ns/1e3/float64(bs))

	// Tower-cache keys of the reference stream: (tower, sample) pairs.
	var keys []uint64
	for _, r := range reqs {
		for t := 0; t < sp.Towers; t++ {
			keys = append(keys, uint64(r.Sample)*uint64(sp.Towers)+uint64(t))
		}
	}
	dim := m.TMs[0].OutDim()
	keyedProbes(e, k.id, res, sp.CacheEntries, sp.CacheShards, keys, dim)

	denseProbes(e, k.id, res, widest(m.Top), bs, interactionShape(m.Top, serveD(m)), serveD(m), false)

	// Closed-loop allocations per request on a fresh server: clients issue
	// blocking Predicts over the reference keys, so the count is the
	// server's own (per-request channel, batch assembly, forward).
	srv := serve.NewServer(m, serverConfig(sp))
	defer srv.Close()
	per := 200
	var wg sync.WaitGroup
	var failed atomic.Int64
	runtime.GC()
	a0 := readAllocs()
	wg.Add(sp.AllocClients)
	for c := 0; c < sp.AllocClients; c++ {
		go func(c int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r := reqs[(c*per+j)%len(reqs)]
				if _, err := srv.Predict(st.samples[r.Sample]); err != nil {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	a := readAllocs().since(a0)
	res.attempted += sp.AllocClients * per
	if n := failed.Load(); n > 0 {
		res.fail("%d of %d closed-loop Predict calls failed", n, sp.AllocClients*per)
	}
	res.set("serve.allocs_per_request", float64(a.mallocs)/float64(sp.AllocClients*per))
}

// serveD is the model's tower output width: the bottom MLP ends at it.
func serveD(m *models.DMTDLRM) int { return m.Bottom.OutDim() }
