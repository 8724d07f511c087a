package distributed

import (
	"math"
	"testing"

	"dmt/internal/quant"
)

// TestCompressionNoneBitwiseGolden is the regression pin for the compressed
// wire path: a trainer with Compression explicitly set to None must follow
// a trajectory bit-identical to the zero-value config — i.e. the quantized
// collectives' None short-circuit leaves the engine exactly on the golden
// trajectory the pre-compression engine produced (which
// TestDistributedMatchesSingleProcess pins against the single-process
// model).
func TestCompressionNoneBitwiseGolden(t *testing.T) {
	cfg, gen := testSetup(11)
	explicit := cfg
	explicit.Compression = Compression{Gradient: quant.None, Embedding: quant.None}
	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withNone, err := New(explicit)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	for step := 0; step < steps; step++ {
		_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
		rb := base.Step(locals)
		rn := withNone.Step(locals)
		if rb.MeanLoss != rn.MeanLoss {
			t.Fatalf("step %d: None compression changed the loss: %v vs %v", step, rb.MeanLoss, rn.MeanLoss)
		}
	}
	for g := 0; g < cfg.G; g++ {
		bp, np := base.Replica(g).DenseParams(), withNone.Replica(g).DenseParams()
		for pi := range bp {
			if !bp[pi].Value.Equal(np[pi].Value) {
				t.Fatalf("rank %d param %s differs under explicit None", g, bp[pi].Name)
			}
		}
	}
	for f := range base.Engine().Tables {
		if !base.Engine().Tables[f].Table.Equal(withNone.Engine().Tables[f].Table) {
			t.Fatalf("table %d differs under explicit None", f)
		}
	}
	if base.Residual(0, 0) != nil || withNone.Residual(0, 0) != nil {
		t.Fatal("None compression must not allocate error-feedback state")
	}
}

// TestCompressedParallelMatchesSequentialBitwise extends the engine
// equivalence theorem to the compressed wire: with fp16 gradient (error
// feedback) and embedding compression, the rank-parallel collectives —
// blocking and overlapped — and the sequential centralized mirror must
// still produce bitwise-identical losses, parameters, tables, and
// residuals. The overlapped engine holds because buckets never split a
// parameter, so the quantizer sees exactly the tensors the golden path
// quantizes.
func TestCompressedParallelMatchesSequentialBitwise(t *testing.T) {
	for _, s := range []quant.Scheme{quant.FP16, quant.INT8} {
		cfg, gen := testSetup(12)
		cfg.Compression = Compression{Gradient: s, Embedding: s}
		seqCfg := cfg
		seqCfg.Schedule = Sequential
		ovCfg := cfg
		ovCfg.Schedule = Overlapped
		par, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := New(seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		ov, err := New(ovCfg)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 4
		for step := 0; step < steps; step++ {
			_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
			rp := par.Step(locals)
			rs := seq.Step(locals)
			ro := ov.Step(locals)
			if rp.MeanLoss != rs.MeanLoss {
				t.Fatalf("%s step %d: parallel loss %v != sequential %v", s, step, rp.MeanLoss, rs.MeanLoss)
			}
			if ro.MeanLoss != rs.MeanLoss {
				t.Fatalf("%s step %d: overlapped loss %v != sequential %v", s, step, ro.MeanLoss, rs.MeanLoss)
			}
		}
		for _, eng := range []struct {
			name string
			tr   *Trainer
		}{{"rank-parallel", par}, {"overlapped", ov}} {
			for g := 0; g < cfg.G; g++ {
				pp, sp := eng.tr.Replica(g).DenseParams(), seq.Replica(g).DenseParams()
				for pi := range pp {
					if !pp[pi].Value.Equal(sp[pi].Value) {
						t.Fatalf("%s/%s rank %d param %s differs between engines", s, eng.name, g, pp[pi].Name)
					}
				}
				for pi := range eng.tr.Replica(g).OverArchParams() {
					if !eng.tr.Residual(g, pi).Equal(seq.Residual(g, pi)) {
						t.Fatalf("%s/%s rank %d: error-feedback residual %d differs between engines", s, eng.name, g, pi)
					}
				}
			}
			for f := range eng.tr.Engine().Tables {
				if !eng.tr.Engine().Tables[f].Table.Equal(seq.Engine().Tables[f].Table) {
					t.Fatalf("%s/%s: table %d differs between engines", s, eng.name, f)
				}
			}
		}
	}
}

// TestCompressedReplicasStayInSync: quantization must not break the
// data-parallel invariant — decoding is deterministic and the reduction
// stays in rank order, so every replica still sees identical averages.
func TestCompressedReplicasStayInSync(t *testing.T) {
	cfg, gen := testSetup(13)
	cfg.Compression = Compression{Gradient: quant.INT8, Embedding: quant.FP16}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
		tr.Step(locals)
		if err := tr.ReplicasInSync(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Error feedback must actually be carrying rounding: with int8 wire the
	// residuals cannot all stay zero.
	nonzero := false
	for pi := range tr.Replica(0).OverArchParams() {
		for _, v := range tr.Residual(0, pi).Data() {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("int8 error-feedback residuals never became nonzero")
	}
}

// TestErrorFeedbackConvergence is the CTR-example convergence check: 30
// steps of fp16-compressed training (gradient error feedback + cross-host
// embedding quantization) must land within a tight tolerance of the
// uncompressed final loss, and the loss must still decrease.
func TestErrorFeedbackConvergence(t *testing.T) {
	run := func(s quant.Scheme) (first, last float64) {
		cfg, gen := testSetup(3) // same seed/workload as TestDistributedLossDecreases
		cfg.LocalBatch = 16
		cfg.Compression = Compression{Gradient: s, Embedding: s}
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 30
		for step := 0; step < steps; step++ {
			_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
			res := tr.Step(locals)
			if step == 0 {
				first = res.MeanLoss
			}
			last = res.MeanLoss
		}
		return first, last
	}
	_, base := run(quant.None)
	first, fp16 := run(quant.FP16)
	if fp16 >= first {
		t.Fatalf("fp16-compressed training did not reduce loss: %v -> %v", first, fp16)
	}
	if rel := math.Abs(fp16-base) / base; rel > 0.02 {
		t.Fatalf("fp16 final loss %v drifted %.2f%% from uncompressed %v (tolerance 2%%)",
			fp16, rel*100, base)
	}
	// int8 gradients are only safe because of error feedback: the residual
	// memory averages out the coarse grid's rounding over steps, so the
	// final loss must still track fp32 (the README's int8 safety claim).
	_, int8 := run(quant.INT8)
	if rel := math.Abs(int8-base) / base; rel > 0.05 {
		t.Fatalf("int8 final loss %v drifted %.2f%% from uncompressed %v (tolerance 5%%)",
			int8, rel*100, base)
	}
}

// TestCompressedStatsChargeWireBytes: with the fp16 wire the cumulative
// cross-host gradient and embedding byte counters must come in at least
// 40% under the fp32 run — the acceptance bar behind
// `dmt-bench -exp train -compress fp16`.
func TestCompressedStatsChargeWireBytes(t *testing.T) {
	run := func(s quant.Scheme) Stats {
		cfg, gen := testSetup(14)
		cfg.Compression = Compression{Gradient: s, Embedding: s}
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 2; step++ {
			_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
			tr.Step(locals)
		}
		return tr.Stats()
	}
	base := run(quant.None)
	fp16 := run(quant.FP16)
	if base.GradCrossHostBytes <= 0 || base.EmbCrossHostBytes <= 0 {
		t.Fatalf("fp32 baseline reported no cross-host traffic: %+v", base)
	}
	if got, limit := fp16.GradCrossHostBytes, base.GradCrossHostBytes*6/10; got > limit {
		t.Fatalf("fp16 gradient cross-host bytes %d exceed 60%% of fp32's %d",
			got, base.GradCrossHostBytes)
	}
	if got, limit := fp16.EmbCrossHostBytes, base.EmbCrossHostBytes*6/10; got > limit {
		t.Fatalf("fp16 embedding cross-host bytes %d exceed 60%% of fp32's %d",
			got, base.EmbCrossHostBytes)
	}
	// Topology-aware policy: the embedding intra-host volume (step (a)
	// indices + step (d) AlltoAll) must be unchanged — only cross-host hops
	// were quantized.
	if fp16.EmbIntraHostBytes != base.EmbIntraHostBytes {
		t.Fatalf("intra-host embedding bytes changed under fp16: %d vs %d",
			fp16.EmbIntraHostBytes, base.EmbIntraHostBytes)
	}
}
