package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"dmt/internal/data"
	"dmt/internal/experiments"
	"dmt/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Ceil nearest rank: the median of three is the second, the p99 of
	// three is the largest (floor indexing would under-read the tail).
	if got := percentile([]float64{10, 20, 30}, 0.5); got != 20 {
		t.Errorf("p50 of 3 = %v, want 20", got)
	}
	if got := percentile([]float64{10, 20, 30}, 0.99); got != 30 {
		t.Errorf("p99 of 3 = %v, want 30", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndBeyond(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{5, 1, 4}
	median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := beyond([]float64{1, 2, 3, 3, 4}, 3); got != 1 {
		t.Errorf("beyond = %d, want 1", got)
	}
}

func TestGoodputIsHighestPassingRung(t *testing.T) {
	ladder := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	for knee := -1; knee < len(ladder); knee++ {
		probes := 0
		got, next := goodput(ladder, func(i int) bool { probes++; return i <= knee })
		want, wantNext := 0.0, 0.0
		if knee >= 0 {
			want = ladder[knee]
		}
		if knee+1 < len(ladder) {
			wantNext = ladder[knee+1]
		}
		if got != want || next != wantNext {
			t.Errorf("knee at rung %d: goodput %v, next %v; want %v, %v", knee, got, next, want, wantNext)
		}
		if probes > 5 { // ceil(log2(len+1)), plus the retry of the limiting rung
			t.Errorf("knee at rung %d: %d probes for %d rungs", knee, probes, len(ladder))
		}
	}
	// One transient failure below the knee: the retry of the limiting rung
	// passes and the search resumes above it.
	for knee := 1; knee < len(ladder); knee++ {
		for glitch := 0; glitch < knee; glitch++ {
			seen := false
			got, _ := goodput(ladder, func(i int) bool {
				if i == glitch && !seen {
					seen = true
					return false
				}
				return i <= knee
			})
			if got != ladder[knee] {
				t.Errorf("knee %d, one-off failure at %d: goodput %v, want %v", knee, glitch, got, ladder[knee])
			}
		}
	}
}

func TestRungPasses(t *testing.T) {
	ok := rungResult{Rate: 1000, Issued: 1000, Planned: 1000, P99: 20, Backlog: 10}
	if !ok.passes(25) {
		t.Fatalf("%+v should pass a 25 ms limit", ok)
	}
	for name, r := range map[string]rungResult{
		"p99 over limit": {Rate: 1000, Issued: 1000, Planned: 1000, P99: 26},
		"failures":       {Rate: 1000, Issued: 1000, Planned: 1000, P99: 1, Failed: 1},
		"overload":       {Rate: 1000, Issued: 400, Planned: 1000, P99: 1, Overload: true},
		"short":          {Rate: 1000, Issued: 999, Planned: 1000, P99: 1},
		// 1000/s x 25 ms = 25 requests is the most a draining queue holds.
		"backlog": {Rate: 1000, Issued: 1000, Planned: 1000, P99: 1, Backlog: 26},
	} {
		if r.passes(25) {
			t.Errorf("%s: %+v passed", name, r)
		}
	}
}

func TestRungGeneratorBound(t *testing.T) {
	for _, c := range []struct {
		name string
		r    rungResult
		want bool
	}{
		{"passes", rungResult{Rate: 1000, Issued: 10, Planned: 10, P99: 20, LagP99: 15}, false},
		{"lag decides", rungResult{Rate: 1000, Issued: 10, Planned: 10, P99: 30, LagP99: 10}, true},
		{"lag not material", rungResult{Rate: 1000, Issued: 10, Planned: 10, P99: 26, LagP99: 4}, false},
		{"server too slow anyway", rungResult{Rate: 1000, Issued: 10, Planned: 10, P99: 60, LagP99: 10}, false},
		{"overload", rungResult{Rate: 1000, Issued: 5, Planned: 10, P99: 30, LagP99: 10, Overload: true}, false},
		{"backlog", rungResult{Rate: 1000, Issued: 10, Planned: 10, P99: 30, LagP99: 10, Backlog: 26}, false},
	} {
		if got := c.r.generatorBound(25, 0.2); got != c.want {
			t.Errorf("%s: generatorBound = %v, want %v", c.name, got, c.want)
		}
	}
}

// batchBytes serializes everything a trainer reads from a batch.
func batchBytes(t *testing.T, bs []*data.Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, b := range bs {
		for _, v := range []any{int64(b.Size), b.Dense.Data(), b.Labels} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		for f := range b.Indices {
			binary.Write(&buf, binary.LittleEndian, b.Indices[f])
			binary.Write(&buf, binary.LittleEndian, b.Offsets[f])
		}
	}
	return buf.Bytes()
}

func sampleBytes(t *testing.T, sms []serve.Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sm := range sms {
		binary.Write(&buf, binary.LittleEndian, sm.Dense)
		for _, bag := range sm.Indices {
			binary.Write(&buf, binary.LittleEndian, bag)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameTrainingBatches(t *testing.T) {
	p := trainCompute()
	_, gen, err := experiments.NewTrainer(p, false)
	if err != nil {
		t.Fatal(err)
	}
	inputs := func(seed uint64) []byte {
		var all []byte
		for _, step := range trainInputs(p, gen.Config(), seed)[:3] {
			all = append(all, batchBytes(t, step)...)
		}
		return all
	}
	a, b, c := inputs(7), inputs(7), inputs(8)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 produced different batches on two calls")
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 produced identical batches")
	}
}

func TestSameSeedSameServingInputs(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ws := s.Workloads["serve-churn"]
	trace := func(seed uint64) []byte {
		return arrivals(s.Serve, ws, seed, 1, ws.RefRate, 0.5).Encode()
	}
	if !bytes.Equal(trace(3), trace(3)) {
		t.Fatal("seed 3 produced different arrival traces")
	}
	if bytes.Equal(trace(3), trace(4)) {
		t.Fatal("seeds 3 and 4 produced identical arrival traces")
	}
	if bytes.Equal(trace(3), arrivals(s.Serve, ws, 3, 2, ws.RefRate, 0.5).Encode()) {
		t.Fatal("two phases of one run share an arrival trace")
	}
	pool := func(seed uint64) []byte {
		return sampleBytes(t, serve.BuildSamples(data.NewGenerator(data.CriteoLike(seed)), 64))
	}
	if !bytes.Equal(pool(3), pool(3)) {
		t.Fatal("seed 3 produced different sample pools")
	}
	if bytes.Equal(pool(3), pool(4)) {
		t.Fatal("seeds 3 and 4 produced identical sample pools")
	}
}

func TestSpecCoversEveryMetric(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if s.Workloads[name].Why == "" {
			t.Errorf("workload %s has no reason in spec.json", name)
		}
	}
	used := map[string]bool{}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayer() {
		key := layerKey(d.Name)
		used[key] = true
		ls, ok := s.Layers[key]
		if !ok {
			t.Errorf("per-layer metric %s has no spec.json entry %q", d.Name, key)
			continue
		}
		if len(ls.Workloads) == 0 || len(ls.Moves) == 0 {
			t.Errorf("spec.json entry %q needs workloads and moves", key)
		}
		for _, w := range ls.Workloads {
			if workloads[w] == nil {
				t.Errorf("spec.json entry %q names unknown workload %q", key, w)
			}
		}
	}
	for key := range s.Layers {
		if !used[key] {
			t.Errorf("spec.json entry %q matches no metric", key)
		}
	}
	// BENCHMARK.json at the repository root declares the same vocabulary,
	// in print order, that the benchmark emits.
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &declared); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(declared.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", declared.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(declared.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from what the benchmark emits (%d declared, %d emitted)",
			len(declared.PerLayer), len(perLayer()))
	}
	var names []string
	for _, w := range declared.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	lad := s.Serve.LadderQPS
	for i := 1; i < len(lad); i++ {
		if lad[i] <= lad[i-1] {
			t.Fatalf("ladder not increasing at rung %d: %v", i, lad)
		}
	}
}

func TestTraceWritesChromeTraceEvents(t *testing.T) {
	tr := newTracer()
	tr.do("outer", 0, -1, func(id int64) {
		k := tr.begin("inner", id, 3)
		tr.end(k)
		a := tr.beginAsync("request", id, 9)
		time.Sleep(time.Millisecond)
		tr.end(a)
	})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			t.Errorf("complete event %s without a duration", ev.Name)
		}
	}
	if phases["X"] != 2 || phases["b"] != 1 || phases["e"] != 1 {
		t.Errorf("event phases %v, want 2 X and one b/e pair", phases)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored", 0, -1))
	if nilTracer.count() != 0 || nilTracer.write(path) != nil {
		t.Error("the nil tracer must record and write nothing")
	}
}

func TestBatchFill(t *testing.T) {
	msAt := func(xs ...float64) []time.Duration {
		var out []time.Duration
		for _, x := range xs {
			out = append(out, time.Duration(x*float64(time.Millisecond)))
		}
		return out
	}
	// Batches of at most 2 with a 5 ms window: {0,1} full and leaves at 1;
	// {2} is alone until its timer at 7; {10,11} full at 11.
	share, wait := batchFill(msAt(0, 1, 2, 10, 11), 2, 5*time.Millisecond)
	if share != 1.0/3 {
		t.Errorf("timer share %v, want 1/3", share)
	}
	if want := (1 + 0 + 5 + 1 + 0) / 5.0; math.Abs(wait-want) > 1e-9 {
		t.Errorf("mean wait %v ms, want %v", wait, want)
	}
	if share, wait := batchFill(nil, 2, time.Millisecond); share != 0 || wait != 0 {
		t.Errorf("no arrivals: %v, %v", share, wait)
	}
}
