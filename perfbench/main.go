// Command perfbench is the repository benchmark: four workloads over the
// training and serving paths, each driven only through the program's public
// entry points (experiments.NewTrainer, serve.NewServer, workload.Generate,
// cluster.Run and the layer packages' exported functions).
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload train-compute --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload with
// in-memory span recording switched on for alternate blocks of work (the
// others are its untraced baseline), probes every layer at the workload's
// shapes, writes the spans as Chrome trace-event JSON and prints the
// per-layer metrics. The last stdout line is always one JSON
// object {"correct", "attempted", "failed", "metrics"}; the lines before it
// print every metric by name with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// env is what a workload run receives.
type env struct {
	name    string
	spec    *benchSpec
	seed    uint64
	seconds float64
	traced  bool
	tr      *tracer // nil in an untraced run
	heap    *heapSampler
	log     io.Writer
}

// logf prints one human-readable line.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	problems          []string // failed correctness checks, human-readable
	values            map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// set records metric name's value.
func (r *result) set(name string, v float64) { r.values[name] = v }

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloadFunc runs one workload.
type workloadFunc func(e *env) (*result, error)

var workloads = map[string]workloadFunc{
	"train-compute": runTrainCompute,
	"train-disagg":  runTrainDisagg,
	"serve-hot":     runServeHot,
	"serve-churn":   runServeChurn,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "input seed: batches, key pools and arrival traces derive from it")
		seconds  = fs.Float64("seconds", 15, "measured seconds per run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		traceOut = fs.String("trace-out", "", "Chrome trace-event JSON path for --trace 1 (default .bench_build/perfbench/<workload>-<seed>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and positive --seconds\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// Two cores at most, whatever the host offers: the workloads and their
	// reference numbers are defined for GOMAXPROCS <= 2. An explicit
	// GOMAXPROCS environment setting (e.g. 1, for the determinism check)
	// is respected.
	if os.Getenv("GOMAXPROCS") == "" && runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{name: *name, spec: spec, seed: *seed, seconds: *seconds, traced: *trace == 1, log: out,
		heap: startHeapSampler()}
	if e.traced {
		e.tr = newTracer()
	}
	e.logf("perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	res, err := wf(e)
	e.heap.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d.json", *name, *seed))
		}
		if err := e.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		e.logf("trace: %d spans written to %s", e.tr.count(), path)
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer()
	}
	return emit(out, res, defs)
}

// emit prints every metric of defs by name and unit, then the result line.
// A metric the workload did not set is a benchmark bug, not a zero.
func emit(out io.Writer, res *result, defs []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.Name, v)
			return 1
		}
		ms[d.Name] = value{v, d.Unit}
		fmt.Fprintf(out, "  %-48s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "  FAILED CHECK: %s\n", p)
	}
	fmt.Fprintf(out, "  attempted=%d failed=%d\n", res.attempted, res.failed)
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, attempted, res.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// heapSamplePeriod is how often the heap sampler reads the heap size.
const heapSamplePeriod = 2 * time.Millisecond

// heapSampler samples live-plus-unswept heap object bytes through
// runtime/metrics every heapSamplePeriod (a read that does not stop the
// world).
type heapSampler struct {
	mu      sync.Mutex
	samples []float64
	quit    chan struct{}
	done    chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		v := float64(sample[0].Value.Uint64())
		h.mu.Lock()
		h.samples = append(h.samples, v)
		h.mu.Unlock()
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.quit:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB returns the heap peak so far in MiB, read as the 99th percentile
// of the samples: the top of a typical GC cycle's sawtooth. The single
// highest sample instead depends on whether one GC cycle happened to start
// late, which moved it by a fifth between otherwise identical runs.
func (h *heapSampler) peakMB() float64 {
	h.mu.Lock()
	s := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	sort.Float64s(s)
	return percentile(s, 0.99) / (1 << 20)
}

// stop ends sampling and waits for the sampler goroutine; idempotent.
func (h *heapSampler) stop() {
	select {
	case <-h.quit:
	default:
		close(h.quit)
	}
	<-h.done
}

// layerKey maps a per-layer metric to its spec.json entry: probe metrics
// share their probe's entry.
func layerKey(name string) string {
	for _, p := range probeBases {
		if name == p.timeName || name == p.base+"_allocs" || name == p.base+"_bytes" {
			return p.base
		}
	}
	return name
}

// setAbsent reports 0 for every per-layer metric spec.json does not assign
// to the running workload. A metric that belongs to it but was not measured
// stays unset, and emit refuses to print a result without it.
func setAbsent(e *env, res *result) {
	for _, d := range perLayer() {
		if _, ok := res.values[d.Name]; !ok && !e.spec.belongs(layerKey(d.Name), e.name) {
			res.set(d.Name, 0)
		}
	}
}

// Set-up is short, so one sample would be noise: it is repeated at least
// setupMinReps times and until setupMinTime has passed (at most
// setupMaxReps times), and the median is reported.
const (
	setupMinReps = 5
	setupMaxReps = 40
	setupMinTime = time.Second
)

// setupTimes repeats build and returns the median wall seconds; the value
// of the last build is kept for the run, the others are discarded.
func setupTimes[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	start := time.Now()
	for i := 0; i < setupMaxReps && (i < setupMinReps || time.Since(start) < setupMinTime); i++ {
		if i > 0 {
			// Drop the previous set-up before the next one is built, so
			// only one is ever live and its garbage is collected here,
			// outside the timed build.
			discard(last)
			var zero T
			last = zero
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// allocDelta reports heap allocation counts between two points.
type allocDelta struct{ mallocs, bytes uint64 }

func readAllocs() allocDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocDelta{m.Mallocs, m.TotalAlloc}
}

func (a allocDelta) since(b allocDelta) allocDelta {
	return allocDelta{a.mallocs - b.mallocs, a.bytes - b.bytes}
}
