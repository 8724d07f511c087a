package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval: a call the benchmark made into the program
// (a training step, a Predict, a simulator replay) or one layer probe.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer started
	ID, Parent int64         // Parent 0 is the root
	Ref        int64         // request or step id; -1 when the span has none
	Async      bool          // overlaps its siblings (in-flight requests)
}

// tracer records spans in memory and writes them once, at exit, as Chrome
// trace-event JSON. A nil *tracer is the untraced run: every method is a
// no-op, so the measured paths carry one nil check and nothing else.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

// tok is an open span.
type tok struct {
	name       string
	id, parent int64
	ref        int64
	start      time.Duration
	async      bool
}

func newTracer() *tracer {
	// Preallocated so that recording does not allocate while a measured
	// loop runs (the per-step allocation counters would see it).
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

// begin opens a span under parent (0 = root); ref is the step or request id.
func (t *tracer) begin(name string, parent, ref int64) tok {
	if t == nil {
		return tok{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return tok{name: name, id: id, parent: parent, ref: ref, start: time.Since(t.t0)}
}

// beginAsync opens a span that may overlap its siblings (one per request).
func (t *tracer) beginAsync(name string, parent, ref int64) tok {
	k := t.begin(name, parent, ref)
	k.async = true
	return k
}

// end closes k and records it.
func (t *tracer) end(k tok) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: k.name, Start: k.start, End: now,
		ID: k.id, Parent: k.parent, Ref: k.ref, Async: k.async})
	t.mu.Unlock()
}

// do runs fn inside a span, passing fn the span id for its children.
func (t *tracer) do(name string, parent, ref int64, fn func(id int64)) {
	k := t.begin(name, parent, ref)
	fn(k.id)
	t.end(k)
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceEvent is one Chrome trace-event record ("X" complete events for the
// nested synchronous spans, "b"/"e" async pairs for overlapping requests).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	ID   *int64         `json:"id,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans at path as {"traceEvents": [...]}.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		f.Close()
		return err
	}
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, s := range spans {
		args := map[string]any{"span": s.ID, "parent": s.Parent}
		if s.Ref >= 0 {
			args["ref"] = s.Ref
		}
		ts := us(s.Start)
		if s.Async {
			id := s.ID
			if err := emit(traceEvent{Name: s.Name, Cat: "request", Ph: "b", Ts: ts, ID: &id, Pid: 1, Tid: 2, Args: args}); err != nil {
				f.Close()
				return err
			}
			if err := emit(traceEvent{Name: s.Name, Cat: "request", Ph: "e", Ts: us(s.End), ID: &id, Pid: 1, Tid: 2}); err != nil {
				f.Close()
				return err
			}
			continue
		}
		dur := us(s.End - s.Start)
		if err := emit(traceEvent{Name: s.Name, Cat: "bench", Ph: "X", Ts: ts, Dur: &dur, Pid: 1, Tid: 1, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
