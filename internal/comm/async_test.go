package comm

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// TestAsyncCollectivesInFlight posts several collectives back to back
// before waiting any of them: per-pair mailbox FIFO must keep the epochs
// separate, and each Wait must resolve to its own collective's result.
func TestAsyncCollectivesInFlight(t *testing.T) {
	const n = 4
	comms := NewGroup(n)
	Run(comms, func(c *Comm) {
		r := float32(c.Rank())
		x1 := tensor.FromSlice([]float32{r + 1, 2 * r}, 2)
		chunks := make([]*tensor.Tensor, n)
		for d := 0; d < n; d++ {
			chunks[d] = tensor.FromSlice([]float32{r*10 + float32(d)}, 1)
		}
		x2 := tensor.FromSlice([]float32{100 + r}, 1)

		// Three collectives in flight at once on one group.
		h1 := c.IAllReduceSumQ(quant.None, x1)
		h2 := c.IAlltoAllTensorsQ(quant.None, chunks)
		h3 := c.IAllGatherQ(quant.None, x2)

		sum := h1.Wait()
		if sum.Data()[0] != 1+2+3+4 || sum.Data()[1] != 2*(0+1+2+3) {
			t.Errorf("rank %d: IAllReduceSumQ got %v", c.Rank(), sum.Data())
		}
		got := h2.Wait()
		for s := 0; s < n; s++ {
			if want := float32(s*10) + r; got[s].Data()[0] != want {
				t.Errorf("rank %d: IAlltoAll from %d got %v want %v", c.Rank(), s, got[s].Data()[0], want)
			}
		}
		gath := h3.Wait()
		for s := 0; s < n; s++ {
			if want := float32(100 + s); gath[s].Data()[0] != want {
				t.Errorf("rank %d: IAllGatherQ from %d got %v want %v", c.Rank(), s, gath[s].Data()[0], want)
			}
		}
		// Wait is idempotent.
		if h1.Wait() != sum {
			t.Errorf("rank %d: second Wait returned a different result", c.Rank())
		}
	})
}

// TestAsyncReduceScatterAndInt32 covers the remaining I* variants.
func TestAsyncReduceScatterAndInt32(t *testing.T) {
	const n = 3
	comms := NewGroup(n)
	Run(comms, func(c *Comm) {
		r := c.Rank()
		chunks := make([]*tensor.Tensor, n)
		ichunks := make([][]int32, n)
		for d := 0; d < n; d++ {
			chunks[d] = tensor.FromSlice([]float32{float32(r + d)}, 1)
			ichunks[d] = []int32{int32(r*100 + d)}
		}
		hr := c.IReduceScatterSumQ(quant.None, chunks)
		hi := c.IAlltoAllInt32(ichunks)
		// sum over src of (src + myRank)
		if got, want := hr.Wait().Data()[0], float32(0+1+2+3*r); got != want {
			t.Errorf("rank %d: IReduceScatterSumQ got %v want %v", r, got, want)
		}
		ints := hi.Wait()
		for s := 0; s < n; s++ {
			if want := int32(s*100 + r); ints[s][0] != want {
				t.Errorf("rank %d: IAlltoAllInt32 from %d got %d want %d", r, s, ints[s][0], want)
			}
		}
	})
}

// TestWaitOutOfOrderPanics: mailbox FIFO is the wire format, so waiting
// handle #1 while #0 is still pending must panic rather than silently hand
// one collective another's payloads.
func TestWaitOutOfOrderPanics(t *testing.T) {
	comms := NewGroup(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "issue order") {
			t.Fatalf("panic should mention issue order: %v", r)
		}
	}()
	Run(comms, func(c *Comm) {
		x := tensor.FromSlice([]float32{1}, 1)
		h1 := c.IAllReduceSumQ(quant.None, x)
		h2 := c.IAllReduceSumQ(quant.None, x)
		h2.Wait()
		h1.Wait()
	})
}

// TestRunPanicCancelsGroup is the deadlock regression: one rank panicking
// before it posts its sends must not leave the remaining ranks blocked
// forever on their receives. Run cancels the group, the peers abort, and
// the re-raised panic names the originating rank.
func TestRunPanicCancelsGroup(t *testing.T) {
	const n = 4
	comms := NewGroup(n)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Run(comms, func(c *Comm) {
			if c.Rank() == 2 {
				panic("boom before sending")
			}
			// Every other rank enters a collective whose rank-2 payload
			// never arrives; pre-refactor this deadlocked.
			c.IAllReduceSumQ(quant.None, tensor.FromSlice([]float32{1}, 1)).Wait()
		})
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("Run returned without panicking")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "rank 2") || !strings.Contains(msg, "boom before sending") {
			t.Fatalf("panic should name rank 2 and the original message: %v", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked after a rank panic")
	}
}

// TestTrafficCountersConcurrentRead polls the traffic counters while ranks
// are still sending; under -race this verifies the atomic snapshot the
// counters promise.
func TestTrafficCountersConcurrentRead(t *testing.T) {
	const n = 4
	comms := NewGroup(n)
	var running atomic.Bool
	running.Store(true)
	go func() {
		defer running.Store(false)
		Run(comms, func(c *Comm) {
			x := tensor.FromSlice([]float32{float32(c.Rank())}, 1)
			for i := 0; i < 200; i++ {
				c.IAllReduceSumQ(quant.None, x).Wait()
			}
		})
	}()
	offDiagonal := func() int64 {
		intra, _ := SplitByHost(TrafficMatrix(comms), n) // one host: every off-diagonal byte
		return intra
	}
	var last int64
	for running.Load() {
		total := offDiagonal()
		if total < last {
			t.Fatalf("traffic went backwards: %d -> %d", last, total)
		}
		last = total
	}
	// 200 rounds, 4 bytes per payload, n-1 off-diagonal peers per rank.
	if got, want := offDiagonal(), int64(200*4*n*(n-1)); got != want {
		t.Fatalf("final off-diagonal traffic = %d, want %d", got, want)
	}
}

// TestTimesCounters: a rank that posts and immediately computes before
// waiting must record hidden time covering the compute window, and ranks
// blocked on a deliberately slow peer must record exposed time.
func TestTimesCounters(t *testing.T) {
	const n = 2
	comms := NewGroup(n)
	Run(comms, func(c *Comm) {
		if c.Rank() == 1 {
			time.Sleep(20 * time.Millisecond) // slow rank: posts late
		}
		h := c.IAllReduceSumQ(quant.None, tensor.FromSlice([]float32{1}, 1))
		if c.Rank() == 0 {
			time.Sleep(5 * time.Millisecond) // overlapped "compute"
		}
		h.Wait()
	})
	e0, h0 := comms[0].Times()
	if h0 < 5*time.Millisecond {
		t.Fatalf("rank 0 hidden %v, want >= 5ms of overlap window", h0)
	}
	if e0 < 5*time.Millisecond {
		// Rank 1 posted ~20ms late and rank 0 only hid 5ms of it; the rest
		// must show up as exposed blocking time.
		t.Fatalf("rank 0 exposed %v, want >= 5ms of blocking on the slow peer", e0)
	}
	exposed, hidden := GroupTimes(comms)
	if exposed < e0 || hidden < h0 {
		t.Fatalf("GroupTimes (%v, %v) must include rank 0's (%v, %v)", exposed, hidden, e0, h0)
	}
}

// TestAllGatherBatchMatchesPerTensor: the batched collective must deliver,
// per source and per slot, exactly what b separate AllGathers would —
// including over the quantized wire, where each tensor keeps its own row
// structure.
func TestAllGatherBatchMatchesPerTensor(t *testing.T) {
	const n, b = 4, 3
	mk := func(rank, i int) *tensor.Tensor {
		return tensor.FromSlice([]float32{float32(rank) + 0.25*float32(i), -float32(i), 1.5}, 3)
	}
	for _, s := range []quant.Scheme{quant.None, quant.FP16, quant.INT8} {
		ref := make([][][]*tensor.Tensor, n) // [rank][i][src]
		got := make([][][]*tensor.Tensor, n) // [rank][src][i]
		comms := NewGroup(n)
		Run(comms, func(c *Comm) {
			r := c.Rank()
			ref[r] = make([][]*tensor.Tensor, b)
			for i := 0; i < b; i++ {
				ref[r][i] = c.IAllGatherQ(s, mk(r, i)).Wait()
			}
		})
		comms2 := NewGroup(n)
		Run(comms2, func(c *Comm) {
			r := c.Rank()
			xs := make([]*tensor.Tensor, b)
			for i := 0; i < b; i++ {
				xs[i] = mk(r, i)
			}
			got[r] = c.IAllGatherBatchQ(s, xs).Wait()
		})
		for r := 0; r < n; r++ {
			for src := 0; src < n; src++ {
				for i := 0; i < b; i++ {
					if !got[r][src][i].Equal(ref[r][i][src]) {
						t.Fatalf("%s rank %d: batch slot %d from src %d differs from per-tensor AllGather", s, r, i, src)
					}
				}
			}
		}
		// One message per (src, dst) pair, charged at the summed wire size.
		m := TrafficMatrix(comms2)
		ref0 := TrafficMatrix(comms)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if m[src][dst] != ref0[src][dst] {
					t.Fatalf("%s: batched traffic [%d][%d]=%d differs from per-tensor %d",
						s, src, dst, m[src][dst], ref0[src][dst])
				}
			}
		}
	}
}

// TestRunLinkedCancelsLinkedGroups: the SPTT-shaped failure — a rank panics
// while its peers are blocked on a DIFFERENT group's receive. RunLinked
// must cancel the linked groups too, or those peers sleep forever.
func TestRunLinkedCancelsLinkedGroups(t *testing.T) {
	const n = 2
	world := NewGroup(n)
	sub := NewGroup(n)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		RunLinked(world, [][]*Comm{sub}, func(c *Comm) {
			if c.Rank() == 0 {
				panic("boom on the primary group")
			}
			// Rank 1 blocks on the sub-group, where rank 0's contribution
			// will never arrive.
			sub[c.Rank()].IAllReduceSumQ(quant.None, tensor.FromSlice([]float32{1}, 1)).Wait()
		})
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("RunLinked returned without panicking")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "rank 0") {
			t.Fatalf("panic should name rank 0: %v", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunLinked deadlocked on a linked-group receive")
	}
}
