package main

import (
	"math"
	"sort"
	"time"
)

// percentile reads the q-quantile of sorted values with the ceil
// nearest-rank convention: the smallest sample with at least a q fraction of
// the distribution at or below it (the convention workload.Percentile uses,
// so measured and simulated latencies are read the same way).
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for even lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// beyond counts the samples strictly above v: how many steps lie past a
// percentile, the sample count that makes a tail percentile trustworthy.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rungResult is one offered-load measurement of the serving ladder.
type rungResult struct {
	Rate     float64 // offered arrivals per second
	Issued   int     // requests issued (the rung stops early on overload)
	Planned  int     // requests the rung's trace holds
	Failed   int     // Predict errors
	P99      float64 // ms, measured from each request's due time
	Backlog  int     // requests still in flight when the last one was issued
	Overload bool    // issuing stopped because the in-flight cap was reached
	LagP99   float64 // ms, the generator's p99 lag in issuing requests
}

// passes is the goodput criterion: no failures, every planned request
// issued, p99 within the limit, and a final backlog no larger than what the
// latency limit allows at this rate (Little's law: a steady queue holding
// more than rate x limit requests cannot drain within the limit).
func (r rungResult) passes(limitMs float64) bool {
	if r.Failed > 0 || r.Overload || r.Issued < r.Planned {
		return false
	}
	if r.P99 > limitMs {
		return false
	}
	return float64(r.Backlog) <= r.Rate*limitMs/1000
}

// generatorBound reports whether a failing attempt failed on the
// generator's account rather than the server's: it failed on its p99
// alone, the generator's p99 issue lag is more than share of the limit, and
// without that lag the p99 would have been within the limit. Latency is
// timed from each request's due time, so issue lag adds to it.
func (r rungResult) generatorBound(limitMs, share float64) bool {
	if r.passes(limitMs) || r.LagP99 <= share*limitMs {
		return false
	}
	r.P99 -= r.LagP99
	return r.passes(limitMs)
}

// goodput returns the highest ladder rung that passes, assuming the pass
// predicate is monotone (a rung passes only if every lower rung would): a
// binary search over the fixed ladder, so the result is always a ladder
// value and costs about log2(len) probes. A host disturbance can fail a
// rung below the true knee and cut the search short, so the rung that set
// the limit is tried once more; if it passes then, the search resumes
// above it. It returns 0 when even the lowest rung fails. next is the
// lowest rung found failing, the one that set the limit (0 when every rung
// passes). pass is called with rung indices.
func goodput(ladder []float64, pass func(i int) bool) (g, next float64) {
	lo, hi := -1, len(ladder) // lo passes (or -1), hi fails (or len)
	var failed []int          // every rung found failing, ascending once sorted
	search := func() {
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if pass(mid) {
				lo = mid
			} else {
				hi = mid
				failed = append(failed, mid)
			}
		}
	}
	search()
	if hi < len(ladder) && pass(hi) {
		lo, hi = hi, len(ladder)
		for _, f := range failed {
			if f > lo && f < hi {
				hi = f
			}
		}
		search()
	}
	if hi < len(ladder) {
		next = ladder[hi]
	}
	if lo >= 0 {
		g = ladder[lo]
	}
	return g, next
}

// batchFill replays the server's flush rule (a batch leaves when it holds
// maxBatch requests, or maxWait after its first request arrived) over
// sorted arrival times, ignoring compute. It returns the share of batches
// the timer flushed and the mean time a request waits for its batch to
// leave: what micro-batching alone adds to latency at this arrival rate.
func batchFill(at []time.Duration, maxBatch int, maxWait time.Duration) (timerShare float64, meanWaitMs float64) {
	batches, timed := 0, 0
	var wait time.Duration
	for i := 0; i < len(at); {
		deadline := at[i] + maxWait
		j := i + 1
		for j < len(at) && j-i < maxBatch && at[j] <= deadline {
			j++
		}
		leave := deadline
		if j-i == maxBatch {
			leave = at[j-1]
		} else {
			timed++
		}
		for k := i; k < j; k++ {
			wait += leave - at[k]
		}
		batches++
		i = j
	}
	if batches == 0 {
		return 0, 0
	}
	return float64(timed) / float64(batches), ms(wait) / float64(len(at))
}
