package tensor

import (
	"runtime"
	"sync"
)

// parallelKernel is the goroutine-parallel tiled backend: the default for
// the large over-arch layers of the training step and the serve predict
// path. Output rows (columns, for MatMulBT) are cut into fixed-size tiles
// and tile t is always executed by worker t % workers — deterministic tile
// ownership, and since tiles never share output elements and every tile
// runs the same serial range routine, the result is bitwise identical to
// the serial backend no matter how the scheduler interleaves the workers.
type parallelKernel struct{}

func (parallelKernel) Name() string { return "parallel" }

// parallelThreshold is the rough flop count above which a multiply fans out
// over goroutines. Small multiplies (the common case in unit tests and tiny
// models) stay on the calling goroutine to avoid scheduling cost.
const parallelThreshold = 1 << 14

// Tile sizes. MatMul/MatMulAT tiles are output rows; each streams the full
// b matrix, so modest tiles keep the fan-out balanced. MatMulBT tiles are
// btPanel output columns, so each tile packs its own panel of bᵀ once and
// runs every row against it.
const (
	tileRowsMatMul = 8
	tileSamplesPD  = 4
)

// runTiles executes body(lo, hi) over [0, units) cut into tiles of at most
// `tile` units, fanned out over workers with fixed ownership (tile t on
// worker t % workers). When the work estimate is under parallelThreshold or
// only one worker is available it degenerates to a serial loop on the
// calling goroutine.
func runTiles(units, tile, work int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	tiles := (units + tile - 1) / tile
	if work < parallelThreshold || workers <= 1 || tiles <= 1 {
		if units > 0 {
			body(0, units)
		}
		return
	}
	if workers > tiles {
		workers = tiles
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for t := w; t < tiles; t += workers {
				lo := t * tile
				hi := lo + tile
				if hi > units {
					hi = units
				}
				body(lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

func (parallelKernel) MatMul(a, b, out []float32, m, k, n int) {
	runTiles(m, tileRowsMatMul, m*n*k, func(lo, hi int) {
		matMulRows(a, b, out, k, n, lo, hi)
	})
}

func (parallelKernel) MatMulBT(a, b, out []float32, m, k, n int) {
	runTiles(n, btPanel, m*n*k, func(lo, hi int) {
		matMulBTCols(a, b, out, m, k, n, lo, hi)
	})
}

func (parallelKernel) MatMulAT(a, b, out []float32, k, m, n int) {
	runTiles(m, tileRowsMatMul, m*n*k, func(lo, hi int) {
		matMulATRows(a, b, out, k, m, n, lo, hi)
	})
}

func (parallelKernel) PairwiseDot(x, out []float32, bs, f, n int) {
	runTiles(bs, tileSamplesPD, bs*f*f*n, func(lo, hi int) {
		pairwiseDotSamples(x, out, f, n, lo, hi)
	})
}
