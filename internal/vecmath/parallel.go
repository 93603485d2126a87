package vecmath

import (
	"runtime"
	"sync"
)

// Intra-operation parallelism for the matmul kernels.
//
// The kernels in kernels.go split their output into contiguous row blocks;
// blocks above a size cutoff are handed to short-lived helper goroutines
// admitted by a package-level semaphore, so the total number of extra
// goroutines across all concurrent matmuls never exceeds the configured
// budget. When no budget is free a block simply runs inline on the caller —
// the pool bounds concurrency, it never queues or blocks.
//
// Block partitioning only splits the *output* rows, never a reduction
// dimension, so every output element is accumulated by exactly one goroutine
// in exactly the order the serial kernel uses: results are bit-identical for
// every Parallelism setting.

var parMu sync.Mutex

// parMax is the worker budget: the maximum number of goroutines (including
// the caller) that may cooperate on matmuls at any instant.
var parMax int // guarded by parMu

// parSem admits helper goroutines; capacity parMax-1 (nil when parMax <= 1).
// Spawn sites capture the channel value they acquired from, so swapping it
// under parMu while workers are in flight is safe.
var parSem chan struct{} // guarded by parMu

func init() {
	Parallelism(runtime.GOMAXPROCS(0))
}

// Parallelism sets the matmul worker budget to n (n ≥ 1; 1 disables helper
// goroutines entirely, making every kernel run serially on the caller) and
// returns the previous budget. n ≤ 0 leaves the budget unchanged and just
// reports it. Results are bit-identical under every setting; the knob trades
// single-operation latency against oversubscription when callers already
// parallelize above the kernels (e.g. the per-query estimate workers).
func Parallelism(n int) int {
	parMu.Lock()
	defer parMu.Unlock()
	prev := parMax
	if n >= 1 {
		parMax = n
		if n > 1 {
			parSem = make(chan struct{}, n-1)
		} else {
			parSem = nil
		}
	}
	return prev
}

// targetChunkFlops is the approximate number of multiply-adds one helper
// goroutine should amortize its spawn cost over (~10-20µs of work).
const targetChunkFlops = 1 << 16

// parPlan decides how to split n output rows whose per-row cost is rowWork
// multiply-adds: it returns the number of workers (1 = run serially, without
// allocating) and the chunk size in rows. The serial decision is taken
// before any closure is formed so the single-threaded hot path stays
// allocation-free.
func parPlan(n, rowWork int) (nw, chunk int, sem chan struct{}) {
	parMu.Lock()
	maxW := parMax
	sem = parSem
	parMu.Unlock()
	if maxW <= 1 || sem == nil || n <= 1 {
		return 1, n, nil
	}
	minRows := 1
	if rowWork > 0 {
		minRows = targetChunkFlops / rowWork
		if minRows < 1 {
			minRows = 1
		}
	}
	nw = n / minRows
	if nw > maxW {
		nw = maxW
	}
	if nw <= 1 {
		return 1, n, nil
	}
	chunk = (n + nw - 1) / nw
	return nw, chunk, sem
}

// Do runs task(0) … task(n−1), handing all but the last task to helper
// goroutines when the shared worker budget has capacity and running the rest
// inline on the caller. It returns once every task has completed. Tasks are
// never split or reordered relative to their own work, so as long as each
// task touches disjoint state (the caller's contract — e.g. one network
// layer's parameters per task), results are bit-identical for every
// Parallelism setting. With a budget of 1 the loop runs inline without
// forming a single closure, keeping serial callers allocation-free.
//
// iam:noalloc
func Do(n int, task func(i int)) {
	parMu.Lock()
	maxW := parMax
	sem := parSem
	parMu.Unlock()
	if maxW <= 1 || sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	//lint:ignore noalloc wg is moved to the heap by the helper captures, but only the parallel path reaches this decl; the serial steady state returned above
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			//lint:ignore noalloc parallel-path spawn, only reached when the worker budget exceeds 1; the serial steady state runs the inline loop above
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				task(i)
			}(i)
		default:
			// No budget free: run this task on the caller.
			task(i)
		}
	}
	task(n - 1)
	wg.Wait()
}

// fanOut runs body over [0, n) in chunks, handing all but the last chunk to
// helper goroutines when the semaphore has budget and running the rest
// inline. Only reached on the parallel path, so the closure allocation is
// paid exclusively by large operations.
func fanOut(n, chunk int, sem chan struct{}, body func(lo, hi int)) {
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if hi < n {
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					defer func() { <-sem }()
					body(lo, hi)
				}(lo, hi)
				continue
			default:
				// No budget free: run this chunk on the caller.
			}
		}
		body(lo, hi)
	}
	wg.Wait()
}
