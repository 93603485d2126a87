package ar

import "math/rand"

// EstimateScratch owns every buffer one progressive-sampling run needs, so a
// long-lived caller (one estimate worker) can run EstimateBatchScratch with
// zero per-call heap allocation in steady state. Buffers grow on demand and
// are retained across calls; a scratch is NOT safe for concurrent use —
// create one per worker, next to its nn.Session.
type EstimateScratch struct {
	rows    [][]int      // per-sample code rows, re-aimed into backing each call
	backing []int        // contiguous storage behind rows
	probs   []float64    // per-sample running path probability
	subPos  []int        // sample index → row index in the forwarded sub-batch (-1 = dead)
	dist    []float64    // per-code conditional, reused across memo builds
	w       []float64    // per-code admission weights, reused across memo builds
	subRows [][]int      // forwarded rows of the current column's sub-batch
	subQs   []int        // query indices constraining the current column
	out     []float64    // per-query estimates returned to the caller
	varOut  []float64    // per-query variance of the mean (see Variances)
	rngs    []*rand.Rand // per-query sampling streams, reseeded by seed

	// Prefix-dedup state. dedup is the open-addressing table that maps a
	// sample's codes on the columns before the current one to its forwarded
	// row (stored +1, 0 = empty). The memo holds, per distinct forwarded row
	// of the current query, the prefix sums of the weighted conditional
	// (memoCDF) and its mass; memoSlot maps a forwarded row to its memo
	// slot, valid only while memoStamp matches epoch, so moving on to the
	// next query clears nothing.
	dedup     []int32
	memoStamp []uint32
	memoSlot  []int32
	memoCDF   []float64
	memoMass  []float64
	epoch     uint32
}

// NewEstimateScratch returns an empty scratch; buffers are sized lazily by
// the first estimate call.
func NewEstimateScratch() *EstimateScratch { return &EstimateScratch{} }

// ensure sizes every buffer for nq queries of numSamples samples over nCols
// columns with maximum cardinality maxCard, growing (never shrinking) the
// retained capacity, and re-aims the per-sample row slices.
func (sc *EstimateScratch) ensure(nq, numSamples, nCols, maxCard int) {
	total := nq * numSamples
	if cap(sc.backing) < total*nCols {
		sc.backing = make([]int, total*nCols)
	}
	sc.backing = sc.backing[:total*nCols]
	if cap(sc.rows) < total {
		sc.rows = make([][]int, total)
	}
	sc.rows = sc.rows[:total]
	for i := range sc.rows {
		sc.rows[i] = sc.backing[i*nCols : (i+1)*nCols]
	}
	if cap(sc.probs) < total {
		sc.probs = make([]float64, total)
	}
	sc.probs = sc.probs[:total]
	if cap(sc.subPos) < total {
		sc.subPos = make([]int, total)
	}
	sc.subPos = sc.subPos[:total]
	if cap(sc.dist) < maxCard {
		sc.dist = make([]float64, maxCard)
		sc.w = make([]float64, maxCard)
	}
	sc.dist = sc.dist[:maxCard]
	sc.w = sc.w[:maxCard]
	if cap(sc.subRows) < total {
		sc.subRows = make([][]int, 0, total)
	}
	sc.subRows = sc.subRows[:0]
	if cap(sc.subQs) < nq {
		sc.subQs = make([]int, 0, nq)
	}
	sc.subQs = sc.subQs[:0]
	if cap(sc.out) < nq {
		sc.out = make([]float64, nq)
	}
	sc.out = sc.out[:nq]
	if cap(sc.varOut) < nq {
		sc.varOut = make([]float64, nq)
	}
	sc.varOut = sc.varOut[:nq]
	if n := dedupSize(total); cap(sc.dedup) < n {
		sc.dedup = make([]int32, n)
	}
	if cap(sc.memoStamp) < total {
		// Fresh stamps are 0 and epoch never is, so no slot reads as filled.
		sc.memoStamp = make([]uint32, total)
		sc.memoSlot = make([]int32, total)
	}
	sc.memoStamp = sc.memoStamp[:total]
	sc.memoSlot = sc.memoSlot[:total]
	if cap(sc.memoCDF) < numSamples*maxCard {
		sc.memoCDF = make([]float64, numSamples*maxCard)
	}
	if cap(sc.memoMass) < numSamples {
		sc.memoMass = make([]float64, numSamples)
	}
}

// dedupSize is the dedup table length for n keys: the smallest power of two
// ≥ 2n, so the table stays at most half full and linear probes stay short.
func dedupSize(n int) int {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return size
}

// nextEpoch starts a fresh memo generation: every memoSlot entry filled
// under an earlier epoch reads as empty. On wraparound the stamps are
// cleared once, so a stale stamp can never alias a live epoch.
//
// iam:noalloc
func (sc *EstimateScratch) nextEpoch() uint32 {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.memoStamp[:cap(sc.memoStamp)])
		sc.epoch = 1
	}
	return sc.epoch
}

// Variances returns the per-query sample variance of the *mean* estimator
// from the last estimate run on this scratch: Var(path probabilities) / S,
// the square of the Monte-Carlo standard error progressive sampling carries
// for free. Entries for exactly answered queries (all paths identical, or a
// single sample) are 0. The returned slice aliases sc and is valid until the
// next call on sc.
func (sc *EstimateScratch) Variances() []float64 { return sc.varOut }

// Paths returns query qi's sample paths from the last estimate run on this
// scratch: the final sampled code rows (a wildcard or never-reached column
// holds its MASK token; a dead path holds 0 at the column it died on) and
// each path's probability, whose mean is the estimate. Re-forwarding the
// rows reproduces every column's conditional up to reduction order, since
// MADE masks make column c read only columns < c. Both slices alias sc and
// are valid until the next call on sc.
func (sc *EstimateScratch) Paths(qi int) (rows [][]int, probs []float64) {
	n := len(sc.probs) / len(sc.out)
	return sc.rows[qi*n : (qi+1)*n], sc.probs[qi*n : (qi+1)*n]
}

// seed reseeds one generator per query from seeds. Generators are reused
// across calls (rand.NewSource is a ~5 KiB allocation), so in steady state
// reseeding is allocation-free.
func (sc *EstimateScratch) seed(seeds []int64) {
	for qi, s := range seeds {
		if qi < len(sc.rngs) {
			sc.rngs[qi].Seed(s)
		} else {
			sc.rngs = append(sc.rngs, rand.New(rand.NewSource(s)))
		}
	}
}
