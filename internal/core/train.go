package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"iam/internal/guard/faultinject"
	"iam/internal/nn"
	"iam/internal/vecmath"
)

// Data-parallel joint training (§4.3) with a bit-deterministic trajectory.
//
// Every mini-batch is cut into fixed-size shards of trainShardRows rows.
// Each shard runs encode → forward → cross-entropy → backward on its own
// pooled (nn.Session, gradient buffer) pair, Config.TrainWorkers goroutines
// stride over the shards, and the per-shard gradients are reduced into one
// master accumulator strictly in shard order before a single AdamStep.
//
// The determinism argument has three legs:
//  1. The shard plan is a function of the batch size alone — never of the
//     worker count — so the same rows always land in the same shards.
//  2. Shards share no mutable state: sessions, gradient buffers and wildcard
//     RNG streams are shard-private, and each row's mask stream is keyed by
//     (seed, epoch, position-in-epoch), not by draw order.
//  3. The reduction runs in shard order 0..S−1 and the optimizer steps once,
//     so the summed gradient is the same floating-point expression no matter
//     which goroutine finished first.
// Together these make the whole training trajectory bit-identical for every
// TrainWorkers setting — the training-side twin of the serving contract in
// serve.go, enforced by core/determinism_test.go.

// trainShardRows is the fixed shard height. It must not depend on the worker
// count (leg 1 above). 32 rows keep a shard's forward/backward large enough
// to amortize dispatch yet small enough that a default 256-row batch yields
// 8 shards of parallelism.
const trainShardRows = 32

// trainWorkerCount resolves cfg.TrainWorkers against the number of shards a
// full batch produces: ≤0 means inline (negative first expands to
// GOMAXPROCS), and extra workers beyond the shard count would just idle.
func (m *Model) trainWorkerCount(maxShards int) int {
	nw := m.cfg.TrainWorkers
	if nw < 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw < 1 {
		nw = 1
	}
	if nw > maxShards {
		nw = maxShards
	}
	return nw
}

// maskSeed derives the splitmix64 state of one row's wildcard-mask stream
// from (model seed, epoch, position-in-epoch). Like PositionSeed on the
// serving side, the stream is a pure function of the schedule — not of batch
// composition, shard boundaries or execution order — which is also what
// makes checkpoint resume replay exactly the masks of an uninterrupted run.
func maskSeed(seed int64, epoch, row int) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(epoch)+1)
	z += 0xbf58476d1ce4e5b9 * (uint64(row) + 1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix64 is an allocation-free value-type PRNG (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators"). One lives inline in
// every shard, reseeded per row, so mask generation neither allocates nor
// serializes the shard fan-out the way the old shared *rand.Rand did.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n) for 0 < n ≪ 2⁶⁴ by reduction; the
// modulo bias (< n/2⁶⁴) is immaterial for column-count-sized draws.
func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// trainShard is one shard's private execution state: a session (which owns
// its gradient accumulator), the loss-gradient buffer, encode/mask scratch
// and the wildcard RNG. A shard is touched by exactly one goroutine per
// batch — shard s belongs to worker s mod nw — so none of this needs locks.
type trainShard struct {
	sess    *nn.Session
	grads   *nn.Grads // the session's accumulator, materialized at build time
	dLogits *vecmath.Matrix
	dlView  vecmath.Matrix // reusable view header over dLogits
	inputs  [][]int
	targets [][]int
	maskIdx []int
	rng     splitmix64
	intn    func(n int) int // bound to &rng once; avoids per-row closures

	nll float64 // shard NLL of the current batch (NaN/Inf marks poison)
	ok  bool    // backward ran; this shard's grads participate in the reduce
	err error   // encode failure, reported after the join
}

// trainEngine owns the pooled shard states and the master gradient buffer of
// one trainJoint run. All engine state is confined to the training loop,
// which already runs every batch under the model write lock (m.mu).
type trainEngine struct {
	m      *Model
	nw     int // executor width (resolved TrainWorkers)
	shards []*trainShard
	master *nn.Grads   // fixed-order reduction target fed to AdamStep
	srcs   []*nn.Grads // per-batch reduce argument scratch
	// wg joins both per-batch fan-outs (GMM columns, then AR shards — the
	// phases are sequential, so one group suffices). It lives on the engine
	// because a `var wg` local is moved to the heap by the closure captures,
	// a fresh allocation every batch that `-gcflags=-m=2` flagged inside
	// this iam:noalloc region (cmd/noalloccheck).
	wg sync.WaitGroup

	gmmCols []int       // indices of kindGMM columns, in column order
	gmmVals [][]float64 // per-GMM-column gather scratch (satellite: was a per-batch alloc)
	gmmLoss []float64   // per-GMM-column batch loss, summed in column order
}

func (m *Model) newTrainEngine() *trainEngine {
	cfg := m.cfg
	nAR := len(m.arm.Cards)
	maxShards := (cfg.BatchSize + trainShardRows - 1) / trainShardRows
	eng := &trainEngine{
		m:      m,
		nw:     m.trainWorkerCount(maxShards),
		master: m.arm.Net.NewGrads(),
		srcs:   make([]*nn.Grads, maxShards),
	}
	for s := 0; s < maxShards; s++ {
		sh := &trainShard{
			sess:    m.arm.Net.NewSession(trainShardRows),
			dLogits: vecmath.NewMatrix(trainShardRows, logitDim(m.arm)),
			inputs:  makeRows(trainShardRows, nAR),
			targets: makeRows(trainShardRows, nAR),
			maskIdx: make([]int, nAR),
		}
		// Materialize the session's lazy gradient accumulator here so the
		// per-batch hot loop never takes the first-use allocation path.
		sh.grads = sh.sess.Grads()
		sh.intn = sh.rng.intn
		eng.shards = append(eng.shards, sh)
	}
	for ci := range m.cols {
		if m.cols[ci].kind == kindGMM {
			eng.gmmCols = append(eng.gmmCols, ci)
			eng.gmmVals = append(eng.gmmVals, make([]float64, cfg.BatchSize))
		}
	}
	eng.gmmLoss = make([]float64, len(eng.gmmCols))
	return eng
}

// gmmStep runs one SGD step of GMM column gi on the current batch and parks
// the batch-mean loss in its column slot.
//
// Trainers and loss slots are column-disjoint; the caller sums the losses
// in column order.
func (eng *trainEngine) gmmStep(gi int, batchIdx []int) {
	ci := eng.gmmCols[gi]
	vals := eng.gmmVals[gi][:len(batchIdx)]
	col := eng.m.table.Columns[ci].Floats
	for i, ri := range batchIdx {
		vals[i] = col[ri]
	}
	eng.gmmLoss[gi] = eng.m.cols[ci].trainer.Step(vals)
}

// runShard executes shard s of the current batch: encode its rows against
// the (already stepped) GMM assignments, draw wildcard masks from the
// per-row streams, forward, cross-entropy and — unless the loss came back
// non-finite — backward into the shard's own gradient accumulator.
//
// iam:noalloc
func (eng *trainEngine) runShard(s, epoch, startRow int, batchIdx []int) {
	m := eng.m
	sh := eng.shards[s]
	sh.err = nil
	sh.ok = false
	sh.nll = 0
	lo := s * trainShardRows
	hi := lo + trainShardRows
	if hi > len(batchIdx) {
		hi = len(batchIdx)
	}
	rows := batchIdx[lo:hi]
	net := m.arm.Net
	for i, ri := range rows {
		if err := m.encodeRow(ri, sh.targets[i]); err != nil {
			sh.err = err
			return
		}
		copy(sh.inputs[i], sh.targets[i])
		sh.rng.s = maskSeed(m.cfg.Seed, epoch, startRow+lo+i)
		nn.MaskColumns(sh.inputs[i], sh.maskIdx, net, sh.intn)
	}
	b := len(rows)
	sh.sess.Forward(sh.inputs[:b])
	dl := vecmath.ViewInto(&sh.dlView, sh.dLogits, b)
	sh.nll = sh.sess.CrossEntropyGrad(sh.targets[:b], dl)
	if math.IsNaN(sh.nll) || math.IsInf(sh.nll, 0) {
		return // poisoned logits: report the NaN upward, skip the backward
	}
	sh.sess.ZeroGrad()
	sh.sess.Backward(dl)
	sh.ok = true
}

// shardWorker is the goroutine body of the AR shard fan-out: worker w runs
// shards w, w+nw, w+2nw, … of the current batch and signals the engine's
// WaitGroup when its chain is done.
//
// Sessions and gradient buffers are shard-private; the caller reduces shard
// gradients strictly in shard order before the single optimizer step.
func (eng *trainEngine) shardWorker(w, nw, nShards, epoch, startRow int, batchIdx []int) {
	defer eng.wg.Done()
	for s := w; s < nShards; s += nw {
		eng.runShard(s, epoch, startRow, batchIdx)
	}
}

// runBatch performs one joint optimizer step (Eq. 6) on batchIdx: GMM SGD
// steps first (assignments must move before the batch is re-encoded, like
// the serial loop always did), then the sharded AR step. It returns the
// batch's summed GMM and AR NLL contributions and whether the step diverged
// (non-finite loss or exploding gradient — the update is then skipped).
// The caller holds m.mu on the write side.
//
// iam:noalloc
func (eng *trainEngine) runBatch(epoch, startRow int, batchIdx []int, lrScale float64) (gmmNLL, arNLL float64, diverged bool, err error) {
	m := eng.m
	cfg := m.cfg
	b := len(batchIdx)

	// Phase 1: one SGD step per GMM column (§4.2). Columns are independent
	// (disjoint trainers, disjoint loss slots), so they fan out when workers
	// are configured; losses are summed in column order afterwards, making
	// the epoch loss independent of goroutine scheduling — the serial loop's
	// mutex-ordered accumulation was not.
	if eng.nw <= 1 || len(eng.gmmCols) == 1 {
		for gi := range eng.gmmCols {
			eng.gmmStep(gi, batchIdx)
		}
	} else if len(eng.gmmCols) > 0 {
		for gi := 1; gi < len(eng.gmmCols); gi++ {
			eng.wg.Add(1)
			//lint:ignore noalloc deliberate per-batch fan-out; one goroutine per GMM column amortizes its spawn over a full SGD step
			go func(gi int) {
				defer eng.wg.Done()
				eng.gmmStep(gi, batchIdx)
			}(gi)
		}
		eng.gmmStep(0, batchIdx)
		eng.wg.Wait()
	}
	for _, l := range eng.gmmLoss {
		gmmNLL += l * float64(b)
	}

	// Phase 2: shard fan-out. Worker w owns shards w, w+nw, w+2nw, … — a
	// static assignment, so no two goroutines ever touch the same shard.
	nShards := (b + trainShardRows - 1) / trainShardRows
	nw := eng.nw
	if nw > nShards {
		nw = nShards
	}
	if nw <= 1 {
		for s := 0; s < nShards; s++ {
			eng.runShard(s, epoch, startRow, batchIdx)
		}
	} else {
		// nw is passed as an argument: a captured local that is assigned in
		// this function would be moved to the heap once per batch.
		for w := 1; w < nw; w++ {
			eng.wg.Add(1)
			//lint:ignore noalloc deliberate per-batch fan-out; one goroutine per worker amortizes its spawn over a full shard chain
			go eng.shardWorker(w, nw, nShards, epoch, startRow, batchIdx)
		}
		for s := 0; s < nShards; s += nw {
			eng.runShard(s, epoch, startRow, batchIdx)
		}
		eng.wg.Wait()
	}

	// Phase 3: join, fixed-order reduce, single optimizer step. Shard NLLs
	// and gradients are folded strictly in shard order. srcs is a fixed
	// build-time slice written by index: no append growth, and the shard
	// accumulators were materialized at engine construction, so this loop
	// performs no heap allocation.
	nOK := 0
	for s := 0; s < nShards; s++ {
		sh := eng.shards[s]
		if sh.err != nil {
			return 0, 0, false, sh.err
		}
		arNLL += sh.nll
		if sh.ok {
			eng.srcs[nOK] = sh.grads
			nOK++
		}
	}
	if !isFinite(arNLL) || nOK != nShards {
		return gmmNLL, arNLL, true, nil
	}
	net := m.arm.Net
	net.ReduceGrads(eng.master, eng.srcs[:nOK]...)
	if cfg.MaxGradNorm > 0 {
		if gn := eng.master.Norm(); gn > cfg.MaxGradNorm || math.IsNaN(gn) {
			return gmmNLL, arNLL, true, nil
		}
	}
	net.AdamStep(cfg.LR*lrScale, 1/float64(b), eng.master)
	return gmmNLL, arNLL, false, nil
}

// trainJoint runs the end-to-end loop of §4.3: every mini-batch first takes
// one SGD step on each GMM (loss_GMM) and then one data-parallel AR step on
// the freshly re-encoded batch (loss_AR), so all parameters follow Eq. 6
// together. See the package comment above for the sharding scheme and the
// determinism contract.
//
// The loop is fault tolerant. A divergence watchdog validates every epoch:
// NaN/Inf GMM or AR loss (or an exploding AR gradient when MaxGradNorm is
// set) restores the last good epoch's parameters and optimizer state, halves
// the learning rates and retries, up to the retry budget. With a checkpoint
// path configured, each completed epoch is persisted atomically; cancelling
// ctx discards the partial epoch, flushes a checkpoint of the last completed
// one, and returns promptly.
func (m *Model) trainJoint(ctx context.Context, startEpoch int, lrScale float64, retries int) error {
	cfg := m.cfg
	n := m.table.NumRows()
	nAR := len(m.arm.Cards)
	eng := m.newTrainEngine()

	if startEpoch == 0 {
		// Calibrate every output head at the (initial-assignment) log
		// marginal frequencies; assignments drift slightly as the GMMs train
		// jointly, but rare components start orders of magnitude closer to
		// truth. Skipped on resume: the checkpoint carries trained heads.
		initRows := makeRows(n, nAR)
		for ri := 0; ri < n; ri++ {
			if err := m.encodeRow(ri, initRows[ri]); err != nil {
				return err
			}
		}
		m.mu.Lock()
		m.arm.InitMarginals(initRows)
		m.mu.Unlock()
	}

	budget := m.retryBudget()
	m.mu.Lock()
	m.setGMMLR(cfg.GMMLR * lrScale)
	good := m.captureJoint()
	m.mu.Unlock()
	checkpoint := func(nextEpoch int) error {
		if cfg.CheckpointPath == "" {
			return nil
		}
		return m.writeCheckpoint(cfg.CheckpointPath, nextEpoch, lrScale, retries)
	}
	for e := startEpoch; e < cfg.Epochs; e++ {
		erng := epochRNG(cfg.Seed, e)
		idx := erng.Perm(n)
		var arNLL, gmmNLL float64
		var seen int
		diverged := false
		for start := 0; start < n; start += cfg.BatchSize {
			if ctx.Err() != nil {
				// Discard the partial epoch so the checkpoint sits exactly
				// on an epoch boundary; resuming replays epoch e in full.
				// (checkpoint → Save takes the write lock itself, so the
				// restore must release it first.)
				m.mu.Lock()
				err := m.restoreJoint(good)
				m.mu.Unlock()
				if err != nil {
					return err
				}
				if err := checkpoint(e); err != nil {
					return err
				}
				return ctx.Err()
			}
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			batchIdx := idx[start:end]

			// One optimizer step mutates GMM and AR parameters, so the whole
			// mini-batch body holds the write lock; concurrent estimators
			// (OnEpoch goroutines, external callers) interleave between
			// batches on the read side.
			m.mu.Lock()
			g, a, dv, err := eng.runBatch(e, start, batchIdx, lrScale)
			m.mu.Unlock()
			if err != nil {
				return err
			}
			if dv {
				diverged = true // stepping on poisoned logits is pointless
				break
			}
			gmmNLL += g
			arNLL += a
			seen += len(batchIdx)
		}
		gmmMean, arMean := math.NaN(), math.NaN()
		if seen > 0 {
			gmmMean, arMean = gmmNLL/float64(seen), arNLL/float64(seen)
		}
		if faultinject.Fires("core.train.nanloss") {
			arMean = math.NaN()
		}
		if diverged || !isFinite(gmmMean) || !isFinite(arMean) {
			m.mu.Lock()
			err := m.restoreJoint(good)
			m.mu.Unlock()
			if err != nil {
				return err
			}
			if retries >= budget {
				return fmt.Errorf("core: joint training diverged at epoch %d (gmm=%v ar=%v) after %d rollback(s)",
					e, gmmMean, arMean, retries)
			}
			retries++
			lrScale /= 2
			m.mu.Lock()
			m.setGMMLR(cfg.GMMLR * lrScale)
			m.mu.Unlock()
			e-- // retry the same epoch from the last good state
			continue
		}
		m.GMMLosses = append(m.GMMLosses, gmmMean)
		m.ARLosses = append(m.ARLosses, arMean)
		m.invalidateMasses()
		good = m.captureJoint()
		if err := checkpoint(e + 1); err != nil {
			return err
		}
		if cfg.OnEpoch != nil && !cfg.OnEpoch(e, m, gmmMean, arMean) {
			return nil
		}
	}
	return nil
}
