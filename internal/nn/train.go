package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"iam/internal/guard/faultinject"
	"iam/internal/vecmath"
)

// TrainConfig controls ResMADE maximum-likelihood training.
type TrainConfig struct {
	LR        float64 // Adam learning rate; default 2e-3
	BatchSize int     // default 256
	Epochs    int     // default 10
	// Wildcard enables Naru-style wildcard-skipping training (§5.3): for
	// each tuple a uniform random subset of input columns is replaced by
	// the MASK token while targets keep the true values.
	Wildcard bool
	Seed     int64
	// OnEpoch, when non-nil, is invoked after every epoch with the mean
	// training NLL (nats/tuple); returning false stops training early.
	OnEpoch func(epoch int, nll float64) bool

	// Ctx, when non-nil, is polled between mini-batches; cancelling it
	// stops training promptly and Fit returns the losses so far together
	// with the context's error.
	Ctx context.Context
	// MaxRetries bounds the divergence watchdog's retry budget across the
	// whole run: each NaN/Inf epoch loss (or exploding gradient) rolls the
	// parameters back to the last good epoch and halves the learning rate,
	// at most this many times. 0 means the default of 3; negative disables
	// retries (the first divergence fails training).
	MaxRetries int
	// MaxGradNorm, when positive, treats any mini-batch whose gradient L2
	// norm exceeds it (or is NaN/Inf) as a divergence event.
	MaxGradNorm float64
	// StartEpoch resumes training at this epoch index (used with a state
	// restored from a checkpoint). Epoch shuffles and wildcard masks are
	// derived from (Seed, epoch) alone, so a resumed run replays exactly
	// the batches an uninterrupted run would have seen.
	StartEpoch int
	// Checkpoint, when non-nil, is called after every completed epoch with
	// the epoch index and a snapshot of the full training state; an error
	// aborts training.
	Checkpoint func(epoch int, st *TrainState) error
}

func (c *TrainConfig) fillDefaults() {
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
}

// epochRNG derives the deterministic RNG of one training epoch. Keying the
// stream by (seed, epoch) — instead of threading one RNG across epochs —
// makes checkpoint resumption exact: epoch k's shuffle and wildcard masks
// are identical whether or not the process restarted before it.
func epochRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
}

// CrossEntropyGrad computes the summed negative log-likelihood of targets
// under the session's current logits and fills dLogits with the gradient
// (softmax − onehot) for every row and column. dLogits must be B×outDim.
//
// iam:noalloc
func (s *Session) CrossEntropyGrad(targets [][]int, dLogits *vecmath.Matrix) float64 {
	n := s.net
	var nll float64
	if s.probs == nil {
		//lint:ignore noalloc lazy first-use construction; steady state reuses the session softmax buffer
		s.probs = make([]float64, maxCard(n.Cards))
	}
	probs := s.probs
	for r := 0; r < s.B; r++ {
		drow := dLogits.Row(r)
		for c := range n.Cards {
			lo, hi := n.LogitRange(c)
			logits := s.logits.Row(r)[lo:hi]
			p := probs[:n.Cards[c]]
			vecmath.Softmax(p, logits)
			tgt := targets[r][c]
			nll -= math.Log(math.Max(p[tgt], 1e-300))
			d := drow[lo:hi]
			copy(d, p)
			d[tgt] -= 1
		}
	}
	return nll
}

// NLL returns the mean negative log-likelihood (nats per tuple) of rows,
// evaluated with unmasked inputs. sess must accommodate len ≤ its max batch;
// rows are processed in chunks.
func (n *ResMADE) NLL(sess *Session, rows [][]int) float64 {
	if len(rows) == 0 {
		return 0
	}
	var total float64
	probs := make([]float64, maxCard(n.Cards))
	for start := 0; start < len(rows); start += sess.maxBatch {
		end := start + sess.maxBatch
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[start:end]
		sess.Forward(chunk)
		for r := range chunk {
			for c := range n.Cards {
				logits := sess.Logits(r, c)
				p := probs[:n.Cards[c]]
				vecmath.Softmax(p, logits)
				total -= math.Log(math.Max(p[chunk[r][c]], 1e-300))
			}
		}
	}
	return total / float64(len(rows))
}

// MaskColumns replaces a uniform-size random subset of in's codes with the
// network's MASK tokens (Naru wildcard-skipping training). idx is reusable
// caller scratch of length NumCols; intn draws a uniform int in [0, n). The
// subset size k is drawn first, then k distinct columns are chosen by a
// partial Fisher–Yates shuffle over idx — equivalent in distribution to
// rand.Perm(nCols)[:k] but allocation-free, and usable with any uniform
// integer source (the data-parallel trainer feeds it per-row splitmix64
// streams so mask generation no longer serializes the batch loop).
func MaskColumns(in, idx []int, n *ResMADE, intn func(int) int) {
	nc := len(idx)
	k := intn(nc + 1)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + intn(nc-i)
		idx[i], idx[j] = idx[j], idx[i]
		c := idx[i]
		in[c] = n.MaskToken(c)
	}
}

func maxCard(cards []int) int {
	m := 0
	for _, c := range cards {
		if c > m {
			m = c
		}
	}
	return m
}

// Fit trains the network on encoded rows by mini-batch Adam on the
// autoregressive cross-entropy (Eq. 3) and returns per-epoch mean NLLs.
//
// A divergence watchdog guards every epoch: a NaN/Inf epoch loss (or, with
// MaxGradNorm set, an exploding mini-batch gradient) rolls the parameters and
// optimizer state back to the last good epoch, halves the learning rate and
// retries, up to MaxRetries times across the run. Cancelling cfg.Ctx stops
// training between batches.
func (n *ResMADE) Fit(data [][]int, cfg TrainConfig) ([]float64, error) {
	cfg.fillDefaults()
	sess := n.NewSession(cfg.BatchSize)
	dLogits := vecmath.NewMatrix(cfg.BatchSize, n.outDim)

	inputs := make([][]int, cfg.BatchSize)
	inputBacking := make([]int, cfg.BatchSize*n.NumCols())
	for i := range inputs {
		inputs[i] = inputBacking[i*n.NumCols() : (i+1)*n.NumCols()]
	}
	targets := make([][]int, 0, cfg.BatchSize)
	maskIdx := make([]int, n.NumCols()) // wildcard column-subset scratch

	var losses []float64
	lr := cfg.LR
	retries := 0
	good := n.CaptureState() // last known-good state (pre-training initially)
	for e := cfg.StartEpoch; e < cfg.Epochs; e++ {
		erng := epochRNG(cfg.Seed, e)
		idx := erng.Perm(len(data))
		var epochNLL float64
		var seen int
		diverged := false
		for start := 0; start < len(idx); start += cfg.BatchSize {
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
				return losses, cfg.Ctx.Err()
			}
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			b := end - start
			targets = targets[:0]
			for bi, di := range idx[start:end] {
				row := data[di]
				targets = append(targets, row)
				in := inputs[bi]
				copy(in, row)
				if cfg.Wildcard {
					// Mask a uniform-size random subset of input columns,
					// chosen by a partial Fisher–Yates over the reusable
					// index scratch (erng.Perm would allocate two slices
					// per row per batch).
					MaskColumns(in, maskIdx, n, erng.Intn)
				}
			}
			sess.Forward(inputs[:b])
			dl := vecmath.View(dLogits, b)
			nll := sess.CrossEntropyGrad(targets, dl)
			if math.IsNaN(nll) || math.IsInf(nll, 0) {
				diverged = true // further batches would train on poisoned logits
				break
			}
			epochNLL += nll
			seen += b
			sess.ZeroGrad()
			sess.Backward(dl)
			if cfg.MaxGradNorm > 0 {
				if gn := sess.Grads().Norm(); gn > cfg.MaxGradNorm || math.IsNaN(gn) {
					diverged = true // skip the update that would apply it
					break
				}
			}
			n.AdamStep(lr, 1/float64(b), sess.Grads())
		}
		mean := math.NaN()
		if seen > 0 {
			mean = epochNLL / float64(seen)
		}
		if faultinject.Fires("nn.fit.nanloss") {
			mean = math.NaN()
		}
		if diverged || math.IsNaN(mean) || math.IsInf(mean, 0) {
			if restoreErr := n.RestoreState(good); restoreErr != nil {
				return losses, restoreErr
			}
			if retries >= cfg.MaxRetries {
				return losses, fmt.Errorf("nn: training diverged at epoch %d (loss %v) after %d rollback(s)", e, mean, retries)
			}
			retries++
			lr /= 2
			e-- // retry the same epoch from the last good state
			continue
		}
		losses = append(losses, mean)
		good = n.CaptureState()
		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint(e, good); err != nil {
				return losses, fmt.Errorf("nn: checkpoint after epoch %d: %w", e, err)
			}
		}
		if cfg.OnEpoch != nil && !cfg.OnEpoch(e, mean) {
			break
		}
	}
	return losses, nil
}

// Dist fills out with the softmax distribution P(col | inputs of batch row r)
// from the last Forward. out must have length Cards[col].
func (s *Session) Dist(r, col int, out []float64) {
	if s.samplingCol >= 0 {
		if col != s.samplingCol {
			//lint:ignore nopanic cold path; asking for another column after a restricted forward is a programmer error
			panic(fmt.Sprintf("nn: Dist(col=%d) after ForwardSampling(col=%d)", col, s.samplingCol))
		}
		vecmath.Softmax(out, s.logitsPV.Row(r))
		return
	}
	vecmath.Softmax(out, s.Logits(r, col))
}
