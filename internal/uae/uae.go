// Package uae implements the UAE and UAE-Q baselines (paper §6.1.2, after
// Wu & Cong, SIGMOD 2021): deep autoregressive models trained from query
// feedback. UAE-Q learns the joint distribution from (query, selectivity)
// pairs only; UAE additionally trains on data like Naru/NeuroCard and uses
// queries to fine-tune. The gradient of the squared log-error of a
// progressive-sampling estimate flows back through the per-step range
// masses: progressive sampling is made differentiable by freezing the
// sampled paths (the fixed-sample counterpart of UAE's Gumbel-softmax
// relaxation), re-forwarding the recorded rows — MADE masks guarantee the
// per-column logits are bit-identical — and backpropagating
// ∂mass/∂logit_j = p_j·(w_j − mass).
package uae

import (
	"context"
	"fmt"
	"math/rand"

	"iam/internal/ar"
	"iam/internal/dataset"
	"iam/internal/naru"
	"iam/internal/query"
	"iam/internal/vecmath"
)

// Config controls UAE training.
type Config struct {
	// Base configures the underlying Naru-style model (architecture, data
	// epochs, sampling width). For UAE-Q the data epochs are ignored.
	Base naru.Config
	// QueryEpochs is the number of passes over the training workload
	// (default 4).
	QueryEpochs int
	// QueryBatch is the number of queries per gradient step (default 16).
	QueryBatch int
	// QueryLR is the Adam learning rate of query steps (default 5e-4).
	QueryLR float64
	// TrainSamples is the progressive-sampling width used during training
	// steps (default 128 — smaller than inference width to keep training
	// affordable).
	TrainSamples int
	// Ctx optionally carries a cancellation context into the query-training
	// loop (mirrors nn.TrainConfig.Ctx); nil means context.Background().
	Ctx context.Context
}

func (c *Config) fillDefaults() {
	if c.QueryEpochs <= 0 {
		c.QueryEpochs = 4
	}
	if c.QueryBatch <= 0 {
		c.QueryBatch = 16
	}
	if c.QueryLR <= 0 {
		c.QueryLR = 5e-4
	}
	if c.TrainSamples <= 0 {
		c.TrainSamples = 128
	}
}

// Model wraps a Naru model whose weights were (partly) learned from
// queries.
type Model struct {
	*naru.Model
	name string
}

// Name implements estimator.Estimator.
func (m *Model) Name() string { return m.name }

// TrainUAE trains from both data and queries: standard data training first,
// then query-driven fine-tuning.
func TrainUAE(t *dataset.Table, train *query.Workload, cfg Config) (*Model, error) {
	cfg.fillDefaults()
	base, err := naru.Train(t, cfg.Base)
	if err != nil {
		return nil, err
	}
	m := &Model{Model: base, name: "UAE"}
	if err := m.queryTrain(train, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// TrainUAEQ trains from queries only (UAE-Q).
func TrainUAEQ(t *dataset.Table, train *query.Workload, cfg Config) (*Model, error) {
	cfg.fillDefaults()
	baseCfg := cfg.Base
	baseCfg.Epochs = -1 // skip data training
	base, err := naru.Train(t, baseCfg)
	if err != nil {
		return nil, err
	}
	m := &Model{Model: base, name: "UAE-Q"}
	if err := m.queryTrain(train, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// queryTrain runs the query-driven gradient steps using the shared
// ar.TrainQueryStep primitive.
func (m *Model) queryTrain(train *query.Workload, cfg Config) error {
	if len(train.Queries) == 0 || len(train.Queries) != len(train.TrueSel) {
		return fmt.Errorf("uae: needs a labelled training workload")
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	arm := m.AR()
	rng := rand.New(rand.NewSource(cfg.Base.Seed + 101))
	sess := arm.Net.NewSession(cfg.QueryBatch * cfg.TrainSamples)
	outDim := 0
	for _, c := range arm.Cards {
		outDim += c
	}
	dLogits := vecmath.NewMatrix(cfg.QueryBatch*cfg.TrainSamples, outDim)

	n := len(train.Queries)
	idx := rng.Perm(n)
	for epoch := 0; epoch < cfg.QueryEpochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for start := 0; start < n; start += cfg.QueryBatch {
			end := start + cfg.QueryBatch
			if end > n {
				end = n
			}
			batch := idx[start:end]
			consList := make([][]ar.Constraint, len(batch))
			targets := make([]float64, len(batch))
			for i, qi := range batch {
				cons, err := m.BuildConstraints(train.Queries[qi])
				if err != nil {
					return err
				}
				consList[i] = cons
				targets[i] = train.TrueSel[qi]
			}
			if _, err := arm.TrainQueryStep(sess, consList, targets, cfg.TrainSamples, cfg.QueryLR, rng, dLogits); err != nil {
				return err
			}
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return nil
}
