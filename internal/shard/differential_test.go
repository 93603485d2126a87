package shard

import (
	"fmt"
	"testing"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/testutil"
)

// TestEnsembleQErrorMatchesSingleModel is the ensemble differential: on one
// seeded workload, a 4-shard ensemble's q-error quantiles must stay close to
// those of one model trained on the whole table with the same settings, with
// early stop off (the exact merge) and on. Each shard sees a quarter of the
// rows, so the bounds allow some loss, but a merge that mis-weights or drops
// shards lands far outside them.
func TestEnsembleQErrorMatchesSingleModel(t *testing.T) {
	tb := dataset.SynthTWI(4000, 31)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 100, Seed: 32})
	cfg := testCfg(4)
	single, err := core.Train(tb, cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	base := evaluate(t, single, w, tb)
	for _, relErr := range []float64{0, 0.2} {
		t.Run(fmt.Sprintf("earlystop=%v", relErr), func(t *testing.T) {
			cfg := cfg
			cfg.EarlyStopRelErr = relErr
			got := evaluate(t, trainEnsemble(t, tb, cfg), w, tb)
			if got.Median > 1.15*base.Median || got.P95 > 1.5*base.P95 || got.P99 > 2*base.P99 {
				t.Errorf("4 shards: %v\nsingle model: %v", got, base)
			}
		})
	}
}

func evaluate(t *testing.T, e estimator.Estimator, w *query.Workload, tb *dataset.Table) estimator.Summary {
	t.Helper()
	ev, err := estimator.Evaluate(e, w, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	return ev.Summary
}
