package bench

import (
	"fmt"
	"time"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/domainred"
	"iam/internal/estimator"
	"iam/internal/join"
	"iam/internal/naru"
	"iam/internal/optimizer"
	"iam/internal/query"
)

// Table1 reproduces the dataset-statistics table.
func (s *Suite) Table1() (*Report, error) {
	r := &Report{
		Title:  "Table 1: Datasets in Evaluation",
		Header: []string{"Dataset", "Rows", "Cols.Cat", "Cols.Con", "Joint(log10)", "NCIE", "SkewMax"},
	}
	for _, name := range SingleTableDatasets() {
		t, err := s.Table(name)
		if err != nil {
			return nil, err
		}
		st := dataset.Describe(t)
		r.Addf(name, st.Rows, st.ColsCat, st.ColsCon, st.JointLog10, st.NCIE, st.FisherSkewMax)
	}
	sch := s.IMDB()
	cat, con := 0, 0
	tables := []*dataset.Table{sch.Root, sch.Children[0].Table, sch.Children[1].Table}
	var joint float64
	for _, t := range tables {
		st := dataset.Describe(t)
		cat += st.ColsCat
		con += st.ColsCon
		joint += st.JointLog10
	}
	r.Addf("imdb", int(sch.FullJoinSize()), cat, con, joint, 0.0, 0.0)
	r.Notes = append(r.Notes, "imdb Rows is the full-outer-join size |J|; its NCIE/skew are per-table statistics omitted here")
	return r, nil
}

// ErrorTable reproduces Tables 2-4: estimation q-errors of every estimator
// on one single-table dataset.
func (s *Suite) ErrorTable(name string) (*Report, error) {
	tableNo := map[string]string{"wisdm": "Table 2", "twi": "Table 3", "higgs": "Table 4"}[name]
	r := &Report{
		Title:  fmt.Sprintf("%s: Estimation errors on %s", tableNo, name),
		Header: []string{"Estimator", "Mean", "Median", "95th", "99th", "Max"},
	}
	ests, err := s.Estimators(name)
	if err != nil {
		return nil, err
	}
	w, err := s.Workload(name)
	if err != nil {
		return nil, err
	}
	t, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	rows := t.NumRows()
	for _, label := range EstimatorNames() {
		ev, err := estimator.Evaluate(ests[label], w, rows)
		if err != nil {
			return nil, err
		}
		sum := ev.Summary
		r.Addf(label, sum.Mean, sum.Median, sum.P95, sum.P99, sum.Max)
	}
	return r, nil
}

// Table2 — WISDM errors.
func (s *Suite) Table2() (*Report, error) { return s.ErrorTable("wisdm") }

// Table3 — TWI errors.
func (s *Suite) Table3() (*Report, error) { return s.ErrorTable("twi") }

// Table4 — HIGGS errors.
func (s *Suite) Table4() (*Report, error) { return s.ErrorTable("higgs") }

// Table5 reproduces the IMDB join-error table.
func (s *Suite) Table5() (*Report, error) {
	r := &Report{
		Title:  "Table 5: Estimation errors on IMDB (join queries)",
		Header: []string{"Estimator", "Mean", "Median", "95th", "99th", "Max"},
	}
	ests, err := s.JoinEstimators()
	if err != nil {
		return nil, err
	}
	w, err := s.JoinWorkload()
	if err != nil {
		return nil, err
	}
	for _, label := range JoinEstimatorNames() {
		errs := make([]float64, len(w.Queries))
		for i, jq := range w.Queries {
			est, err := ests[label].EstimateCard(jq)
			if err != nil {
				return nil, err
			}
			errs[i] = estimator.QError(w.Cards[i], est, 1)
		}
		sum := estimator.Summarize(errs)
		r.Addf(label, sum.Mean, sum.Median, sum.P95, sum.P99, sum.Max)
	}
	return r, nil
}

// Figure4 reproduces the single-query inference-latency figure.
func (s *Suite) Figure4() (*Report, error) {
	r := &Report{
		Title:  "Figure 4: Inference time per query (ms)",
		Header: append([]string{"Estimator"}, SingleTableDatasets()...),
	}
	n := 30
	for _, label := range EstimatorNames() {
		row := []interface{}{label}
		for _, name := range SingleTableDatasets() {
			ests, err := s.Estimators(name)
			if err != nil {
				return nil, err
			}
			e := ests[label]
			w, err := s.Workload(name)
			if err != nil {
				return nil, err
			}
			qs := w.Queries
			if len(qs) > n {
				qs = qs[:n]
			}
			start := time.Now()
			for _, q := range qs {
				if _, err := e.Estimate(q); err != nil {
					return nil, err
				}
			}
			ms := float64(time.Since(start).Microseconds()) / 1000 / float64(len(qs))
			row = append(row, ms)
		}
		r.Addf(row...)
	}
	// IMDB join inference latency.
	r.Notes = append(r.Notes, "imdb join latencies appear as rows prefixed imdb/")
	jw, err := s.JoinWorkload()
	if err != nil {
		return nil, err
	}
	jests, err := s.JoinEstimators()
	if err != nil {
		return nil, err
	}
	for _, label := range JoinEstimatorNames() {
		e := jests[label]
		qs := jw.Queries
		if len(qs) > n {
			qs = qs[:n]
		}
		start := time.Now()
		for _, q := range qs {
			if _, err := e.EstimateCard(q); err != nil {
				return nil, err
			}
		}
		ms := float64(time.Since(start).Microseconds()) / 1000 / float64(len(qs))
		r.Addf("imdb/"+label, ms, "", "")
	}
	return r, nil
}

// Table6 reproduces the model-size table.
func (s *Suite) Table6() (*Report, error) {
	r := &Report{
		Title:  "Table 6: Model sizes (KB)",
		Header: []string{"Estimator", "wisdm", "twi", "higgs", "imdb"},
	}
	sizer := func(e interface{}) float64 {
		if sz, ok := e.(estimator.Sizer); ok {
			return float64(sz.SizeBytes()) / 1024
		}
		return 0
	}
	jests, err := s.JoinEstimators()
	if err != nil {
		return nil, err
	}
	for _, label := range []string{"MSCN", "DeepDB", "Neurocard", "IAM"} {
		row := []interface{}{label}
		for _, name := range SingleTableDatasets() {
			ests, err := s.Estimators(name)
			if err != nil {
				return nil, err
			}
			row = append(row, sizer(ests[label]))
		}
		row = append(row, sizer(jests[label]))
		r.Addf(row...)
	}
	return r, nil
}

// Table7 reproduces batch-inference timing on IMDB.
func (s *Suite) Table7() (*Report, error) {
	r := &Report{
		Title:  "Table 7: Inference time with batch query processing on IMDB (ms per query)",
		Header: []string{"Estimator", "batch=1", "batch=64", "batch=128"},
	}
	w, err := s.JoinWorkload()
	if err != nil {
		return nil, err
	}
	jests, err := s.JoinEstimators()
	if err != nil {
		return nil, err
	}
	type batcher interface {
		EstimateCardBatch([]*join.JoinQuery) ([]float64, error)
	}
	run := func(label string) error {
		e := jests[label]
		row := []interface{}{label}
		for _, b := range []int{1, 64, 128} {
			qs := make([]*join.JoinQuery, b)
			for i := range qs {
				qs[i] = w.Queries[i%len(w.Queries)]
			}
			start := time.Now()
			if be, ok := e.(batcher); ok {
				if _, err := be.EstimateCardBatch(qs); err != nil {
					return err
				}
			} else {
				for _, q := range qs {
					if _, err := e.EstimateCard(q); err != nil {
						return err
					}
				}
			}
			row = append(row, float64(time.Since(start).Microseconds())/1000/float64(b))
		}
		r.Addf(row...)
		return nil
	}
	for _, label := range []string{"MSCN", "Neurocard", "IAM"} {
		if err := run(label); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Figure5 reproduces the end-to-end optimizer experiment.
func (s *Suite) Figure5() (*Report, error) {
	r := &Report{
		Title:  "Figure 5: End-to-end execution with optimizer on IMDB",
		Header: []string{"Estimator", "exec-time(ms)", "intermediate-tuples"},
	}
	sch := s.IMDB()
	w, err := s.JoinWorkload()
	if err != nil {
		return nil, err
	}
	if len(w.Queries) > 60 {
		w = &join.JoinWorkload{Queries: w.Queries[:60], Cards: w.Cards[:60]}
	}
	jests, err := s.JoinEstimators()
	if err != nil {
		return nil, err
	}
	run := func(label string, est join.CardEstimator) error {
		elapsed, inter, err := optimizer.RunWorkload(sch, est, w)
		if err != nil {
			return err
		}
		r.Addf(label, float64(elapsed.Microseconds())/1000, inter)
		return nil
	}
	for _, label := range JoinEstimatorNames() {
		if err := run(label, jests[label]); err != nil {
			return nil, err
		}
	}
	if err := run("TrueCard", &optimizer.Oracle{Schema: sch}); err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"exec-time is actual hash-join execution of the chosen plans; TrueCard is the exact-cardinality oracle (lower bound)")
	return r, nil
}

// Figure6 reproduces the training-curve figure: max q-error vs epoch,
// evaluated with the in-training model after every epoch.
func (s *Suite) Figure6() (*Report, error) {
	r := &Report{
		Title:  "Figure 6: Training epoch vs max q-error (IAM)",
		Header: []string{"Epoch", "wisdm", "twi", "higgs"},
	}
	nEval := 50
	curves := map[string][]float64{}
	for _, name := range SingleTableDatasets() {
		t, err := s.Table(name)
		if err != nil {
			return nil, err
		}
		w, err := s.Workload(name)
		if err != nil {
			return nil, err
		}
		qs := w.Queries
		truth := w.TrueSel
		if len(qs) > nEval {
			qs = qs[:nEval]
			truth = truth[:nEval]
		}
		cfg := s.iamCfg(s.Cfg.Seed + 900)
		var maxErrs []float64
		var evalErr error
		cfg.OnEpoch = func(epoch int, m *core.Model, gmmNLL, arNLL float64) bool {
			worst, err := maxQError(m, qs, truth, t.NumRows())
			if err != nil {
				evalErr = err
				return false
			}
			maxErrs = append(maxErrs, worst)
			return true
		}
		if _, err := s.trainIAM(t, cfg); err != nil {
			return nil, err
		}
		if evalErr != nil {
			return nil, evalErr
		}
		curves[name] = maxErrs
	}
	// Formats the per-epoch rows computed above; no training happens here.
	for e := 0; e < s.Cfg.Epochs; e++ {
		row := []interface{}{e + 1}
		for _, name := range SingleTableDatasets() {
			if e < len(curves[name]) {
				row = append(row, curves[name][e])
			} else {
				row = append(row, "")
			}
		}
		r.Addf(row...)
	}
	return r, nil
}

// subWorkload returns the first n queries of w (with truths).
func subWorkload(w *query.Workload, n int) *query.Workload {
	if n <= 0 || n >= len(w.Queries) {
		return w
	}
	return &query.Workload{Queries: w.Queries[:n], TrueSel: w.TrueSel[:n]}
}

func maxQError(m *core.Model, qs []*query.Query, truth []float64, rows int) (float64, error) {
	floor := 1.0 / float64(rows)
	worst := 1.0
	for i, q := range qs {
		est, err := m.Estimate(q)
		if err != nil {
			return 0, err
		}
		if qe := estimator.QError(truth[i], est, floor); qe > worst {
			worst = qe
		}
	}
	return worst, nil
}

// Table8 reproduces the training-time table on IMDB.
func (s *Suite) Table8() (*Report, error) {
	r := &Report{
		Title:  "Table 8: Training time (s) on IMDB",
		Header: []string{"Estimator", "seconds"},
	}
	if _, err := s.JoinEstimators(); err != nil { // ensure built
		return nil, err
	}
	for _, label := range []string{"MSCN", "DeepDB", "Neurocard", "IAM"} {
		r.Addf(label, s.joinTimes[label].Seconds())
	}
	return r, nil
}

// DomainReductionTable reproduces Tables 9-11 for one dataset: GMM(K)
// versus Hist/Spline/UMM at 30/100/1000 components.
func (s *Suite) DomainReductionTable(name string) (*Report, error) {
	tableNo := map[string]string{"wisdm": "Table 9", "twi": "Table 10", "higgs": "Table 11"}[name]
	r := &Report{
		Title:  fmt.Sprintf("%s: Impact of domain reducing methods on %s", tableNo, name),
		Header: []string{"Method", "Median", "95th", "Max", "Est.time(ms)"},
	}
	t, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	full, err := s.Workload(name)
	if err != nil {
		return nil, err
	}
	w := subWorkload(full, s.Cfg.TestQueries/2)

	run := func(label string, factory func([]float64, int, int64) core.Reducer, k int) error {
		cfg := s.iamCfg(s.Cfg.Seed + 1000)
		cfg.Components = k
		cfg.ReducerFactory = factory
		cfg.Epochs = (s.Cfg.Epochs + 1) / 2 // sweep at half budget
		m, err := s.trainIAM(t, cfg)
		if err != nil {
			return err
		}
		ev, err := estimator.Evaluate(m, w, t.NumRows())
		if err != nil {
			return err
		}
		sum := ev.Summary
		ms := float64(ev.AvgLatency.Microseconds()) / 1000
		r.Addf(label, sum.Median, sum.P95, sum.Max, ms)
		return nil
	}
	if err := run(fmt.Sprintf("GMM (%d)", s.Cfg.Components), nil, s.Cfg.Components); err != nil {
		return nil, err
	}
	for _, k := range []int{30, 100, 1000} {
		if err := run(fmt.Sprintf("Hist (%d)", k), domainred.EquiDepthFactory(), k); err != nil {
			return nil, err
		}
	}
	for _, k := range []int{30, 100, 1000} {
		if err := run(fmt.Sprintf("Spline (%d)", k), domainred.SplineFactory(), k); err != nil {
			return nil, err
		}
	}
	for _, k := range []int{30, 100, 1000} {
		if err := run(fmt.Sprintf("UMM (%d)", k), domainred.UMMFactory(), k); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Table9 — WISDM domain-reduction ablation.
func (s *Suite) Table9() (*Report, error) { return s.DomainReductionTable("wisdm") }

// Table10 — TWI domain-reduction ablation.
func (s *Suite) Table10() (*Report, error) { return s.DomainReductionTable("twi") }

// Table11 — HIGGS domain-reduction ablation.
func (s *Suite) Table11() (*Report, error) { return s.DomainReductionTable("higgs") }

// Figure7 reproduces the component-count sweep.
func (s *Suite) Figure7() (*Report, error) {
	r := &Report{
		Title:  "Figure 7: Varying the number of mixture components (IAM q-errors)",
		Header: []string{"K", "dataset", "Median", "95th", "Max"},
	}
	for _, name := range SingleTableDatasets() {
		t, err := s.Table(name)
		if err != nil {
			return nil, err
		}
		full, err := s.Workload(name)
		if err != nil {
			return nil, err
		}
		w := subWorkload(full, s.Cfg.TestQueries/2)
		for _, k := range []int{1, 5, 10, 30, 50, 70} {
			cfg := s.iamCfg(s.Cfg.Seed + 1100)
			cfg.Components = k
			cfg.Epochs = (s.Cfg.Epochs + 1) / 2 // sweep at half budget
			m, err := s.trainIAM(t, cfg)
			if err != nil {
				return nil, err
			}
			ev, err := estimator.Evaluate(m, w, t.NumRows())
			if err != nil {
				return nil, err
			}
			sum := ev.Summary
			r.Addf(k, name, sum.Median, sum.P95, sum.Max)
		}
	}
	return r, nil
}

// Table12 reproduces model size vs component count.
func (s *Suite) Table12() (*Report, error) {
	r := &Report{
		Title:  "Table 12: Model size (KB) of IAM vs number of components",
		Header: []string{"K", "wisdm", "twi", "higgs"},
	}
	for _, k := range []int{1, 10, 30, 50, 70} {
		row := []interface{}{k}
		for _, name := range SingleTableDatasets() {
			t, err := s.Table(name)
			if err != nil {
				return nil, err
			}
			cfg := s.iamCfg(s.Cfg.Seed + 1200)
			cfg.Components = k
			cfg.Epochs = 1 // size depends only on architecture
			m, err := s.trainIAM(t, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, float64(m.SizeBytes())/1024)
		}
		r.Addf(row...)
	}
	return r, nil
}

// AblationBiasCorrection demonstrates Theorem 5.1 empirically: IAM with and
// without the §5.2 bias correction.
func (s *Suite) AblationBiasCorrection() (*Report, error) {
	r := &Report{
		Title:  "Ablation: unbiased sampling correction (TWI)",
		Header: []string{"Variant", "Mean", "Median", "95th", "Max"},
	}
	t, err := s.Table("twi")
	if err != nil {
		return nil, err
	}
	w, err := s.Workload("twi")
	if err != nil {
		return nil, err
	}
	for _, mode := range []struct {
		label       string
		uncorrected bool
	}{{"corrected (IAM)", false}, {"uncorrected", true}} {
		cfg := s.iamCfg(s.Cfg.Seed + 1300)
		cfg.Uncorrected = mode.uncorrected
		m, err := s.trainIAM(t, cfg)
		if err != nil {
			return nil, err
		}
		ev, err := estimator.Evaluate(m, w, t.NumRows())
		if err != nil {
			return nil, err
		}
		sum := ev.Summary
		r.Addf(mode.label, sum.Mean, sum.Median, sum.P95, sum.Max)
	}
	return r, nil
}

// AblationMassModes compares the three range-mass estimators.
func (s *Suite) AblationMassModes() (*Report, error) {
	r := &Report{
		Title:  "Ablation: P_GMM(R) estimation mode (TWI)",
		Header: []string{"Mode", "Mean", "Median", "95th", "Max"},
	}
	t, err := s.Table("twi")
	if err != nil {
		return nil, err
	}
	w, err := s.Workload("twi")
	if err != nil {
		return nil, err
	}
	for _, mode := range []struct {
		label string
		mm    core.RangeMassMode
	}{
		{"MonteCarlo (paper)", core.MassMonteCarlo},
		{"Exact CDF", core.MassExact},
		{"Empirical", core.MassEmpirical},
	} {
		cfg := s.iamCfg(s.Cfg.Seed + 1400)
		cfg.MassMode = mode.mm
		m, err := s.trainIAM(t, cfg)
		if err != nil {
			return nil, err
		}
		ev, err := estimator.Evaluate(m, w, t.NumRows())
		if err != nil {
			return nil, err
		}
		sum := ev.Summary
		r.Addf(mode.label, sum.Mean, sum.Median, sum.P95, sum.Max)
	}
	return r, nil
}

// AblationJointVsSeparate compares end-to-end joint training with separate
// GMM-then-AR training (§4.3).
func (s *Suite) AblationJointVsSeparate() (*Report, error) {
	r := &Report{
		Title:  "Ablation: joint vs separate training (WISDM)",
		Header: []string{"Variant", "Mean", "Median", "95th", "Max"},
	}
	t, err := s.Table("wisdm")
	if err != nil {
		return nil, err
	}
	w, err := s.Workload("wisdm")
	if err != nil {
		return nil, err
	}
	for _, mode := range []struct {
		label    string
		separate bool
	}{{"joint end-to-end (IAM)", false}, {"separate", true}} {
		cfg := s.iamCfg(s.Cfg.Seed + 1500)
		cfg.SeparateTraining = mode.separate
		m, err := s.trainIAM(t, cfg)
		if err != nil {
			return nil, err
		}
		ev, err := estimator.Evaluate(m, w, t.NumRows())
		if err != nil {
			return nil, err
		}
		sum := ev.Summary
		r.Addf(mode.label, sum.Mean, sum.Median, sum.P95, sum.Max)
	}
	return r, nil
}

// AblationColumnOrder evaluates NeuroCard under different column orders
// (§4.3 "Column Order").
func (s *Suite) AblationColumnOrder() (*Report, error) {
	r := &Report{
		Title:  "Ablation: column order (Neurocard on WISDM)",
		Header: []string{"Order", "Mean", "Median", "95th", "Max"},
	}
	t, err := s.Table("wisdm")
	if err != nil {
		return nil, err
	}
	w, err := s.Workload("wisdm")
	if err != nil {
		return nil, err
	}
	n := t.NumCols()
	orders := map[string][]int{
		"natural":  nil,
		"reversed": {4, 3, 2, 1, 0},
		"rotated":  {2, 3, 4, 0, 1},
	}
	for _, label := range []string{"natural", "reversed", "rotated"} {
		cfg := s.naruCfg(s.Cfg.Seed + 1600)
		if o := orders[label]; o != nil {
			cfg.ColumnOrder = o[:n]
		}
		nm, err := naru.TrainContext(s.context(), t, cfg)
		if err != nil {
			return nil, err
		}
		ev, err := estimator.Evaluate(nm, w, t.NumRows())
		if err != nil {
			return nil, err
		}
		sum := ev.Summary
		r.Addf(label, sum.Mean, sum.Median, sum.P95, sum.Max)
	}
	return r, nil
}
