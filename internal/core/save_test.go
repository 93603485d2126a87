package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
	"iam/internal/testutil"
)

// TestSaveLoadRoundTrip: a model loaded from its saved bytes answers bit for
// bit as the trained one, in the default MassMonteCarlo mode (the §5.2
// sample sets are seeded by model seed and column, not drawn from a stream
// that estimates advance) and under MassExact.
func TestSaveLoadRoundTrip(t *testing.T) {
	tb := dataset.SynthWISDM(3000, 41)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 20, Seed: 42, SkipExec: true})
	for _, mode := range []RangeMassMode{MassMonteCarlo, MassExact} {
		cfg := fastCfg()
		cfg.MassMode = mode
		m, err := Train(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		loaded := saveLoad(t, m, tb)
		if loaded.SizeBytes() != m.SizeBytes() {
			t.Fatalf("mode %d: size mismatch after load: %d vs %d", mode, loaded.SizeBytes(), m.SizeBytes())
		}
		requireSameAnswers(t, fmt.Sprintf("mode %d", mode), m, loaded, w.Queries)
	}
}

// TestTrainedAndLoadedAgreeAfterOnEpochEstimates: estimating inside OnEpoch
// must not change what the trained model answers afterwards, so it and
// Load(Save(m)) agree bitwise with and without such estimates.
func TestTrainedAndLoadedAgreeAfterOnEpochEstimates(t *testing.T) {
	tb := dataset.SynthTWI(3000, 44)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 20, Seed: 45, SkipExec: true})
	for _, estimate := range []bool{false, true} {
		cfg := fastCfg()
		cfg.Epochs = 3
		if estimate {
			cfg.OnEpoch = func(_ int, m *Model, _, _ float64) bool {
				if _, err := m.EstimateBatch(w.Queries); err != nil {
					t.Error(err)
				}
				return true
			}
		}
		m, err := Train(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswers(t, fmt.Sprintf("OnEpoch estimates %v", estimate), m, saveLoad(t, m, tb), w.Queries)
	}
}

func saveLoad(t *testing.T, m *Model, tb *dataset.Table) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, tb)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// requireSameAnswers fails unless a and b give bit-identical estimates of qs.
func requireSameAnswers(t *testing.T, what string, a, b *Model, qs []*query.Query) {
	t.Helper()
	ea, err := a.EstimateBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.EstimateBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ea {
		if math.Float64bits(ea[i]) != math.Float64bits(eb[i]) {
			t.Fatalf("%s: query %d: trained %v, loaded %v", what, i, ea[i], eb[i])
		}
	}
}

func TestLoadRejectsWrongTable(t *testing.T) {
	tb := dataset.SynthTWI(1500, 43)
	m, err := Train(tb, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := dataset.SynthWISDM(500, 44)
	if _, err := Load(&buf, other); err == nil {
		t.Fatal("expected table mismatch error")
	}
}

func TestSaveRejectsReducerModels(t *testing.T) {
	tb := dataset.SynthTWI(1500, 45)
	cfg := fastCfg()
	cfg.ReducerFactory = func(values []float64, k int, _ int64) Reducer {
		return fakeReducer{k}
	}
	m, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Fatal("expected serialization rejection for reducer models")
	}
}

// fakeReducer is a trivial Reducer for the rejection test.
type fakeReducer struct{ k int }

func (f fakeReducer) K() int                     { return f.k }
func (f fakeReducer) Assign(float64) int         { return 0 }
func (f fakeReducer) Range(int) (lo, hi float64) { return math.Inf(-1), math.Inf(1) }
func (f fakeReducer) SizeBytes() int             { return 8 }
func (f fakeReducer) RangeMass(lo, hi float64, out []float64) {
	for i := range out {
		out[i] = 1
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model")), dataset.SynthTWI(100, 46)); err == nil {
		t.Fatal("expected decode error")
	}
}

var (
	tinyOnce  sync.Once
	tinyTable *dataset.Table
	tinyBytes []byte
	tinyErr   error
)

// tinySavedModel trains and saves one tiny model over SynthWISDM(1500),
// shared by the malformed-snapshot test and FuzzCoreLoad. MaxSubColumn 20
// factors subject_id (51 codes) over two AR columns and keeps
// activity_code (18) passthrough; x, y and z are GMM-reduced.
func tinySavedModel(tb testing.TB) (*dataset.Table, []byte) {
	tb.Helper()
	tinyOnce.Do(func() {
		tinyTable = dataset.SynthWISDM(1500, 47)
		m, err := Train(tinyTable, tinyCfg())
		if err != nil {
			tinyErr = err
			return
		}
		var buf bytes.Buffer
		tinyErr = m.Save(&buf)
		tinyBytes = buf.Bytes()
	})
	if tinyErr != nil {
		tb.Fatal(tinyErr)
	}
	return tinyTable, tinyBytes
}

// tinyCfg is the configuration of the tiny saved model and checkpoint.
func tinyCfg() Config {
	cfg := fastCfg()
	cfg.Epochs = 1
	cfg.MaxSubColumn = 20
	cfg.Hidden = []int{4}
	cfg.EmbedDim = 2
	cfg.Components = 2
	cfg.NumSamples = 16
	cfg.GMMSamples = 200
	return cfg
}

// colOfKind returns the index of the first snapshot column of kind k.
func colOfKind(s *modelSnapshot, k colKind) int {
	for ci, cs := range s.Cols {
		if colKind(cs.Kind) == k {
			return ci
		}
	}
	panic(fmt.Sprintf("no column of kind %d", k))
}

// malformedSnapshots are snapshot damages Load must reject. Loaded, nil or
// zero factor bases and a negative per-component sample count panic at the
// first estimate, and an unknown mass mode, an encoder card that does not
// fit its AR columns or a NaN sigma answer wrongly.
var malformedSnapshots = []struct {
	name   string
	mutate func(s *modelSnapshot)
}{
	{"cards differ from the network", func(s *modelSnapshot) { s.Cards[0]++ }},
	{"fewer cards than the network", func(s *modelSnapshot) { s.Cards = s.Cards[:len(s.Cards)-1] }},
	{"ArFirst past the end", func(s *modelSnapshot) { s.Cols[0].ArFirst = len(s.Cards) }},
	{"negative ArFirst", func(s *modelSnapshot) { s.Cols[1].ArFirst = -1 }},
	{"zero ArCount", func(s *modelSnapshot) { s.Cols[0].ArCount = 0 }},
	{"ArCount past the end", func(s *modelSnapshot) { s.Cols[0].ArCount = len(s.Cards) + 1 }},
	{"zero samples", func(s *modelSnapshot) { s.Cfg.NumSamples = 0 }},
	{"missing column", func(s *modelSnapshot) { s.Cols = s.Cols[1:] }},
	{"unknown kind", func(s *modelSnapshot) { s.Cols[0].Kind = 9 }},
	{"short GMM", func(s *modelSnapshot) {
		ci := colOfKind(s, kindGMM)
		s.Cols[ci].GMMMeans = s.Cols[ci].GMMMeans[1:]
	}},
	{"nil factor bases", func(s *modelSnapshot) { s.Cols[colOfKind(s, kindFactored)].FactorBases = nil }},
	{"zero factor base", func(s *modelSnapshot) {
		bases := s.Cols[colOfKind(s, kindFactored)].FactorBases
		bases[len(bases)-1] = 0
	}},
	{"unknown mass mode", func(s *modelSnapshot) { s.Cfg.MassMode = 5 }},
	{"factored encoder card beyond its bases", func(s *modelSnapshot) {
		s.Cols[colOfKind(s, kindFactored)].EncCard = 1 << 40
	}},
	{"passthrough encoder card differs from its AR column", func(s *modelSnapshot) {
		s.Cols[colOfKind(s, kindPassthrough)].EncCard++
	}},
	{"negative samples per component", func(s *modelSnapshot) { s.Cfg.GMMSamples = -5 }},
	{"samples per query beyond the cap", func(s *modelSnapshot) { s.Cfg.NumSamples = 1 << 40 }},
	{"samples per component beyond the cap", func(s *modelSnapshot) { s.Cfg.GMMSamples = 1 << 40 }},
	{"mass cache beyond the cap", func(s *modelSnapshot) { s.Cfg.MassCacheSize = 1 << 40 }},
	{"NaN GMM sigma", func(s *modelSnapshot) { s.Cols[colOfKind(s, kindGMM)].GMMSigmas[0] = math.NaN() }},
}

// damagedSnapshot re-encodes the valid snapshot bytes after mutate.
func damagedSnapshot(tb testing.TB, valid []byte, mutate func(s *modelSnapshot)) []byte {
	tb.Helper()
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	mutate(&snap)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadRejectsMalformedSnapshots: a model file whose column mapping or
// sampling configuration does not fit its network must fail to load with an
// error, not panic or answer wrongly later.
func TestLoadRejectsMalformedSnapshots(t *testing.T) {
	tb, valid := tinySavedModel(t)
	for _, tc := range malformedSnapshots {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(damagedSnapshot(t, valid, tc.mutate)), tb); err == nil {
				t.Fatal("loaded a malformed snapshot")
			}
		})
	}
	if _, err := Load(bytes.NewReader(valid), tb); err != nil {
		t.Fatalf("the unmodified snapshot fails to load: %v", err)
	}
}

// TestSampleSizeCaps: Load accepts sampling sizes up to MaxNumSamples,
// MaxGMMSamples and MaxMassCacheSize and rejects one more (the cases in
// malformedSnapshots go far beyond), and TrainContext rejects a
// configuration over any cap before it trains, so no model that trains
// fails to load on its sizes.
func TestSampleSizeCaps(t *testing.T) {
	tb, valid := tinySavedModel(t)
	atCaps := damagedSnapshot(t, valid, func(s *modelSnapshot) {
		s.Cfg.NumSamples, s.Cfg.GMMSamples, s.Cfg.MassCacheSize = MaxNumSamples, MaxGMMSamples, MaxMassCacheSize
	})
	if _, err := Load(bytes.NewReader(atCaps), tb); err != nil {
		t.Fatalf("sizes at the caps fail to load: %v", err)
	}
	for _, tc := range []struct {
		name string
		over func(c *Config)
	}{
		{"samples per query", func(c *Config) { c.NumSamples = MaxNumSamples + 1 }},
		{"samples per component", func(c *Config) { c.GMMSamples = MaxGMMSamples + 1 }},
		{"mass cache", func(c *Config) { c.MassCacheSize = MaxMassCacheSize + 1 }},
	} {
		snap := damagedSnapshot(t, valid, func(s *modelSnapshot) {
			c := Config{NumSamples: s.Cfg.NumSamples, GMMSamples: s.Cfg.GMMSamples, MassCacheSize: s.Cfg.MassCacheSize}
			tc.over(&c)
			s.Cfg.NumSamples, s.Cfg.GMMSamples, s.Cfg.MassCacheSize = c.NumSamples, c.GMMSamples, c.MassCacheSize
		})
		if _, err := Load(bytes.NewReader(snap), tb); err == nil {
			t.Errorf("%s: loaded a snapshot one over the cap", tc.name)
		}
		cfg := fastCfg()
		tc.over(&cfg)
		if _, err := Train(tb, cfg); err == nil {
			t.Errorf("%s: trained with a configuration one over the cap", tc.name)
		}
	}
}

// addEditSeed adds the fuzz seed (off, del, insert) that turns valid into
// bad: the common prefix and suffix are kept and the middle replaced.
func addEditSeed(f *testing.F, valid, bad []byte) {
	p := 0
	for p < len(valid) && p < len(bad) && valid[p] == bad[p] {
		p++
	}
	q := 0
	for q < len(valid)-p && q < len(bad)-p && valid[len(valid)-1-q] == bad[len(bad)-1-q] {
		q++
	}
	f.Add(uint16(p), uint16(len(valid)-p-q), bad[p:len(bad)-q])
}

// applyEdit returns valid with data[off:off+del] replaced by insert, both
// bounds clamped into valid.
func applyEdit(valid []byte, off, del uint16, insert []byte) []byte {
	o := min(int(off), len(valid))
	d := min(int(del), len(valid)-o)
	return append(append(append([]byte(nil), valid[:o]...), insert...), valid[o+d:]...)
}

// checkFullDomainAnswers caps a loaded model's sampling sizes, which only
// cost time and memory, and requires a full-domain query on each column to
// answer in [0, 1] or fail with an error.
func checkFullDomainAnswers(t *testing.T, m *Model, tb *dataset.Table) {
	t.Helper()
	m.cfg.NumSamples = min(m.cfg.NumSamples, 64)
	m.cfg.GMMSamples = min(m.cfg.GMMSamples, 1000)
	m.cfg.MassCacheSize = min(m.cfg.MassCacheSize, 64)
	for ci := range tb.Columns {
		q := query.NewQuery(tb)
		all := query.Everything()
		q.Ranges[ci] = &all
		est, err := m.Estimate(q)
		if err == nil && !(est >= 0 && est <= 1) {
			t.Fatalf("column %d: full-domain estimate %v outside [0, 1]", ci, est)
		}
	}
}

// FuzzCoreLoad loads a tiny saved model after one edit — data[off:off+del]
// replaced by insert — seeded with the edits that produce every malformed
// snapshot above. Editing a real snapshot keeps the gob framing mostly
// intact, so the edits reach Load's checks, and keeps inputs small, so new
// finds minimize in moments. Load must never panic, and a model it accepts
// must answer a full-domain query on each column with a value in [0, 1] or
// an error. Sampling sizes only cost time and memory, so they are capped
// before estimating.
func FuzzCoreLoad(f *testing.F) {
	tb, valid := tinySavedModel(f)
	f.Add(uint16(0), uint16(0), []byte{})
	for _, tc := range malformedSnapshots {
		addEditSeed(f, valid, damagedSnapshot(f, valid, tc.mutate))
	}
	f.Fuzz(func(t *testing.T, off, del uint16, insert []byte) {
		m, err := Load(bytes.NewReader(applyEdit(valid, off, del, insert)), tb)
		if err != nil {
			return
		}
		checkFullDomainAnswers(t, m, tb)
	})
}

// damagedCheckpoints are checkpoint damages that seed FuzzCoreLoadCheckpoint:
// a malformed model snapshot inside, and AR or GMM optimizer state that
// does not fit the model.
var damagedCheckpoints = []struct {
	name   string
	mutate func(tb testing.TB, s *checkpointSnapshot)
}{
	{"model cards differ from the network", func(tb testing.TB, s *checkpointSnapshot) {
		s.Model = damagedSnapshot(tb, s.Model, func(m *modelSnapshot) { m.Cards[0]++ })
	}},
	{"model samples beyond the cap", func(tb testing.TB, s *checkpointSnapshot) {
		s.Model = damagedSnapshot(tb, s.Model, func(m *modelSnapshot) { m.Cfg.NumSamples = 1 << 40 })
	}},
	{"short AR weights", func(_ testing.TB, s *checkpointSnapshot) { s.AR.Weights[0] = s.AR.Weights[0][1:] }},
	{"missing AR layer", func(_ testing.TB, s *checkpointSnapshot) { s.AR.Biases = s.AR.Biases[1:] }},
	{"missing GMM state", func(_ testing.TB, s *checkpointSnapshot) { s.GMM = s.GMM[1:] }},
	{"short GMM sigmas", func(_ testing.TB, s *checkpointSnapshot) { s.GMM[0].Sigmas = s.GMM[0].Sigmas[1:] }},
	{"no AR state", func(_ testing.TB, s *checkpointSnapshot) { s.AR = nil }},
	{"NaN GMM sigma", func(_ testing.TB, s *checkpointSnapshot) { s.GMM[0].Sigmas[0] = math.NaN() }},
	{"negative GMM sigma", func(_ testing.TB, s *checkpointSnapshot) { s.GMM[0].Sigmas[0] = -1 }},
	{"zero GMM sigma", func(_ testing.TB, s *checkpointSnapshot) { s.GMM[0].Sigmas[0] = 0 }},
	{"infinite GMM sigma", func(_ testing.TB, s *checkpointSnapshot) { s.GMM[0].Sigmas[0] = math.Inf(1) }},
	{"negative infinite GMM sigma", func(_ testing.TB, s *checkpointSnapshot) { s.GMM[0].Sigmas[0] = math.Inf(-1) }},
	{"NaN GMM weight", func(_ testing.TB, s *checkpointSnapshot) { s.GMM[0].Weights[0] = math.NaN() }},
	{"negative GMM weight", func(_ testing.TB, s *checkpointSnapshot) { s.GMM[0].Weights[0] = -1 }},
}

// damagedCheckpointBytes re-encodes the valid checkpoint bytes after mutate.
func damagedCheckpointBytes(tb testing.TB, valid []byte, mutate func(tb testing.TB, s *checkpointSnapshot)) []byte {
	tb.Helper()
	var snap checkpointSnapshot
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	mutate(tb, &snap)
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(&snap); err != nil {
		tb.Fatal(err)
	}
	return bad.Bytes()
}

// TestLoadCheckpointRejectsMalformedSnapshots: LoadCheckpoint must reject
// every damaged checkpoint above with an error — a model file's checks and
// a trainer state's shape and mixture checks alike — and open the
// undamaged one. A checkpoint without AR optimizer state is the one
// exception: the state is optional, and the model opens without it.
func TestLoadCheckpointRejectsMalformedSnapshots(t *testing.T) {
	tb, _ := tinySavedModel(t)
	dir := t.TempDir()
	valid := tinyCheckpoint(t, tb, dir)
	path := filepath.Join(dir, "damaged.ckpt")
	for _, tc := range damagedCheckpoints {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, damagedCheckpointBytes(t, valid, tc.mutate), 0o600); err != nil {
				t.Fatal(err)
			}
			_, _, err := LoadCheckpoint(path, tb)
			if optional := tc.name == "no AR state"; optional != (err == nil) {
				t.Fatalf("LoadCheckpoint error = %v", err)
			}
		})
	}
	if err := os.WriteFile(path, valid, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path, tb); err != nil {
		t.Fatalf("the undamaged checkpoint fails to load: %v", err)
	}
}

// tinyCheckpoint trains the tiny model for its one epoch with a checkpoint
// path and returns the checkpoint's bytes.
func tinyCheckpoint(tb testing.TB, t *dataset.Table, dir string) []byte {
	tb.Helper()
	cfg := tinyCfg()
	cfg.CheckpointPath = filepath.Join(dir, "tiny.ckpt")
	if _, err := Train(t, cfg); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzCoreLoadCheckpoint is FuzzCoreLoad for training checkpoints: it
// writes a tiny checkpoint after one edit and opens it with LoadCheckpoint,
// which must never panic. A model it returns must answer a full-domain
// query on each column with a value in [0, 1] or an error.
func FuzzCoreLoadCheckpoint(f *testing.F) {
	tb, _ := tinySavedModel(f)
	valid := tinyCheckpoint(f, tb, f.TempDir())
	f.Add(uint16(0), uint16(0), []byte{})
	for _, tc := range damagedCheckpoints {
		addEditSeed(f, valid, damagedCheckpointBytes(f, valid, tc.mutate))
	}
	// Each fuzz worker is one process running one input at a time, so one
	// file per process suffices. It is removed before each write: rewriting
	// it in place truncates it, and a filesystem may then flush it to disk
	// synchronously (ext4 does, ~50 ms), which would cost far more than the
	// load and estimates under test.
	path := filepath.Join(f.TempDir(), "edited.ckpt")
	f.Fuzz(func(t *testing.T, off, del uint16, insert []byte) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, applyEdit(valid, off, del, insert), 0o600); err != nil {
			t.Fatal(err)
		}
		m, _, err := LoadCheckpoint(path, tb)
		if err != nil {
			return
		}
		checkFullDomainAnswers(t, m, tb)
	})
}

// TestLoadDrawsSampleSetsFirstEstimateBuildsNothing: Load draws one §5.2
// sample set per GMM column, so the first estimate of a loaded model builds
// nothing.
func TestLoadDrawsSampleSetsFirstEstimateBuildsNothing(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 8, Seed: 46, SkipExec: true})
	loaded := saveLoad(t, m, tb)
	if got := loaded.MassBuilds(); got != 2 {
		t.Fatalf("Load built %d sample sets, want 2 (one per GMM column)", got)
	}
	if _, err := loaded.EstimateBatch(w.Queries); err != nil {
		t.Fatal(err)
	}
	if got := loaded.MassBuilds(); got != 2 {
		t.Fatalf("first estimate after Load built %d sample sets, want 0", got-2)
	}
}
