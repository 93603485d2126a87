package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
	"iam/internal/testutil"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tb := dataset.SynthWISDM(3000, 41)
	cfg := fastCfg()
	cfg.MassMode = MassExact // deterministic masses → exact estimate match
	m, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, tb)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.SizeBytes() != m.SizeBytes() {
		t.Fatalf("size mismatch after load: %d vs %d", loaded.SizeBytes(), m.SizeBytes())
	}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 20, Seed: 42, SkipExec: true})
	for i, q := range w.Queries {
		a, err := m.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		// Same seeds, same deterministic masses → estimates agree up to MC
		// sampling with identical RNG streams.
		if math.Abs(a-b) > 0.05+0.2*a {
			t.Fatalf("query %d: original %v vs loaded %v", i, a, b)
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

func (f fakeReducer) K() int             { return f.k }
func (f fakeReducer) Assign(float64) int { return 0 }
func (f fakeReducer) SizeBytes() int     { return 8 }
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

// TestLoadRejectsMalformedSnapshots: a model file whose column mapping or
// sampling configuration does not fit its network must fail to load with an
// error, not panic later.
func TestLoadRejectsMalformedSnapshots(t *testing.T) {
	tb := dataset.SynthWISDM(1500, 47)
	cfg := fastCfg()
	cfg.Epochs = 1
	m, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	gmmCol := -1
	for ci := range m.cols {
		if m.cols[ci].kind == kindGMM {
			gmmCol = ci
		}
	}
	if gmmCol < 0 {
		t.Fatal("test premise broken: no GMM column")
	}
	cases := []struct {
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
		{"short GMM", func(s *modelSnapshot) { s.Cols[gmmCol].GMMMeans = s.Cols[gmmCol].GMMMeans[1:] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var snap modelSnapshot
			if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&snap)
			var out bytes.Buffer
			if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&out, tb); err == nil {
				t.Fatal("loaded a malformed snapshot")
			}
		})
	}
	if _, err := Load(bytes.NewReader(valid), tb); err != nil {
		t.Fatalf("the unmodified snapshot fails to load: %v", err)
	}
}
