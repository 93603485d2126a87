package shard

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/query"
	"iam/internal/testutil"
)

// tinySavedEnsemble trains a two-shard ensemble with fallbacks small enough
// to load and estimate thousands of times, and returns its table and bytes.
func tinySavedEnsemble(tb testing.TB) (*dataset.Table, []byte) {
	tb.Helper()
	t := dataset.SynthTWI(600, 51)
	cfg := Config{Shards: 2, Fallback: true}
	cfg.GMMThreshold = 50
	cfg.Components = 4
	cfg.Hidden = []int{8}
	cfg.EmbedDim = 4
	cfg.Epochs = 1
	cfg.NumSamples = 16
	cfg.GMMSamples = 100
	cfg.Seed = 52
	e, err := Train(t, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return t, buf.Bytes()
}

// damagedEnsembles edit one decoded field of a saved ensemble each.
var damagedEnsembles = []func(s *ensSnapshot){
	func(s *ensSnapshot) { s.Rows[0]++ },
	func(s *ensSnapshot) { s.Models = s.Models[:1] },
	func(s *ensSnapshot) { s.Models[1] = s.Models[1][:len(s.Models[1])/2] },
	func(s *ensSnapshot) { s.NumCols++ },
	func(s *ensSnapshot) { s.EarlyStopRelErr = math.NaN() },
	func(s *ensSnapshot) { s.TableName = "other" },
	func(s *ensSnapshot) { s.Models[0], s.Models[1] = s.Models[1], s.Models[0] },
}

// legacySnapshot is the ensemble snapshot as files written before the
// early-stop z, the minimum shard count and the fallback's sample size and
// timeout became constants lay it out.
type legacySnapshot struct {
	TableName string
	NumCols   int
	Rows      []int

	Seed            int64
	TrainParallel   int
	EarlyStopRelErr float64
	EarlyStopZ      float64
	MinShards       int
	Fallback        bool
	FallbackSamples int
	FallbackTimeout int64

	Models [][]byte
}

// TestLoadLegacySnapshot: a file that still carries the four retired
// configuration fields loads, and answers bit for bit as the same ensemble
// saved in the current layout.
func TestLoadLegacySnapshot(t *testing.T) {
	tb, valid := tinySavedEnsemble(t)
	var snap ensSnapshot
	if err := gob.NewDecoder(bytes.NewReader(valid[len(Magic):])).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	legacy := legacySnapshot{
		TableName: snap.TableName, NumCols: snap.NumCols, Rows: snap.Rows,
		Seed: snap.Seed, TrainParallel: snap.TrainParallel, EarlyStopRelErr: snap.EarlyStopRelErr,
		EarlyStopZ: 2, MinShards: 2, Fallback: snap.Fallback, FallbackSamples: 50, FallbackTimeout: 0,
		Models: snap.Models,
	}
	var buf bytes.Buffer
	buf.WriteString(Magic)
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	old, err := Load(bytes.NewReader(buf.Bytes()), tb)
	if err != nil {
		t.Fatalf("legacy snapshot fails to load: %v", err)
	}
	cur, err := Load(bytes.NewReader(valid), tb)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 8, Seed: 53, SkipExec: true})
	want, err := cur.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := old.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: legacy file answers %v, current %v", i, got[i], want[i])
		}
	}
}

// sampleSizes bounds the sampling sizes a damaged file may carry before the
// fuzz target estimates with it: they cost only time and memory.
type sampleSizes struct {
	Cfg struct{ NumSamples, GMMSamples, MassCacheSize int }
}

func (s sampleSizes) affordable() bool {
	return s.Cfg.NumSamples <= 256 && s.Cfg.GMMSamples <= 5000 && s.Cfg.MassCacheSize <= 1024
}

// FuzzShardLoad loads a tiny saved ensemble after one edit — data[off:off+del]
// replaced by insert — seeded with the edits that produce each damaged
// snapshot above. Load must never panic, and an ensemble it accepts must
// answer a full-domain query on each column with a value in [0, 1] or an
// error.
func FuzzShardLoad(f *testing.F) {
	t, valid := tinySavedEnsemble(f)
	f.Add(uint16(0), uint16(0), []byte{})
	f.Add(uint16(0), uint16(1), []byte("J"))
	f.Add(uint16(len(valid)/2), uint16(len(valid)), []byte{})
	for _, mutate := range damagedEnsembles {
		var snap ensSnapshot
		if err := gob.NewDecoder(bytes.NewReader(valid[len(Magic):])).Decode(&snap); err != nil {
			f.Fatal(err)
		}
		mutate(&snap)
		var buf bytes.Buffer
		buf.WriteString(Magic)
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			f.Fatal(err)
		}
		bad := buf.Bytes()
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
	f.Fuzz(func(tt *testing.T, off, del uint16, insert []byte) {
		o := min(int(off), len(valid))
		d := min(int(del), len(valid)-o)
		data := append(append(append([]byte(nil), valid[:o]...), insert...), valid[o+d:]...)
		e, err := Load(bytes.NewReader(data), t)
		if err != nil {
			return
		}
		var snap ensSnapshot
		if err := gob.NewDecoder(bytes.NewReader(data[len(Magic):])).Decode(&snap); err != nil {
			tt.Fatalf("Load accepted a snapshot that does not decode: %v", err)
		}
		for _, m := range snap.Models {
			var sizes sampleSizes
			if gob.NewDecoder(bytes.NewReader(m)).Decode(&sizes) != nil || !sizes.affordable() {
				return
			}
		}
		for ci := range t.Columns {
			q := query.NewQuery(t)
			all := query.Everything()
			q.Ranges[ci] = &all
			est, err := e.Estimate(q)
			if err == nil && !(est >= 0 && est <= 1) {
				tt.Fatalf("column %d: full-domain estimate %v outside [0, 1]", ci, est)
			}
		}
	})
}

// TestReplaceShardFirstEstimateBuildsNothing: a shard model loaded from its
// saved bytes carries its §5.2 sample sets, so the first estimate after
// ReplaceShard builds none.
func TestReplaceShardFirstEstimateBuildsNothing(t *testing.T) {
	tbl, raw := tinySavedEnsemble(t)
	e, err := Load(bytes.NewReader(raw), tbl)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 8, Seed: 53, SkipExec: true})
	var buf bytes.Buffer
	if err := e.ShardModel(1).Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := core.Load(&buf, e.ShardTable(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReplaceShard(1, m); err != nil {
		t.Fatal(err)
	}
	before := m.MassBuilds()
	if _, err := e.EstimateBatch(w.Queries); err != nil {
		t.Fatal(err)
	}
	if got := m.MassBuilds() - before; got != 0 {
		t.Fatalf("first estimate after ReplaceShard built %d sample sets, want 0", got)
	}
}
