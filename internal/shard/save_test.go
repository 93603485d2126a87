package shard

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
)

// tinySavedEnsemble trains a two-shard ensemble with fallbacks small enough
// to load and estimate thousands of times, and returns its table and bytes.
func tinySavedEnsemble(tb testing.TB) (*dataset.Table, []byte) {
	tb.Helper()
	t := dataset.SynthTWI(600, 51)
	cfg := Config{Shards: 2, Fallback: true, FallbackSamples: 50}
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
	func(s *ensSnapshot) { s.MinShards = -3 },
	func(s *ensSnapshot) { s.EarlyStopRelErr, s.EarlyStopZ = 0.5, math.NaN() },
	func(s *ensSnapshot) { s.FallbackSamples, s.FallbackTimeout = -1, -1 },
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
