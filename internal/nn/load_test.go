package nn

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// tinySnapshot returns the bytes Save writes for a small network, and the
// decoded snapshot.
func tinySnapshot(t testing.TB) ([]byte, snapshot) {
	t.Helper()
	net, err := NewResMADE(Config{Cards: []int{3, 4, 2}, Hidden: []int{4, 4}, EmbedDim: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snap
}

// TestLoadRejectsMalformedSnapshots: every snapshot whose slices disagree
// with the structure it declares must fail to load with an error — no
// panic, and no network sized from the bad header.
func TestLoadRejectsMalformedSnapshots(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *snapshot)
	}{
		{"biases shorter than weights", func(s *snapshot) { s.Biases = s.Biases[:1] }},
		{"short hidden bias", func(s *snapshot) { s.Biases[0] = s.Biases[0][:3] }},
		{"short output bias", func(s *snapshot) { s.Biases[2] = s.Biases[2][:1] }},
		{"short hidden weights", func(s *snapshot) { s.Weights[1] = s.Weights[1][:5] }},
		{"short output weights", func(s *snapshot) { s.Weights[2] = s.Weights[2][1:] }},
		{"missing output layer", func(s *snapshot) { s.Weights, s.Biases = s.Weights[:2], s.Biases[:2] }},
		{"short embedding", func(s *snapshot) { s.Embeds[1] = s.Embeds[1][:2] }},
		{"missing embedding", func(s *snapshot) { s.Embeds = s.Embeds[:2] }},
		{"cardinality off by one", func(s *snapshot) { s.Cards[0]++ }},
		{"huge cardinality", func(s *snapshot) { s.Cards[2] = 1 << 40 }},
		{"zero cardinality", func(s *snapshot) { s.Cards[1] = 0 }},
		{"negative hidden width", func(s *snapshot) { s.Hidden[0] = -4 }},
		{"huge hidden width", func(s *snapshot) { s.Hidden[1] = 1 << 40 }},
		{"no hidden layers", func(s *snapshot) { s.Hidden = nil }},
		{"zero embedding width", func(s *snapshot) { s.EmbedCap = 0 }},
		{"one column", func(s *snapshot) { s.Cards, s.Embeds = s.Cards[:1], s.Embeds[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, snap := tinySnapshot(t)
			tc.mutate(&snap)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
				t.Fatal(err)
			}
			if net, err := Load(&buf); err == nil {
				t.Fatalf("loaded a malformed snapshot as %v", net.Cards)
			}
		})
	}
}

// FuzzLoad: Load takes model files from disk. Whatever the bytes, it must
// return an error or a network that runs a forward pass.
func FuzzLoad(f *testing.F) {
	valid, _ := tinySnapshot(f)
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		row := make([]int, len(net.Cards))
		for c := range row {
			row[c] = net.MaskToken(c)
		}
		sess := net.NewSession(1)
		sess.Forward([][]int{row})
		for c, card := range net.Cards {
			if n := len(sess.Logits(0, c)); n != card {
				t.Fatalf("column %d: %d logits for cardinality %d", c, n, card)
			}
		}
	})
}
