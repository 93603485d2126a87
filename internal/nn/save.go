package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the gob-serializable form of a ResMADE: structure plus live
// parameters. Masks and Adam state are rebuilt/reset on load.
type snapshot struct {
	Cards    []int
	Hidden   []int
	EmbedCap int
	Embeds   [][]float64
	Weights  [][]float64 // per hidden layer, then output layer
	Biases   [][]float64
}

// Save writes the model parameters to w.
func (n *ResMADE) Save(w io.Writer) error {
	snap := snapshot{
		Cards:    n.Cards,
		Hidden:   n.Hidden,
		EmbedCap: n.embedCap,
	}
	for _, e := range n.embeds {
		snap.Embeds = append(snap.Embeds, e.Data)
	}
	for _, l := range n.layers {
		snap.Weights = append(snap.Weights, l.w.Data)
		snap.Biases = append(snap.Biases, l.b)
	}
	snap.Weights = append(snap.Weights, n.outLayer.w.Data)
	snap.Biases = append(snap.Biases, n.outLayer.b)
	return gob.NewEncoder(w).Encode(&snap)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*ResMADE, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	net, err := NewResMADE(Config{Cards: snap.Cards, Hidden: snap.Hidden, EmbedDim: snap.EmbedCap})
	if err != nil {
		return nil, err
	}
	if len(snap.Embeds) != len(net.embeds) || len(snap.Weights) != len(net.layers)+1 {
		return nil, fmt.Errorf("nn: snapshot structure mismatch")
	}
	for i, e := range snap.Embeds {
		if len(e) != len(net.embeds[i].Data) {
			return nil, fmt.Errorf("nn: embedding %d size mismatch", i)
		}
		copy(net.embeds[i].Data, e)
	}
	for i, l := range net.layers {
		if len(snap.Weights[i]) != len(l.w.Data) || len(snap.Biases[i]) != len(l.b) {
			return nil, fmt.Errorf("nn: layer %d size mismatch", i)
		}
		copy(l.w.Data, snap.Weights[i])
		copy(l.b, snap.Biases[i])
		l.zeroMasked()
	}
	last := len(net.layers)
	if len(snap.Weights[last]) != len(net.outLayer.w.Data) {
		return nil, fmt.Errorf("nn: output layer size mismatch")
	}
	copy(net.outLayer.w.Data, snap.Weights[last])
	copy(net.outLayer.b, snap.Biases[last])
	net.outLayer.zeroMasked()
	return net, nil
}
