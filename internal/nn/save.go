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

// Load reads a model previously written by Save. A snapshot whose slices
// disagree with the structure it declares is an error, never a panic.
func Load(r io.Reader) (*ResMADE, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if err := snap.check(); err != nil {
		return nil, err
	}
	net, err := NewResMADE(Config{Cards: snap.Cards, Hidden: snap.Hidden, EmbedDim: snap.EmbedCap})
	if err != nil {
		return nil, err
	}
	for i, e := range snap.Embeds {
		copy(net.embeds[i].Data, e)
	}
	for i := range snap.Weights {
		l := net.outLayer
		if i < len(net.layers) {
			l = net.layers[i]
		}
		copy(l.w.Data, snap.Weights[i])
		copy(l.b, snap.Biases[i])
		l.zeroMasked()
	}
	return net, nil
}

// check verifies every decoded slice against the network shape that Cards,
// Hidden and EmbedCap declare, before NewResMADE allocates anything from
// them: a truncated or crafted file fails here instead of panicking or
// sizing a network its own data cannot fill. Each cardinality is checked
// against its embedding's decoded length first, so no size product can
// overflow.
func (s *snapshot) check() error {
	nCols := len(s.Cards)
	if nCols < 2 || s.EmbedCap < 1 || len(s.Hidden) == 0 {
		return fmt.Errorf("nn: snapshot declares %d columns, embedding width %d, %d hidden layers", nCols, s.EmbedCap, len(s.Hidden))
	}
	if len(s.Embeds) != nCols || len(s.Weights) != len(s.Hidden)+1 || len(s.Biases) != len(s.Weights) {
		return fmt.Errorf("nn: snapshot structure mismatch")
	}
	inDim, outDim := 0, 0
	for i, card := range s.Cards {
		if card < 1 || card >= len(s.Embeds[i]) {
			return fmt.Errorf("nn: column %d cardinality %d does not fit its embedding", i, card)
		}
		d := min(card, s.EmbedCap)
		if len(s.Embeds[i]) != (card+1)*d {
			return fmt.Errorf("nn: embedding %d size mismatch", i)
		}
		inDim += d
		outDim += card
	}
	prev := inDim
	for li, width := range s.Hidden {
		if width < 1 || len(s.Biases[li]) != width || len(s.Weights[li]) != width*prev {
			return fmt.Errorf("nn: layer %d size mismatch", li)
		}
		prev = width
	}
	last := len(s.Hidden)
	if len(s.Biases[last]) != outDim || len(s.Weights[last]) != outDim*prev {
		return fmt.Errorf("nn: output layer size mismatch")
	}
	return nil
}
