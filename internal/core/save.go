package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"iam/internal/ar"
	"iam/internal/dataset"
	"iam/internal/gmm"
	"iam/internal/nn"
)

// Model persistence. Save writes everything needed to answer queries —
// configuration, per-column mapping metadata (encoders, factor specs, GMM
// parameters) and the AR network weights. Load rebinds the model to the
// table it was trained on (the caller supplies it; the data itself is not
// serialized). Models trained with a custom ReducerFactory cannot be saved:
// alternative reducers are ablation-only.

type colSnapshot struct {
	Kind    int
	ArFirst int
	ArCount int

	// Encoder state (non-GMM columns).
	EncName string
	EncKind int
	EncCard int
	EncVals []float64

	FactorCard  int
	FactorBases []int

	// GMM parameters.
	GMMWeights []float64
	GMMMeans   []float64
	GMMSigmas  []float64
}

type modelSnapshot struct {
	TableName string
	NumCols   int
	Cfg       persistedConfig
	Cols      []colSnapshot
	Cards     []int
	Net       []byte
	GMMLosses []float64
	ARLosses  []float64
}

// persistedConfig mirrors Config minus the function-valued fields.
type persistedConfig struct {
	GMMThreshold, Components, MaxSubColumn int
	Hidden                                 []int
	EmbedDim, Epochs, BatchSize            int
	LR, GMMLR                              float64
	SeparateTraining                       bool
	GMMSamples, NumSamples                 int
	MassMode                               int
	Uncorrected                            bool
	Seed                                   int64
	Workers, MassCacheSize, TrainWorkers   int
}

// Save serializes the trained model to w.
func (m *Model) Save(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for ci := range m.cols {
		if m.cols[ci].kind == kindReduced {
			return fmt.Errorf("core: models with alternative reducers are not serializable")
		}
	}
	snap := modelSnapshot{
		TableName: m.table.Name,
		NumCols:   m.table.NumCols(),
		Cards:     m.arm.Cards,
		GMMLosses: m.GMMLosses,
		ARLosses:  m.ARLosses,
		Cfg: persistedConfig{
			GMMThreshold: m.cfg.GMMThreshold, Components: m.cfg.Components,
			MaxSubColumn: m.cfg.MaxSubColumn, Hidden: m.cfg.Hidden,
			EmbedDim: m.cfg.EmbedDim, Epochs: m.cfg.Epochs, BatchSize: m.cfg.BatchSize,
			LR: m.cfg.LR, GMMLR: m.cfg.GMMLR, SeparateTraining: m.cfg.SeparateTraining,
			GMMSamples: m.cfg.GMMSamples, NumSamples: m.cfg.NumSamples,
			MassMode: int(m.cfg.MassMode), Uncorrected: m.cfg.Uncorrected, Seed: m.cfg.Seed,
			Workers: m.cfg.Workers, MassCacheSize: m.cfg.MassCacheSize,
			TrainWorkers: m.cfg.TrainWorkers,
		},
	}
	for ci := range m.cols {
		info := &m.cols[ci]
		cs := colSnapshot{Kind: int(info.kind), ArFirst: info.First, ArCount: info.Count}
		if info.Enc != nil {
			cs.EncName = info.Enc.Name
			cs.EncKind = int(info.Enc.Kind)
			cs.EncCard = info.Enc.Card
			cs.EncVals = info.Enc.Values()
		}
		if info.kind == kindFactored {
			cs.FactorCard = info.Factor.Card
			cs.FactorBases = info.Factor.Bases
		}
		if info.gm != nil {
			cs.GMMWeights = info.gm.Weights
			cs.GMMMeans = info.gm.Means
			cs.GMMSigmas = info.gm.Sigmas
		}
		snap.Cols = append(snap.Cols, cs)
	}
	var netBuf bytes.Buffer
	if err := m.arm.Net.Save(&netBuf); err != nil {
		return err
	}
	snap.Net = netBuf.Bytes()
	return gob.NewEncoder(w).Encode(&snap)
}

// Load reads a model previously written by Save and binds it to t, which
// must be the training table (name and column count are verified; queries
// are executed against it only for the empirical mass mode and AVG
// fallbacks).
func Load(r io.Reader, t *dataset.Table) (*Model, error) {
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if t.Name != snap.TableName || t.NumCols() != snap.NumCols {
		return nil, fmt.Errorf("core: model was trained on %q (%d cols), got %q (%d cols)",
			snap.TableName, snap.NumCols, t.Name, t.NumCols())
	}
	net, err := nn.Load(bytes.NewReader(snap.Net))
	if err != nil {
		return nil, err
	}
	if err := snap.check(net); err != nil {
		return nil, err
	}
	m := &Model{
		table:     t,
		GMMLosses: snap.GMMLosses,
		ARLosses:  snap.ARLosses,
		arm:       &ar.Model{Net: net, Cards: snap.Cards},
	}
	c := snap.Cfg
	m.cfg = Config{
		GMMThreshold: c.GMMThreshold, Components: c.Components, MaxSubColumn: c.MaxSubColumn,
		Hidden: c.Hidden, EmbedDim: c.EmbedDim, Epochs: c.Epochs, BatchSize: c.BatchSize,
		LR: c.LR, GMMLR: c.GMMLR, SeparateTraining: c.SeparateTraining,
		GMMSamples: c.GMMSamples, NumSamples: c.NumSamples,
		MassMode: RangeMassMode(c.MassMode), Uncorrected: c.Uncorrected, Seed: c.Seed,
		Workers: c.Workers, MassCacheSize: c.MassCacheSize, TrainWorkers: c.TrainWorkers,
	}
	for _, cs := range snap.Cols {
		info := colInfo{kind: colKind(cs.Kind), Column: ar.Column{First: cs.ArFirst, Count: cs.ArCount}}
		if cs.EncCard > 0 || len(cs.EncVals) > 0 {
			info.Enc = dataset.RestoreEncoder(cs.EncName, dataset.Kind(cs.EncKind), cs.EncCard, cs.EncVals)
			info.MaxCode = info.Enc.Card - 1
		}
		if info.kind == kindFactored {
			info.Factor = dataset.FactorSpec{Card: cs.FactorCard, Bases: cs.FactorBases}
		}
		if len(cs.GMMWeights) > 0 {
			info.gm = &gmm.Model{Weights: cs.GMMWeights, Means: cs.GMMMeans, Sigmas: cs.GMMSigmas}
		}
		m.cols = append(m.cols, info)
	}
	// The §5.2 sample sets are drawn here, not at the first estimate, so a
	// loaded model is ready to answer when it is published.
	m.initMasses()
	return m, nil
}

// check rejects a snapshot whose column mapping or sampling configuration
// does not fit the loaded network, so a damaged model file fails to load
// instead of panicking at the first estimate.
func (s *modelSnapshot) check(net *nn.ResMADE) error {
	if !slices.Equal(s.Cards, net.Cards) {
		return fmt.Errorf("core: snapshot cardinalities %v differ from the network's %v", s.Cards, net.Cards)
	}
	if err := checkSampleSizes(s.Cfg.NumSamples, s.Cfg.GMMSamples, s.Cfg.MassCacheSize); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	if !validMassMode(RangeMassMode(s.Cfg.MassMode)) {
		return fmt.Errorf("core: snapshot has unknown mass mode %d", s.Cfg.MassMode)
	}
	if len(s.Cols) != s.NumCols {
		return fmt.Errorf("core: snapshot maps %d of %d columns", len(s.Cols), s.NumCols)
	}
	for ci, cs := range s.Cols {
		if cs.ArCount < 1 || cs.ArFirst < 0 || cs.ArFirst > len(s.Cards)-cs.ArCount {
			return fmt.Errorf("core: column %d maps to AR columns [%d, %d), outside the network's %d",
				ci, cs.ArFirst, cs.ArFirst+cs.ArCount, len(s.Cards))
		}
		if err := cs.check(s.Cards[cs.ArFirst : cs.ArFirst+cs.ArCount]); err != nil {
			return fmt.Errorf("core: column %d %w", ci, err)
		}
	}
	return nil
}

// check rejects a column whose mapping does not fit cards, the
// cardinalities of the AR columns it spans.
func (cs *colSnapshot) check(cards []int) error {
	encCard := cs.EncCard
	if dataset.Kind(cs.EncKind) != dataset.Categorical && len(cs.EncVals) != encCard {
		return fmt.Errorf("has %d encoder values for %d codes", len(cs.EncVals), encCard)
	}
	switch colKind(cs.Kind) {
	case kindPassthrough:
		if len(cards) != 1 || encCard != cards[0] {
			return fmt.Errorf("encodes %d codes onto AR cardinalities %v", encCard, cards)
		}
	case kindFactored:
		if !slices.Equal(cs.FactorBases, cards) {
			return fmt.Errorf("has factor bases %v for AR cardinalities %v", cs.FactorBases, cards)
		}
		if encCard < 1 || cs.FactorCard != encCard {
			return fmt.Errorf("factors %d codes of an encoder with %d", cs.FactorCard, encCard)
		}
		span := 1
		for _, b := range cs.FactorBases {
			if b < 1 {
				return fmt.Errorf("has factor base %d", b)
			}
			span *= b
			if span >= encCard {
				return nil
			}
		}
		return fmt.Errorf("factor bases %v cannot hold %d codes", cs.FactorBases, encCard)
	case kindGMM:
		k := cards[0]
		if len(cards) != 1 || len(cs.GMMWeights) != k || len(cs.GMMMeans) != k || len(cs.GMMSigmas) != k {
			return fmt.Errorf("GMM parameters do not match its %d components", k)
		}
		if err := gmm.CheckComponents(cs.GMMWeights, cs.GMMMeans, cs.GMMSigmas); err != nil {
			return fmt.Errorf("has an invalid GMM: %w", err)
		}
	default:
		return fmt.Errorf("has unknown kind %d", cs.Kind)
	}
	return nil
}
