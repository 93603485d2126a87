package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
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
		cs := colSnapshot{Kind: int(info.kind), ArFirst: info.arFirst, ArCount: info.arCount}
		if info.enc != nil {
			cs.EncName = info.enc.Name
			cs.EncKind = int(info.enc.Kind)
			cs.EncCard = info.enc.Card
			cs.EncVals = info.enc.Values()
		}
		if info.kind == kindFactored {
			cs.FactorCard = info.factor.Card
			cs.FactorBases = info.factor.Bases
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
		info := colInfo{kind: colKind(cs.Kind), arFirst: cs.ArFirst, arCount: cs.ArCount}
		if cs.EncCard > 0 || len(cs.EncVals) > 0 {
			info.enc = dataset.RestoreEncoder(cs.EncName, dataset.Kind(cs.EncKind), cs.EncCard, cs.EncVals)
		}
		if info.kind == kindFactored {
			info.factor = dataset.FactorSpec{Card: cs.FactorCard, Bases: cs.FactorBases}
		}
		if len(cs.GMMWeights) > 0 {
			info.gm = &gmm.Model{Weights: cs.GMMWeights, Means: cs.GMMMeans, Sigmas: cs.GMMSigmas}
		}
		m.cols = append(m.cols, info)
	}
	m.massRNG = rand.New(rand.NewSource(m.cfg.Seed + 7))
	m.massDirty = true
	return m, nil
}

// check rejects a snapshot whose column mapping or sampling configuration
// does not fit the loaded network, so a damaged model file fails to load
// instead of panicking at the first estimate.
func (s *modelSnapshot) check(net *nn.ResMADE) error {
	if !slices.Equal(s.Cards, net.Cards) {
		return fmt.Errorf("core: snapshot cardinalities %v differ from the network's %v", s.Cards, net.Cards)
	}
	if s.Cfg.NumSamples < 1 {
		return fmt.Errorf("core: snapshot has %d samples per query", s.Cfg.NumSamples)
	}
	if len(s.Cols) != s.NumCols {
		return fmt.Errorf("core: snapshot maps %d of %d columns", len(s.Cols), s.NumCols)
	}
	for ci, cs := range s.Cols {
		if cs.ArCount < 1 || cs.ArFirst < 0 || cs.ArFirst > len(s.Cards)-cs.ArCount {
			return fmt.Errorf("core: column %d maps to AR columns [%d, %d), outside the network's %d",
				ci, cs.ArFirst, cs.ArFirst+cs.ArCount, len(s.Cards))
		}
		switch colKind(cs.Kind) {
		case kindPassthrough, kindFactored:
			if cs.EncCard < 1 {
				return fmt.Errorf("core: column %d has no encoder", ci)
			}
		case kindGMM:
			k := s.Cards[cs.ArFirst]
			if len(cs.GMMWeights) != k || len(cs.GMMMeans) != k || len(cs.GMMSigmas) != k {
				return fmt.Errorf("core: column %d GMM parameters do not match its %d components", ci, k)
			}
		default:
			return fmt.Errorf("core: column %d has unknown kind %d", ci, cs.Kind)
		}
	}
	return nil
}
