package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"asqprl/internal/embed"
	"asqprl/internal/metrics"
	"asqprl/internal/nn"
	"asqprl/internal/rl"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// Snapshot framing: a fixed magic, a format version, a payload length, and a
// CRC-32 of the payload, followed by the gob-encoded snapshot. The frame lets
// Load reject truncated or bit-flipped files with a descriptive error instead
// of feeding garbage to the gob decoder; input that does not open with the
// magic is not a snapshot, and is not decoded at all.
var snapMagic = [4]byte{'A', 'S', 'Q', 'P'}

const (
	snapVersion    = 2
	snapHeaderLen  = 4 + 1 + 8 + 4 // magic + version + length + crc
	snapMaxPayload = 1 << 31       // sanity cap against absurd length prefixes
)

// snapshot is the serialized form of a trained System. The database itself
// is not serialized — a snapshot is restored against the same (or a
// compatible) database, mirroring how the paper's offline-trained model is
// attached to the live database at exploration time.
type snapshot struct {
	Config       Config
	TrainSQLs    []string
	QueryWeights []float64
	SetIDs       []table.RowID
	Actor        []byte
	Critic       []byte
	EstScores    []float64
	FineTunes    int
}

// Save serializes the trained system (configuration, training workload,
// approximation set, actor/critic weights, estimator scores) to w. The
// database is not included; pass the same database to Load.
func (s *System) Save(w io.Writer) error {
	actor, err := s.agent.ActorParams().Marshal()
	if err != nil {
		return fmt.Errorf("core: save actor: %w", err)
	}
	critic, err := s.agent.CriticParams().Marshal()
	if err != nil {
		return fmt.Errorf("core: save critic: %w", err)
	}
	snap := snapshot{
		Config:    s.cfg,
		SetIDs:    s.set.IDs(),
		Actor:     actor,
		Critic:    critic,
		EstScores: s.est.scores,
		FineTunes: s.stats.FineTunes,
	}
	for _, q := range s.train {
		snap.TrainSQLs = append(snap.TrainSQLs, q.SQL)
		snap.QueryWeights = append(snap.QueryWeights, q.Weight)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&snap); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	var header [snapHeaderLen]byte
	copy(header[:4], snapMagic[:])
	header[4] = snapVersion
	binary.LittleEndian.PutUint64(header[5:13], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(header[13:17], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// SaveBytes serializes the system to a byte slice.
func (s *System) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeFrame validates the snapshot frame around data and returns the gob
// payload.
func decodeFrame(data []byte) ([]byte, error) {
	if len(data) < 4 || !bytes.Equal(data[:4], snapMagic[:]) {
		return nil, fmt.Errorf("core: load: not a snapshot: bad magic %q", data[:min(4, len(data))])
	}
	if len(data) < snapHeaderLen {
		return nil, fmt.Errorf("core: load: truncated header: %d of %d bytes", len(data), snapHeaderLen)
	}
	if v := data[4]; v != snapVersion {
		return nil, fmt.Errorf("core: load: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	n := binary.LittleEndian.Uint64(data[5:13])
	if n > snapMaxPayload {
		return nil, fmt.Errorf("core: load: implausible payload length %d", n)
	}
	payload := data[snapHeaderLen:]
	if uint64(len(payload)) < n {
		return nil, fmt.Errorf("core: load: truncated payload: %d of %d bytes", len(payload), n)
	}
	payload = payload[:n]
	want := binary.LittleEndian.Uint32(data[13:17])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("core: load: checksum mismatch: %08x != %08x (corrupt snapshot)", got, want)
	}
	return payload, nil
}

// decodeSnapshot gob-decodes payload with a panic guard: gob panics on some
// malformed inputs, and a corrupt file must surface as an error, not a crash.
func decodeSnapshot(payload []byte) (snap snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: load: malformed snapshot: %v", r)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return snapshot{}, fmt.Errorf("core: load: decode: %w", err)
	}
	return snap, nil
}

func loadBytes(db *table.Database, data []byte) (*System, error) {
	payload, err := decodeFrame(data)
	if err != nil {
		return nil, err
	}
	snap, err := decodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	if len(snap.TrainSQLs) == 0 {
		return nil, fmt.Errorf("core: load: snapshot has no training workload")
	}
	w, err := workload.New(snap.TrainSQLs...)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	for i := range w {
		if i < len(snap.QueryWeights) {
			w[i].Weight = snap.QueryWeights[i]
		}
	}

	cfg := snap.Config.normalize()
	s := &System{cfg: cfg, db: db, train: w, ref: metrics.NewReferenceCache(db)}

	// Validate and restore the approximation set.
	s.set = table.NewSubset()
	for _, id := range snap.SetIDs {
		t := db.Table(id.Table)
		if t == nil || id.Row < 0 || id.Row >= t.NumRows() {
			return nil, fmt.Errorf("core: load: set references %v, absent from this database", id)
		}
		s.set.Add(id)
	}
	s.setDB = s.set.Materialize(db)
	s.stats.SetSize = s.set.Size()
	s.stats.FineTunes = snap.FineTunes

	// Restore networks into a fresh agent of the right shape.
	stateDim, actions := envShape(cfg)
	agent, err := restoreAgent(cfg, stateDim, actions, snap.Actor, snap.Critic)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	s.agent = agent

	// Restore the estimator from the recorded per-query scores (or refit if
	// the snapshot predates them).
	emb := embed.Embedder{Dim: cfg.EmbedDim}
	if len(snap.EstScores) == len(w) {
		s.est = NewEstimator(emb, w.Statements(), snap.EstScores, estimatorNeighbors)
	} else if err := s.fitEstimator(); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	s.drift = &DriftDetector{Confidence: cfg.DriftConfidence, Count: cfg.DriftCount}

	// Preprocessing artifacts are not serialized; rebuild them lazily when
	// fine-tuning is requested.
	return s, nil
}

// LoadBytes restores a system from bytes produced by SaveBytes.
func LoadBytes(db *table.Database, data []byte) (*System, error) {
	return loadBytes(db, data)
}

// restoreAgent reconstructs an agent and overwrites its networks with the
// serialized parameters.
func restoreAgent(cfg Config, stateDim, actions int, actorBytes, criticBytes []byte) (agent *rl.Agent, err error) {
	defer func() {
		if r := recover(); r != nil {
			agent, err = nil, fmt.Errorf("restore agent: malformed network bytes: %v", r)
		}
	}()
	actor, err := nn.Unmarshal(actorBytes)
	if err != nil {
		return nil, fmt.Errorf("restore actor: %w", err)
	}
	critic, err := nn.Unmarshal(criticBytes)
	if err != nil {
		return nil, fmt.Errorf("restore critic: %w", err)
	}
	if actor.InputDim() != stateDim || actor.OutputDim() != actions ||
		critic.InputDim() != stateDim || critic.OutputDim() != 1 {
		return nil, fmt.Errorf("network shapes (%dx%d, %dx%d) do not match configuration (%dx%d, %dx1)",
			actor.InputDim(), actor.OutputDim(), critic.InputDim(), critic.OutputDim(),
			stateDim, actions, stateDim)
	}
	agent, err = rl.NewAgent(cfg.RL, stateDim, actions)
	if err != nil {
		return nil, fmt.Errorf("restore agent: %w", err)
	}
	agent.ActorParams().CopyFrom(actor)
	agent.CriticParams().CopyFrom(critic)
	return agent, nil
}

// ensurePreprocessed rebuilds the preprocessing artifacts, which are not
// serialized by Save and are needed again for BuildSet on a loaded system.
func (s *System) ensurePreprocessed() error {
	if s.pre != nil {
		return nil
	}
	pre, err := Preprocess(s.db, s.train, s.cfg)
	if err != nil {
		return err
	}
	s.pre = pre
	return nil
}
