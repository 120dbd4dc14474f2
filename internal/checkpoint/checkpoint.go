// Package checkpoint is the crash-safe snapshot/restore subsystem of
// the placement flow. The multi-stage ePlace run (mIP -> mGP -> mLG ->
// cGP -> cDP) is long-running and, without checkpoints, all-or-nothing:
// a crash in cGP discards finished mGP/mLG work. A State captures
// everything a resumed process needs to continue bitwise-identically —
// flow phase, full cell positions, the in-flight Nesterov vectors and
// schedule scalars of a mid-stage global placement, scalars later
// stages derive their inputs from, and the rolling golden-trace
// digests — and the Manager persists it with atomic temp-file+rename
// writes under a versioned, CRC-checked header.
//
// File format (little-endian):
//
//	offset 0:  8-byte magic "EPLCKPT\x00"
//	offset 8:  uint32 format version (FormatVersion)
//	offset 12: uint64 payload length
//	offset 20: uint32 CRC-32C (Castagnoli) of the payload
//	offset 24: payload — encoding/gob of State
//
// The header is checked before the payload is decoded, so a torn or
// corrupted file is rejected with a descriptive error instead of
// resuming from garbage; gob's float64 encoding is exact, so a
// round-trip preserves every position and gradient bit-for-bit.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"

	"eplace/internal/nesterov"
	"eplace/internal/netlist"
	"eplace/internal/telemetry"
)

// FormatVersion is the on-disk format version written by Save; Load
// rejects any other. 2: State.Golden carries word-folded digests. 3:
// State carries no per-cell fixed flags. 4: State carries no Poisson
// solver stamp. 5: nesterov.State carries Alpha, not v_{k-1} and its
// gradient.
const FormatVersion = 5

var magic = [8]byte{'E', 'P', 'L', 'C', 'K', 'P', 'T', 0}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Flow phases a checkpoint can mark. Stage-boundary phases record that
// the named stage completed (and passed its legality/divergence
// checks); in-stage phases carry a GPState for the iteration loop.
const (
	PhasePostMIP       = "post-mIP"
	PhaseMGP           = "mGP" // mid-stage, GP != nil
	PhasePostMGP       = "post-mGP"
	PhasePostMLG       = "post-mLG"
	PhaseCGPFiller     = "cGP-filler" // mid-stage, GP != nil
	PhasePostCGPFiller = "post-cGP-filler"
	PhaseCGP           = "cGP" // mid-stage, GP != nil
	PhasePreCDP        = "pre-cDP"
	PhaseDone          = "done"
	// PhasePostML marks a completed multilevel prelude: the finest
	// design holds the interpolated warm-start positions and mGP is the
	// next work (Level 0).
	PhasePostML = "post-ML"
)

// PhaseMLevel is the mid-stage phase of the level-k global placement in
// a multilevel run ("mGP/L2", "mGP/L1", ...); snapshots carry a GPState
// and level-k positions. PhasePostMLevel is the boundary after level
// k's placement was interpolated down: the snapshot holds level k-1
// positions.
func PhaseMLevel(k int) string     { return fmt.Sprintf("mGP/L%d", k) }
func PhasePostMLevel(k int) string { return fmt.Sprintf("post-mGP/L%d", k) }

// ParseMLPhase recognizes the per-level multilevel phases: it returns
// the level and whether the snapshot is mid-stage (mGP/Lk, carrying a
// GPState) as opposed to the post-interpolation boundary (post-mGP/Lk).
func ParseMLPhase(phase string) (level int, mid bool, ok bool) {
	var k int
	if n, err := fmt.Sscanf(phase, "mGP/L%d", &k); err == nil && n == 1 && phase == PhaseMLevel(k) {
		return k, true, true
	}
	if n, err := fmt.Sscanf(phase, "post-mGP/L%d", &k); err == nil && n == 1 && phase == PhasePostMLevel(k) {
		return k, false, true
	}
	return 0, false, false
}

// GPState is the in-flight state of one PlaceGlobal iteration loop,
// captured at an iteration boundary: everything the loop reads besides
// the (re-derivable) engine kernels. Restoring it resumes the loop at
// iteration Iter with bitwise-identical arithmetic.
type GPState struct {
	// Stage is the GP stage label ("mGP", "cGP-filler", "cGP").
	Stage string
	// Iter is the iteration the resumed loop starts at.
	Iter int
	// Lambda and Gamma are the penalty and smoothing schedule values.
	Lambda, Gamma float64
	// PrevHPWL feeds the lambda schedule; HPWL0 anchors the divergence
	// guard.
	PrevHPWL, HPWL0 float64
	// Best is the lowest-overflow solution snapshot, with its overflow
	// BestTau seen at iteration BestTauIter (divergence rollback).
	Best        []float64
	BestTau     float64
	BestTauIter int
	// Nesterov is the optimizer recurrence state.
	Nesterov nesterov.State
}

// AlphaError refuses a mid-stage snapshot whose nesterov.State.Alpha is
// NaN, infinite or negative: the resumed optimizer would step by it.
type AlphaError struct {
	Stage string
	Alpha float64
}

func (e *AlphaError) Error() string {
	return fmt.Sprintf("checkpoint: %s snapshot's steplength prediction Alpha is %v, not a finite value >= 0", e.Stage, e.Alpha)
}

// checkAlpha returns an *AlphaError for an unusable Alpha.
func (g *GPState) checkAlpha() error {
	if a := g.Nesterov.Alpha; math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
		return &AlphaError{Stage: g.Stage, Alpha: a}
	}
	return nil
}

// Validate checks g's Alpha (see AlphaError) and that every vector of g
// holds the 2n coordinates of the n cells the resuming loop places; a
// shorter one would be indexed past its end.
func (g *GPState) Validate(n int) error {
	if err := g.checkAlpha(); err != nil {
		return err
	}
	for _, v := range []struct {
		name string
		x    []float64
	}{
		{"U", g.Nesterov.U}, {"V", g.Nesterov.V}, {"GradV", g.Nesterov.GradV}, {"Best", g.Best},
	} {
		if len(v.x) != 2*n {
			return fmt.Errorf("checkpoint: %s snapshot's %s holds %d coordinates, the stage places %d cells (%d)",
				g.Stage, v.name, len(v.x), n, 2*n)
		}
	}
	return nil
}

// State is one full flow snapshot.
type State struct {
	// Phase is one of the Phase* constants.
	Phase string
	// DesignName and Fingerprint identify the design the snapshot
	// belongs to; Load-time mismatches abort the resume.
	DesignName  string
	Fingerprint uint64
	// NumBaseCells counts the design's own cells; NumFillers the fillers
	// the flow's compiled view held after them when the snapshot was
	// taken. A resuming flow re-inserts fillers deterministically (same
	// seed) and then overwrites all positions from X/Y.
	NumBaseCells int
	NumFillers   int
	// X, Y are the cell center positions in cell-index order,
	// length NumBaseCells+NumFillers.
	X, Y []float64
	// MixedSize mirrors FlowResult.MixedSize at capture time.
	MixedSize bool
	// MGPIterations and MGPFinalLambda are mGP outputs that seed the
	// cGP penalty factor; valid from PhasePostMGP on.
	MGPIterations  int
	MGPFinalLambda float64
	// Level is the netlist level the positions belong to in a
	// multilevel (V-cycle) run: 0 is the finest (the input design),
	// higher levels are the coarsened designs. A resuming flow rebuilds
	// the hierarchy deterministically from the input design — clustering
	// depends only on structure the Fingerprint covers — and restores
	// X/Y onto Designs[Level]. Flat runs always write 0.
	Level int
	// GP is the in-flight global-placement loop state for mid-stage
	// phases, nil at stage boundaries.
	GP *GPState
	// Golden is the rolling golden-trace digest state, restored so a
	// resumed run's final per-stage digests match the uninterrupted
	// run's exactly.
	Golden telemetry.GoldenState
}

// CapturePositions fills X/Y and the cell counts: d's cells in index
// order, then numFillers zero positions for the fillers, which live in a
// flow's compiled view, not in d: the flow writes them.
func (s *State) CapturePositions(d *netlist.Design, numFillers int) {
	n := len(d.Cells)
	s.NumBaseCells = n
	s.NumFillers = numFillers
	s.X = make([]float64, n+numFillers)
	s.Y = make([]float64, n+numFillers)
	for i := range d.Cells {
		s.X[i] = d.Cells[i].X
		s.Y[i] = d.Cells[i].Y
	}
}

// RestorePositions writes the snapshot's positions of the design's cells
// back into d, which must hold NumBaseCells cells. The filler positions
// after them are the resuming flow's to write into its view.
// Fixed flags are netlist structure and never part of a snapshot.
// A snapshot whose X and Y differ in length, that holds fewer positions
// than cells, or that holds a non-finite position, is rejected before
// the design is touched.
func (s *State) RestorePositions(d *netlist.Design) error {
	if len(s.Y) != len(s.X) {
		return fmt.Errorf("checkpoint: snapshot has %d x and %d y positions", len(s.X), len(s.Y))
	}
	if len(d.Cells) != s.NumBaseCells || len(s.X) < s.NumBaseCells {
		return fmt.Errorf("checkpoint: design has %d cells, snapshot has %d cells in %d positions", len(d.Cells), s.NumBaseCells, len(s.X))
	}
	for i := range s.X {
		if math.IsNaN(s.X[i]) || math.IsInf(s.X[i], 0) || math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
			return fmt.Errorf("checkpoint: cell %d at (%v, %v) in the snapshot", i, s.X[i], s.Y[i])
		}
	}
	for i := range d.Cells {
		d.Cells[i].X = s.X[i]
		d.Cells[i].Y = s.Y[i]
	}
	return nil
}

// Fingerprint hashes the position-independent structure of a design —
// region, target density, per-cell geometry/kind/fixedness, net weights
// and net->cell topology — with FNV-1a. A checkpoint only resumes onto a
// design with an identical fingerprint, which rejects both wrong designs
// and mutated ones (e.g. nets reweighted by a timing-driven pass after
// the snapshot).
func Fingerprint(d *netlist.Design) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	ws := func(s string) {
		w64(uint64(len(s)))
		h.Write([]byte(s))
	}
	ws(d.Name)
	wf(d.Region.Lx)
	wf(d.Region.Ly)
	wf(d.Region.Hx)
	wf(d.Region.Hy)
	wf(d.TargetDensity)
	for i := range d.Cells {
		c := &d.Cells[i]
		wf(c.W)
		wf(c.H)
		kind := uint64(c.Kind)
		if c.Fixed {
			kind |= 1 << 8
		}
		w64(kind)
	}
	for ni := range d.Nets {
		n := &d.Nets[ni]
		wf(n.Weight)
		w64(uint64(len(n.Pins)))
		for _, pi := range n.Pins {
			w64(uint64(d.Pins[pi].Cell))
			wf(d.Pins[pi].Ox)
			wf(d.Pins[pi].Oy)
		}
	}
	w64(uint64(len(d.Rows)))
	return h.Sum64()
}

// Encode serializes the state with the versioned CRC-checked header.
func Encode(s *State) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding state: %w", err)
	}
	p := payload.Bytes()
	out := make([]byte, 24+len(p))
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[8:], FormatVersion)
	binary.LittleEndian.PutUint64(out[12:], uint64(len(p)))
	binary.LittleEndian.PutUint32(out[20:], crc32.Checksum(p, castagnoli))
	copy(out[24:], p)
	return out, nil
}

// Decode verifies the header and CRC, then decodes the payload.
func Decode(data []byte) (*State, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("checkpoint: file truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, this build reads %d", v, FormatVersion)
	}
	n := binary.LittleEndian.Uint64(data[12:])
	if uint64(len(data)-24) != n {
		return nil, fmt.Errorf("checkpoint: payload length %d, header says %d", len(data)-24, n)
	}
	payload := data[24:]
	want := binary.LittleEndian.Uint32(data[20:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (file %08x, computed %08x): corrupted snapshot", want, got)
	}
	var s State
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding payload: %w", err)
	}
	return &s, nil
}

// writeFile atomically writes an encoded state to path: the bytes go
// to a temp file in the same directory, are fsynced, and the file is
// renamed over path, so a crash mid-write can never leave a truncated
// checkpoint under the final name.
func writeFile(path string, s *State) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: fsync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: committing %s: %w", path, err)
	}
	// Persist the rename itself (best effort: not all filesystems
	// support directory fsync).
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// ReadFile loads and verifies a checkpoint file.
func ReadFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// LatestName is the file the Manager keeps current within its
// directory.
const LatestName = "latest.ckpt"

// DefaultKeep is the numbered-history retention bound a Manager applies
// when Keep is left zero.
const DefaultKeep = 5

// Manager persists a flow's checkpoints in one directory. Every Save
// atomically replaces latest.ckpt; with History enabled each snapshot
// is additionally kept as ckpt-NNNNNN.ckpt, which is how the
// kill-and-resume tests (and post-mortem debugging) pick an arbitrary
// mid-run state to resume from. The numbered history is bounded by
// Keep — a long mGP run with CheckpointEvery set would otherwise grow
// it without limit and fill the disk.
type Manager struct {
	dir string
	// History retains snapshots as numbered files besides latest.ckpt.
	History bool
	// Keep bounds the numbered history: after each successful Save the
	// oldest numbered snapshots are pruned so at most Keep remain.
	// 0 selects DefaultKeep; negative retains everything (the
	// resume-equivalence tests replay arbitrary mid-run states).
	// latest.ckpt is never touched by pruning.
	Keep int

	seq int
}

// NewManager creates (if needed) the checkpoint directory. When the
// directory already holds numbered history (a restarted process
// resuming a run), numbering continues after the highest existing
// snapshot instead of silently overwriting it from ckpt-000001 up.
func NewManager(dir string) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	m := &Manager{dir: dir}
	if files, err := m.HistoryFiles(); err == nil && len(files) > 0 {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(files[len(files)-1]), "ckpt-%d.ckpt", &n); err == nil {
			m.seq = n
		}
	}
	m.sweepTemp()
	return m, nil
}

// sweepTemp removes orphaned write temporaries. writeFile cleans its
// own temp file via defer, but a crash (or kill) between CreateTemp and
// the rename leaves `.ckpt-*.tmp` behind forever — a restarted process
// adopting the directory is the only safe point to collect them, since
// any temp file predating this Manager can no longer be renamed by a
// live writer.
func (m *Manager) sweepTemp() {
	stale, err := filepath.Glob(filepath.Join(m.dir, ".ckpt-*.tmp"))
	if err != nil {
		return
	}
	for _, f := range stale {
		os.Remove(f)
	}
}

// Save atomically persists s as the latest checkpoint, then prunes
// numbered history beyond the Keep bound. Pruning runs only after both
// writes succeeded, so a failed save never costs an older snapshot.
func (m *Manager) Save(s *State) error {
	if m.History {
		m.seq++
		if err := writeFile(filepath.Join(m.dir, fmt.Sprintf("ckpt-%06d.ckpt", m.seq)), s); err != nil {
			return err
		}
	}
	if err := writeFile(filepath.Join(m.dir, LatestName), s); err != nil {
		return err
	}
	return m.prune()
}

// prune removes the oldest numbered snapshots beyond the retention
// bound. latest.ckpt does not match the history glob and is never
// considered.
func (m *Manager) prune() error {
	if !m.History || m.Keep < 0 {
		return nil
	}
	keep := m.Keep
	if keep == 0 {
		keep = DefaultKeep
	}
	files, err := m.HistoryFiles()
	if err != nil {
		return err
	}
	if len(files) <= keep {
		return nil
	}
	for _, f := range files[:len(files)-keep] {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: pruning %s: %w", f, err)
		}
	}
	return nil
}

// Load reads the latest checkpoint.
func (m *Manager) Load() (*State, error) {
	return ReadFile(filepath.Join(m.dir, LatestName))
}

// FinalName is the pinned end-of-run checkpoint written by PinFinal. It
// matches neither LatestName (which later saves replace) nor the
// numbered-history glob (which pruning erodes), so it survives both —
// the anchor anything chaining off a completed run resolves against.
const FinalName = "final.ckpt"

// PinFinal pins the current latest checkpoint as final.ckpt, exempt
// from history pruning and from being replaced by later saves. Call it
// once when a run completes.
func (m *Manager) PinFinal() error {
	s, err := m.Load()
	if err != nil {
		return fmt.Errorf("checkpoint: pinning final: %w", err)
	}
	return writeFile(filepath.Join(m.dir, FinalName), s)
}

// LoadFinal reads the pinned final checkpoint, falling back to
// latest.ckpt when there is none: a run that finished but whose
// PinFinal failed (the job server logs that failure and carries on)
// still leaves its end-of-run snapshot there.
func (m *Manager) LoadFinal() (*State, error) {
	s, err := ReadFile(filepath.Join(m.dir, FinalName))
	if err == nil {
		return s, nil
	}
	if os.IsNotExist(err) {
		return m.Load()
	}
	return nil, err
}

// HistoryFiles lists retained numbered snapshots in save order.
func (m *Manager) HistoryFiles() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(m.dir, "ckpt-*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// Validate checks that the snapshot belongs to d (by name and
// structural fingerprint) and a mid-stage snapshot's Alpha before a
// resume restores any position.
func (s *State) Validate(d *netlist.Design) error {
	if s.DesignName != d.Name {
		return fmt.Errorf("checkpoint: snapshot is for design %q, not %q", s.DesignName, d.Name)
	}
	if fp := Fingerprint(d); fp != s.Fingerprint {
		return fmt.Errorf("checkpoint: design %q does not structurally match the snapshot taken of design %q: the netlist changed since the snapshot (design fingerprint %016x, snapshot fingerprint %016x)",
			d.Name, s.DesignName, fp, s.Fingerprint)
	}
	if s.Level == 0 {
		if base := len(d.Cells); base != s.NumBaseCells {
			return fmt.Errorf("checkpoint: design has %d cells, snapshot expects %d before fillers", base, s.NumBaseCells)
		}
	}
	// Level > 0 snapshots capture a coarsened design's positions; the
	// multilevel driver checks NumBaseCells against the rebuilt level.
	if s.GP != nil {
		return s.GP.checkAlpha()
	}
	return nil
}
