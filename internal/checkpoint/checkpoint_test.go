package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eplace/internal/nesterov"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

func sampleState() *State {
	return &State{
		Phase:         PhaseMGP,
		DesignName:    "ckpt-test",
		Fingerprint:   0xdeadbeefcafef00d,
		NumBaseCells:  3,
		NumFillers:    1,
		X:             []float64{1.5, -2.25, math.Pi, 0.125},
		Y:             []float64{0, 7.75, -math.E, 1e30},
		MixedSize:     true,
		MGPIterations: 42, MGPFinalLambda: 3.5e-4,
		GP: &GPState{
			Stage: "mGP", Iter: 17,
			Lambda: 1.25e-3, Gamma: 80.5,
			PrevHPWL: 12345.678, HPWL0: 23456.789,
			Best: []float64{1, 2, 3, 4, 5, 6, 7, 8}, BestTau: 0.42, BestTauIter: 11,
			Nesterov: nesterov.State{
				U: []float64{1, 2}, V: []float64{3, 4}, VPrev: []float64{5, 6},
				GradV: []float64{-1, -2}, GradPrev: []float64{-3, -4},
				A: 5.5, Steps: 17, Backtracks: 3, Restarts: 1,
			},
		},
		Golden: telemetry.GoldenState{Stages: []telemetry.StageDigest{
			{Stage: "mIP", Iterations: 1, Digest: 0x1111},
			{Stage: "mGP", Iterations: 17, Digest: 0x2222},
		}},
	}
}

// TestRoundTripFieldByField snapshots, restores, and compares every
// field — gob float64 encoding must be bit-exact.
func TestRoundTripFieldByField(t *testing.T) {
	s := sampleState()
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip changed state:\n in: %+v\nout: %+v", s, got)
	}
	for i := range s.X {
		if math.Float64bits(s.X[i]) != math.Float64bits(got.X[i]) {
			t.Errorf("X[%d] bits changed", i)
		}
	}
}

func TestFileRoundTripAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	s := sampleState()
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("file round trip changed state")
	}
	// No temp droppings left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after write, want 1", len(entries))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"truncated header":  func(b []byte) []byte { return b[:10] },
		"truncated payload": func(b []byte) []byte { return b[:len(b)-5] },
		"bad magic":         func(b []byte) []byte { b[0] ^= 0xff; return b },
		"future version":    func(b []byte) []byte { b[8] = 99; return b },
		"payload bit flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"crc flip":          func(b []byte) []byte { b[20] ^= 0x01; return b },
	}
	for name, mutate := range cases {
		b := mutate(append([]byte(nil), data...))
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted corrupted data", name)
		}
	}
}

// TestDecodeRefusesVersion1: a snapshot written before the golden digest
// was redefined carries rolling hashes no current run continues, so its
// header is refused by version before the payload is looked at.
func TestDecodeRefusesVersion1(t *testing.T) {
	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != FormatVersion || v < 2 {
		t.Fatalf("Encode wrote version %d, FormatVersion is %d, want the same and at least 2", v, FormatVersion)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)
	_, err = Decode(data)
	if want := fmt.Sprintf("format version 1, this build reads %d", FormatVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Decode of a version-1 header: %v, want an error saying %q", err, want)
	}
}

func TestManagerLatestAndHistory(t *testing.T) {
	m, err := NewManager(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	m.History = true
	s := sampleState()
	for i := 0; i < 3; i++ {
		s.GP.Iter = i
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if latest.GP.Iter != 2 {
		t.Errorf("latest has iter %d, want 2", latest.GP.Iter)
	}
	hist, err := m.HistoryFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history has %d files, want 3", len(hist))
	}
	first, err := ReadFile(hist[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.GP.Iter != 0 {
		t.Errorf("first history snapshot has iter %d, want 0", first.GP.Iter)
	}
}

// TestManagerPrunesHistory: the numbered history is bounded by Keep
// (default 5) so a long run with CheckpointEvery set cannot fill the
// disk; the newest snapshots survive and latest.ckpt is untouched.
func TestManagerPrunesHistory(t *testing.T) {
	m, err := NewManager(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	m.History = true
	s := sampleState()
	for i := 0; i < 12; i++ {
		s.GP.Iter = i
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := m.HistoryFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != DefaultKeep {
		t.Fatalf("history has %d files after 12 saves, want %d", len(hist), DefaultKeep)
	}
	// The survivors are the newest: iters 7..11.
	oldest, err := ReadFile(hist[0])
	if err != nil {
		t.Fatal(err)
	}
	if oldest.GP.Iter != 12-DefaultKeep {
		t.Errorf("oldest retained snapshot has iter %d, want %d", oldest.GP.Iter, 12-DefaultKeep)
	}
	// latest.ckpt still loads and is the last save.
	latest, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if latest.GP.Iter != 11 {
		t.Errorf("latest has iter %d, want 11", latest.GP.Iter)
	}

	// An explicit Keep bound applies; negative retains everything.
	m2, _ := NewManager(filepath.Join(t.TempDir(), "c2"))
	m2.History = true
	m2.Keep = 2
	for i := 0; i < 6; i++ {
		s.GP.Iter = i
		if err := m2.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if hist, _ := m2.HistoryFiles(); len(hist) != 2 {
		t.Errorf("Keep=2 retained %d files", len(hist))
	}
	m3, _ := NewManager(filepath.Join(t.TempDir(), "c3"))
	m3.History = true
	m3.Keep = -1
	for i := 0; i < 9; i++ {
		if err := m3.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if hist, _ := m3.HistoryFiles(); len(hist) != 9 {
		t.Errorf("Keep=-1 retained %d files, want all 9", len(hist))
	}
}

// TestManagerSeqContinues: a fresh Manager on an existing directory (a
// restarted process resuming a run) numbers new snapshots after the
// retained ones instead of overwriting them.
func TestManagerSeqContinues(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.History = true
	s := sampleState()
	for i := 0; i < 3; i++ {
		s.GP.Iter = i
		if err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2.History = true
	s.GP.Iter = 99
	if err := m2.Save(s); err != nil {
		t.Fatal(err)
	}
	hist, err := m2.HistoryFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("restarted manager overwrote history: %d files, want 4", len(hist))
	}
	last, err := ReadFile(hist[len(hist)-1])
	if err != nil {
		t.Fatal(err)
	}
	if last.GP.Iter != 99 {
		t.Errorf("newest snapshot has iter %d, want 99", last.GP.Iter)
	}
}

func TestFingerprintAndValidate(t *testing.T) {
	d1 := synth.Generate(synth.Spec{Name: "fp", NumCells: 50})
	d2 := synth.Generate(synth.Spec{Name: "fp", NumCells: 50})
	if Fingerprint(d1) != Fingerprint(d2) {
		t.Fatal("same spec, different fingerprints")
	}
	// Positions must not affect the fingerprint.
	d2.Cells[0].X += 10
	if Fingerprint(d1) != Fingerprint(d2) {
		t.Error("position change altered the fingerprint")
	}
	// Structure must.
	d2.Nets[0].Weight = 7
	if Fingerprint(d1) == Fingerprint(d2) {
		t.Error("net reweighting kept the fingerprint")
	}

	var s State
	s.DesignName = d1.Name
	s.Fingerprint = Fingerprint(d1)
	s.NumBaseCells = len(d1.Cells)
	if err := s.Validate(d1); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
	if err := s.Validate(d2); err == nil {
		t.Error("snapshot accepted onto a structurally different design")
	}
}

func TestCaptureRestorePositions(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "pos", NumCells: 30})
	var s State
	s.CapturePositions(d, 0)
	want := append([]float64(nil), s.X...)
	for i := range d.Cells {
		d.Cells[i].X += 5
	}
	if err := s.RestorePositions(d); err != nil {
		t.Fatal(err)
	}
	for i := range d.Cells {
		if d.Cells[i].X != want[i] {
			t.Fatalf("cell %d x = %v, want %v", i, d.Cells[i].X, want[i])
		}
	}
	d.Cells = d.Cells[:len(d.Cells)-1]
	if err := s.RestorePositions(d); err == nil {
		t.Error("restore accepted a cell-count mismatch")
	}
}
