package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
				U: []float64{1, 2}, V: []float64{3, 4}, GradV: []float64{-1, -2},
				Alpha: 0.3125, A: 5.5, Steps: 17, Backtracks: 3,
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
	if err := writeFile(path, s); err != nil {
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

// TestDecodeRefusesOlderVersions: a version-1 snapshot carries rolling
// hashes from before the golden digest was redefined, a version-2 one
// per-cell fixed flags, which a resume of this build does not restore (it
// fixes mLG's macros again by phase), a version-3 one a Poisson solver
// stamp, a version-4 one v_{k-1} and its gradient in place of the
// steplength prediction, and a version-5 one no macro turns, without
// which a resume places on unturned macros. All five headers are refused
// by version before the payload is looked at.
func TestDecodeRefusesOlderVersions(t *testing.T) {
	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != 6 {
		t.Fatalf("Encode wrote version %d, want 6", v)
	}
	for _, old := range []uint32{1, 2, 3, 4, 5} {
		b := slices.Clone(data)
		binary.LittleEndian.PutUint32(b[8:], old)
		_, err = Decode(b)
		if want := fmt.Sprintf("format version %d, this build reads 6", old); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode of a version-%d header: %v, want an error saying %q", old, err, want)
		}
	}
}

// stateV4 is the layout of a format-4 snapshot, as far as it differs:
// its optimizer state holds v_{k-1} (VPrev) and the gradient there
// (GradPrev), and no Alpha.
type stateV4 struct {
	Phase, DesignName string
	GP                *struct {
		Stage    string
		Iter     int
		Nesterov struct {
			U, V, VPrev, GradV, GradPrev []float64
			A                            float64
		}
	}
}

// TestReadFileRefusesFormat4: a snapshot file as a format-4 build wrote
// it, with a valid CRC over a payload of the old layout, is refused by
// its version, and the error names the file.
func TestReadFileRefusesFormat4(t *testing.T) {
	old := stateV4{Phase: PhaseMGP, DesignName: "v4"}
	old.GP = &struct {
		Stage    string
		Iter     int
		Nesterov struct {
			U, V, VPrev, GradV, GradPrev []float64
			A                            float64
		}
	}{Stage: "mGP", Iter: 3}
	n := &old.GP.Nesterov
	n.U, n.V, n.VPrev, n.GradV, n.GradPrev, n.A = []float64{1}, []float64{2}, []float64{3}, []float64{4}, []float64{5}, 1.5
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old); err != nil {
		t.Fatal(err)
	}
	p := payload.Bytes()
	file := make([]byte, 24, 24+len(p))
	copy(file, magic[:])
	binary.LittleEndian.PutUint32(file[8:], 4)
	binary.LittleEndian.PutUint64(file[12:], uint64(len(p)))
	binary.LittleEndian.PutUint32(file[20:], crc32.Checksum(p, castagnoli))
	path := filepath.Join(t.TempDir(), "v4.ckpt")
	if err := os.WriteFile(path, append(file, p...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	if want := "checkpoint: format version 4, this build reads 6 (file " + path + ")"; err == nil || err.Error() != want {
		t.Errorf("ReadFile of a format-4 file: %v, want %q", err, want)
	}
}

// TestManagerLatest: every Save replaces latest.ckpt, which Load reads,
// and the directory holds that one file.
func TestManagerLatest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	if files, err := os.ReadDir(dir); err != nil || len(files) != 1 || files[0].Name() != LatestName {
		t.Errorf("checkpoint dir holds %v (%v), want %s alone", files, err, LatestName)
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

// TestRestoreRejectsMalformedPositions: a Y shorter than X and a
// non-finite position are errors, and the design keeps its positions.
func TestRestoreRejectsMalformedPositions(t *testing.T) {
	d := synth.Generate(synth.Spec{Name: "pos", NumCells: 30})
	var good State
	good.CapturePositions(d, 0)
	for i := range d.Cells {
		d.Cells[i].X += 5
	}
	for name, s := range map[string]State{
		"short Y": {X: good.X, Y: good.Y[:len(good.Y)-1]},
		"NaN x":   {X: append(append([]float64(nil), good.X[:4]...), math.NaN()), Y: good.Y[:5]},
		"Inf y":   {X: good.X[:2], Y: []float64{0, math.Inf(-1)}},
	} {
		if err := s.RestorePositions(d); err == nil {
			t.Errorf("%s: restore accepted it", name)
		}
		if d.Cells[0].X != good.X[0]+5 {
			t.Fatalf("%s: a rejected snapshot moved cell 0", name)
		}
	}
}

// TestGPStateValidate: every one of the four coordinate vectors must
// hold exactly 2n values, and the steplength prediction must be finite
// and non-negative (an *AlphaError otherwise, also from State.Validate).
func TestGPStateValidate(t *testing.T) {
	gp := sampleState().GP
	gp.Best = gp.Best[:2]
	if err := gp.Validate(1); err != nil {
		t.Fatalf("intact state: %v", err)
	}
	for _, v := range []*[]float64{&gp.Nesterov.U, &gp.Nesterov.V, &gp.Nesterov.GradV, &gp.Best} {
		full := *v
		*v = full[:1]
		if err := gp.Validate(1); err == nil {
			t.Errorf("a vector of %d for 1 cell passed", len(*v))
		}
		*v = full
	}
	for _, a := range []float64{0, math.Copysign(0, -1), 1e300} {
		gp.Nesterov.Alpha = a
		if err := gp.Validate(1); err != nil {
			t.Errorf("Alpha %v: %v", a, err)
		}
	}
	d := synth.Generate(synth.Spec{Name: "alpha", NumCells: 20})
	s := State{DesignName: d.Name, Fingerprint: Fingerprint(d), NumBaseCells: len(d.Cells), GP: gp}
	for _, a := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-300} {
		gp.Nesterov.Alpha = a
		for name, err := range map[string]error{"GPState.Validate": gp.Validate(1), "State.Validate": s.Validate(d)} {
			var ae *AlphaError
			if !errors.As(err, &ae) || !(ae.Alpha == a || math.IsNaN(a) && math.IsNaN(ae.Alpha)) {
				t.Errorf("%s with Alpha %v: %v, want an *AlphaError", name, a, err)
			}
		}
	}
}
