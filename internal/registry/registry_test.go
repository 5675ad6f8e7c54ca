package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// testArtifact encodes a small (untrained — weights don't matter here)
// network artifact whose Meta tags which generation it represents.
func testArtifact(t *testing.T, tag string) []byte {
	t.Helper()
	net := nn.NewMLP(xrand.New(7), nn.Tanh, 0.1, 2, 6, 1)
	c := net.Compile()
	data, err := nn.EncodeArtifact(&nn.Artifact{Meta: []byte(tag), Compiled: c, Quant: c.Quantize(nil)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func artifactTag(t *testing.T, data []byte) string {
	t.Helper()
	a, err := nn.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("served artifact does not decode: %v", err)
	}
	return string(a.Meta)
}

func TestPublishLatestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a1 := testArtifact(t, "g1")
	a2 := testArtifact(t, "g2")
	if g, err := r.Publish("pot", a1); err != nil || g != 1 {
		t.Fatalf("publish 1: gen=%d err=%v", g, err)
	}
	if g, err := r.Publish("pot", a2); err != nil || g != 2 {
		t.Fatalf("publish 2: gen=%d err=%v", g, err)
	}
	h, err := r.Latest("pot")
	if err != nil {
		t.Fatal(err)
	}
	if h.Gen != 2 || !bytes.Equal(h.Data, a2) {
		t.Fatalf("latest gen=%d bytes-equal=%v", h.Gen, bytes.Equal(h.Data, a2))
	}
	// The mmap'd bytes must decode and serve (zero-copy aliasing over
	// the mapping).
	a, err := nn.DecodeArtifact(h.Data)
	if err != nil {
		t.Fatal(err)
	}
	a.Compiled.PredictBatch(tensor.FromRows([][]float64{{0.1, -0.2}}), nil)
	if _, err := r.Latest("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing name: %v", err)
	}
	st := r.Stats()
	if st.Publishes != 2 || st.Opens != 1 || st.Quarantines != 0 {
		t.Fatalf("stats %+v", st)
	}

	// A fresh registry over the same dir recovers state from the manifest.
	r2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if g, ok := r2.CurrentGeneration("pot"); !ok || g != 2 {
		t.Fatalf("recovered gen %d ok=%v", g, ok)
	}
	if g, err := r2.Publish("pot", a1); err != nil || g != 3 {
		t.Fatalf("post-restart publish: gen=%d err=%v", g, err)
	}
}

func TestGCRetention(t *testing.T) {
	r, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const published = DefaultKeep + 3
	for i := 0; i < published; i++ {
		if _, err := r.Publish("m", testArtifact(t, "x")); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := r.scanGens(r.nameDir("m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != DefaultKeep || gens[0] != published-DefaultKeep+1 || gens[DefaultKeep-1] != published {
		t.Fatalf("retained %v, want the newest %d of %d", gens, DefaultKeep, published)
	}
}

// The crash-consistency property: a publish killed at every single
// filesystem operation leaves the store serving either the previous
// generation or — only when the kill landed after the commit — the
// complete new one. Never a corrupt artifact, never nothing.
func TestCrashConsistency(t *testing.T) {
	a1 := testArtifact(t, "g1")
	a2 := testArtifact(t, "g2")

	// Count the ops of one clean gen-2 publish to size the sweep.
	ffs := chaos.NewFaultFS(nil)
	r, err := Open(Config{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("m", a1); err != nil {
		t.Fatal(err)
	}
	ffs.Disarm()
	if _, err := r.Publish("m", a2); err != nil {
		t.Fatal(err)
	}
	ops := ffs.Ops()
	r.Close()
	if ops < 10 {
		t.Fatalf("publish only took %d fs ops — the protocol lost steps?", ops)
	}

	for k := 1; k <= ops; k++ {
		dir := t.TempDir()
		ffs := chaos.NewFaultFS(nil)
		r1, err := Open(Config{Dir: dir, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		if g, err := r1.Publish("m", a1); err != nil || g != 1 {
			t.Fatalf("k=%d: base publish gen=%d err=%v", k, g, err)
		}
		ffs.Arm(k)
		_, pubErr := r1.Publish("m", a2)
		crashed := ffs.Crashed()
		if !crashed && pubErr != nil {
			t.Fatalf("k=%d: clean publish failed: %v", k, pubErr)
		}
		r1.Close()

		// Restart: a fresh registry over the real filesystem, exactly
		// what the process sees after the simulated kill.
		r2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		h, err := r2.Latest("m")
		if err != nil {
			t.Fatalf("k=%d: no servable generation after crash: %v", k, err)
		}
		switch h.Gen {
		case 1:
			if !bytes.Equal(h.Data, a1) || artifactTag(t, h.Data) != "g1" {
				t.Fatalf("k=%d: generation 1 served corrupt", k)
			}
			if !crashed {
				t.Fatalf("k=%d: clean publish lost generation 2", k)
			}
		case 2:
			if !bytes.Equal(h.Data, a2) || artifactTag(t, h.Data) != "g2" {
				t.Fatalf("k=%d: generation 2 served corrupt", k)
			}
		default:
			t.Fatalf("k=%d: impossible generation %d", k, h.Gen)
		}
		// A subsequent publish must still work and outrank whatever
		// survived (monotonic generation numbers even across crashes).
		g3, err := r2.Publish("m", testArtifact(t, "g3"))
		if err != nil {
			t.Fatalf("k=%d: post-recovery publish: %v", k, err)
		}
		if g3 <= h.Gen {
			t.Fatalf("k=%d: post-recovery generation %d not above %d", k, g3, h.Gen)
		}
		h3, err := r2.Latest("m")
		if err != nil || h3.Gen != g3 {
			t.Fatalf("k=%d: post-recovery latest: %+v, %v", k, h3, err)
		}
		r2.Close()
	}
}

// A committed artifact corrupted at rest (bit rot, torn overwrite) is
// quarantined on open and the previous generation served instead; the
// quarantine counter increments and the manifest is repointed.
func TestCorruptArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a1 := testArtifact(t, "g1")
	r.Publish("m", a1)
	r.Publish("m", testArtifact(t, "g2"))
	r.Close()

	// Flip a byte in the committed gen-2 artifact.
	path := filepath.Join(dir, "m", "gen-000000000002.art")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	h, err := r2.Latest("m")
	if err != nil {
		t.Fatal(err)
	}
	if h.Gen != 1 || !bytes.Equal(h.Data, a1) {
		t.Fatalf("served gen %d after corruption, want clean 1", h.Gen)
	}
	if st := r2.Stats(); st.Quarantines != 1 {
		t.Fatalf("quarantines=%d, want 1", st.Quarantines)
	}
	if _, err := os.Stat(filepath.Join(dir, "m", "quarantine", "gen-000000000002.art")); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	// The repointed manifest makes the next open land on gen 1 directly.
	r3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if g, ok := r3.CurrentGeneration("m"); !ok || g != 1 {
		t.Fatalf("manifest not repointed: gen=%d ok=%v", g, ok)
	}
	if st := r3.Stats(); st.Quarantines != 0 {
		t.Fatal("healed store should not quarantine again")
	}
}

// Short reads (torn read of a durable file) are caught by the checksum
// walk and fall back like any other corruption.
func TestShortReadQuarantined(t *testing.T) {
	dir := t.TempDir()
	ffs := chaos.NewFaultFS(nil)
	r, err := Open(Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Publish("m", testArtifact(t, "g1"))
	r.Publish("m", testArtifact(t, "g2"))
	ffs.SetShortRead(0.6)
	// Both generations read short now, so nothing is servable — but the
	// store must degrade with an error, not serve a truncated artifact.
	if _, err := r.Latest("m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("short reads served something: %v", err)
	}
	if st := r.Stats(); st.Quarantines != 2 {
		t.Fatalf("quarantines=%d, want 2", st.Quarantines)
	}
}

// A corrupt manifest is recovered by directory scan: the newest intact
// artifact wins.
func TestManifestCorruptRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a2 := testArtifact(t, "g2")
	r.Publish("m", testArtifact(t, "g1"))
	r.Publish("m", a2)
	r.Close()
	if err := os.WriteFile(filepath.Join(dir, "m", "MANIFEST"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	h, err := r2.Latest("m")
	if err != nil || h.Gen != 2 || !bytes.Equal(h.Data, a2) {
		t.Fatalf("scan recovery: gen=%v err=%v", h, err)
	}
}

func TestRollback(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a2 := testArtifact(t, "g2")
	r.Publish("m", testArtifact(t, "g1"))
	r.Publish("m", a2)
	r.Publish("m", testArtifact(t, "g3"))

	pred, err := r.Rollback("m")
	if err != nil || pred != 2 {
		t.Fatalf("rollback: %d, %v", pred, err)
	}
	h, err := r.Latest("m")
	if err != nil || h.Gen != 2 || !bytes.Equal(h.Data, a2) {
		t.Fatalf("post-rollback latest: %+v, %v", h, err)
	}
	// The condemned generation is quarantined, not just skipped.
	if _, err := os.Stat(filepath.Join(dir, "m", "quarantine", "gen-000000000003.art")); err != nil {
		t.Fatalf("condemned gen not quarantined: %v", err)
	}
	// Generation numbers stay monotonic across rollback.
	if g, err := r.Publish("m", testArtifact(t, "g4")); err != nil || g != 4 {
		t.Fatalf("post-rollback publish: gen=%d err=%v", g, err)
	}
	if pred, err := r.Rollback("m"); err != nil || pred != 2 {
		t.Fatalf("rollback 2: %d, %v", pred, err)
	}
	if pred, err := r.Rollback("m"); err != nil || pred != 1 {
		t.Fatalf("rollback 3: %d, %v", pred, err)
	}
	if _, err := r.Rollback("m"); !errors.Is(err, ErrNoPredecessor) {
		t.Fatalf("rollback off the bottom: %v", err)
	}
	st := r.NameStats("m")
	if st.Rollbacks != 3 || st.Publishes != 4 {
		t.Fatalf("name stats %+v", st)
	}
}
