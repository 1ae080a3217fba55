package ftsched_test

import (
	"bytes"
	"errors"
	"testing"

	"ftsched"
)

// TestPublicRecoveryPipeline drives the recovery-model surface end to end
// through the facade: build the three models, attach a checkpoint model to
// the paper's Fig. 1 application, synthesise, persist (v4), dispatch and
// evaluate — and check the canonical model stays byte-identical.
func TestPublicRecoveryPipeline(t *testing.T) {
	if !ftsched.ReExecutionModel().IsCanonical() {
		t.Fatal("re-execution model is not canonical")
	}
	restart := ftsched.RestartModel(25)
	if restart.Kind != ftsched.RecoverRestart || restart.Latency != 25 {
		t.Fatalf("restart constructor diverged: %+v", restart)
	}
	cp := ftsched.CheckpointModel(40, 3, 7)
	if cp.Kind != ftsched.RecoverCheckpoint {
		t.Fatalf("checkpoint constructor diverged: %+v", cp)
	}
	var kind ftsched.RecoveryKind = ftsched.RecoverReExecution
	if kind.String() != "re-execution" {
		t.Fatalf("kind string: %q", kind.String())
	}
	parsed, err := ftsched.ParseRecoverySpec("checkpoint:40:3:7")
	if err != nil {
		t.Fatal(err)
	}
	if parsed != cp {
		t.Fatalf("recovery-spec parse diverged: %v vs %v", parsed, cp)
	}
	var recErr *ftsched.RecoveryError
	if _, err := ftsched.ParseRecoverySpec("checkpoint:0:0:0"); err == nil {
		t.Fatal("checkpoint spacing 0 accepted")
	}
	if err := ftsched.RestartModel(-1).Validate(); !errors.As(err, &recErr) || recErr.Field != "Latency" {
		t.Fatalf("negative latency: got %v, want *RecoveryError on latency", err)
	}

	base := ftsched.PaperFig1()
	var m ftsched.RecoveryModel = ftsched.CheckpointModel(40, 3, 7)
	app, err := base.WithRecovery(m)
	if err != nil {
		t.Fatal(err)
	}
	if app.Recovery() != m || !app.HasRecovery() {
		t.Fatalf("recovery accessor diverged: %v", app.Recovery())
	}

	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ftsched.VerifyTree(tree); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ftsched.WriteTree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ftsched-tree/v4"`)) {
		t.Fatalf("tree of a checkpointing application did not encode as v4: %.80s", buf.String())
	}
	back, err := ftsched.ReadTree(bytes.NewReader(buf.Bytes()), app)
	if err != nil {
		t.Fatal(err)
	}
	// The same bytes must refuse to bind to the canonical application: the
	// guard bounds bake in the checkpoint overheads.
	if _, err := ftsched.ReadTree(bytes.NewReader(buf.Bytes()), base); err == nil {
		t.Fatal("v4 tree bound to an application without its recovery model")
	}

	st, err := ftsched.MonteCarlo(back, ftsched.MCConfig{Scenarios: 800, Faults: 1, Seed: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.HardViolations != 0 {
		t.Fatalf("%d hard violations under the checkpoint model", st.HardViolations)
	}

	// The application JSON round-trips the model exactly, and the canonical
	// application's encoding carries no recovery member at all.
	buf.Reset()
	if err := ftsched.EncodeApplication(&buf, app); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"recovery"`)) {
		t.Fatal("checkpointing application encoded without a recovery member")
	}
	decoded, err := ftsched.DecodeApplication(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Recovery() != m {
		t.Fatalf("recovery did not round-trip: %v", decoded.Recovery())
	}
	buf.Reset()
	if err := ftsched.EncodeApplication(&buf, base); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"recovery"`)) {
		t.Fatal("canonical application encoded a recovery member")
	}
}
