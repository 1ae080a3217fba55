package appio

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
)

// TestApplicationRecoveryRoundTrip: every recovery model survives the
// application JSON unchanged, and the canonical model writes no recovery
// member at all — the golden fixture must stay byte-identical.
func TestApplicationRecoveryRoundTrip(t *testing.T) {
	base := apps.Fig1()
	for _, m := range []model.RecoveryModel{
		model.RestartModel(25),
		model.RestartModel(0),
		model.CheckpointModel(40, 3, 7),
		model.CheckpointModel(40, 0, 0),
	} {
		app, err := base.WithRecovery(m)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeApplication(&buf, app); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeApplication(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: %v\n%s", m, err, buf.String())
		}
		if back.Recovery() != m {
			t.Errorf("round trip changed the model: %v -> %v", m, back.Recovery())
		}
		// Encoding is canonical: a second pass is byte-identical.
		var again bytes.Buffer
		if err := EncodeApplication(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Errorf("%v: re-encoding is not byte-identical", m)
		}
	}

	// The canonical application's encoding carries neither a recovery nor a
	// muZero member, so the pre-recovery golden fixture decodes and
	// re-encodes byte-identically.
	golden, err := os.ReadFile("testdata/fig1_app.json")
	if err != nil {
		t.Fatal(err)
	}
	app, err := DecodeApplication(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := EncodeApplication(&out, app); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Error("canonical golden fixture no longer re-encodes byte-identically")
	}
	if bytes.Contains(out.Bytes(), []byte("recovery")) || bytes.Contains(out.Bytes(), []byte("muZero")) {
		t.Error("canonical encoding leaks recovery/muZero members")
	}
}

// TestApplicationMuZeroRoundTrip: an explicit µ=0 survives the JSON round
// trip (the muZero flag), and muZero contradicting a non-zero µ is a typed
// decode error.
func TestApplicationMuZeroRoundTrip(t *testing.T) {
	a := model.NewApplication("mu0", 100, 1, 15)
	a.AddProcess(model.Process{Name: "A", Kind: model.Hard, BCET: 1, AET: 2, WCET: 3, Deadline: 50, MuExplicit: true})
	p2 := a.AddProcess(model.Process{Name: "B", Kind: model.Hard, BCET: 1, AET: 2, WCET: 3, Deadline: 60})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeApplication(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"muZero": true`)) {
		t.Fatalf("explicit µ=0 not encoded: %s", buf.String())
	}
	back, err := DecodeApplication(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.MuOf(0); got != 0 {
		t.Errorf("MuOf(A) after round trip = %d, want the explicit 0", got)
	}
	if got := back.MuOf(p2); got != 15 {
		t.Errorf("MuOf(B) after round trip = %d, want the default 15", got)
	}

	const bad = `{"name":"x","period":10,"k":1,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5,"mu":3,"muZero":true}],"edges":[]}`
	var de *DecodeError
	if _, err := DecodeApplication(strings.NewReader(bad)); !errors.As(err, &de) {
		t.Fatalf("muZero+mu: got %v, want *DecodeError", err)
	} else if !strings.Contains(de.Path, "muZero") {
		t.Errorf("error path %q does not name muZero", de.Path)
	}
}

// TestDecodeRecoveryErrors: adversarial recovery members are rejected with
// typed *DecodeError values naming the offending field.
func TestDecodeRecoveryErrors(t *testing.T) {
	const hdr = `{"name":"x","period":100,"k":1,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5}],"edges":[]`
	cases := []struct {
		name, body, path string
	}{
		{"unknown model", `,"recovery":{"model":"martian"}}`, "recovery.model"},
		{"negative latency", `,"recovery":{"model":"restart","latency":-1}}`, "recovery.latency"},
		{"overflow latency", `,"recovery":{"model":"restart","latency":1125899906842624}}`, "recovery.latency"},
		{"zero spacing", `,"recovery":{"model":"checkpoint"}}`, "recovery"},
		{"overhead at spacing", `,"recovery":{"model":"checkpoint","spacing":10,"overhead":10}}`, "recovery"},
		{"overflow rollback", `,"recovery":{"model":"checkpoint","spacing":10,"overhead":1,"rollback":1125899906842624}}`, "recovery.rollback"},
		{"reexec with params", `,"recovery":{"model":"re-execution","latency":3}}`, "recovery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeApplication(strings.NewReader(hdr + tc.body))
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("got %v (%T), want *DecodeError", err, err)
			}
			if de.Path != tc.path {
				t.Errorf("path = %q, want %q (err: %v)", de.Path, tc.path, de)
			}
		})
	}
}

// TestParseRecoverySpecErrors: the CLI spec parser funnels through the same
// typed validation.
func TestParseRecoverySpecErrors(t *testing.T) {
	for _, spec := range []string{
		"martian", "restart", "restart:x", "restart:-5", "restart:1:2",
		"checkpoint", "checkpoint:10", "checkpoint:10:2", "checkpoint:0:0:0",
		"checkpoint:10:10:0", "checkpoint:10:2:-1", "checkpoint:a:b:c",
		"reexec:40", ":5", "re-execution:1:2:3",
	} {
		var de *DecodeError
		if _, err := ParseRecoverySpec(spec); !errors.As(err, &de) {
			t.Errorf("ParseRecoverySpec(%q) = %v, want *DecodeError", spec, err)
		}
	}
	// A DecodeError that wraps a cause without a message of its own prints
	// no empty segment between the path and the cause.
	for spec, want := range map[string]string{
		"checkpoint:0:0:0": "appio: recovery: model: recovery Spacing: must be positive (got 0)",
		"reexec:40":        `appio: recovery: want reexec (got "reexec:40")`,
	} {
		if _, err := ParseRecoverySpec(spec); err == nil || err.Error() != want {
			t.Errorf("ParseRecoverySpec(%q) error = %v, want %s", spec, err, want)
		}
	}
	if _, err := ParseCoreSpec("a:1:1:0,a:1:1:0"); err == nil || err.Error() != `appio: platform: model: duplicate core name "a"` {
		t.Errorf("ParseCoreSpec with a duplicate core: error = %v", err)
	}
	for spec, want := range map[string]model.RecoveryModel{
		"":                    model.ReExecutionModel(),
		"reexec":              model.ReExecutionModel(),
		"re-execution":        model.ReExecutionModel(),
		"restart:25":          model.RestartModel(25),
		"restart:0":           model.RestartModel(0),
		" checkpoint:40:3:7 ": model.CheckpointModel(40, 3, 7),
	} {
		got, err := ParseRecoverySpec(spec)
		if err != nil || got != want {
			t.Errorf("ParseRecoverySpec(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
}

// TestTreeCompactRecovery: trees of recovering applications persist as v4
// and refuse to bind across model changes; canonical trees never mention
// the format.
func TestTreeCompactRecovery(t *testing.T) {
	base := apps.Fig1()
	cp := model.CheckpointModel(40, 3, 7)
	app, err := base.WithRecovery(cp)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.FTQS(app, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeTreeCompact(&buf, tree); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(compactTreeFormatV4)) {
		t.Fatalf("recovering tree not written as v4: %.80s", buf.String())
	}
	back, err := DecodeTree(bytes.NewReader(buf.Bytes()), app)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyTree(back); err != nil {
		t.Fatal(err)
	}
	// Binding to the canonical application, or to a different model, fails.
	var de *DecodeError
	if _, err := DecodeTree(bytes.NewReader(buf.Bytes()), base); !errors.As(err, &de) {
		t.Fatalf("v4 tree bound to a canonical application: %v", err)
	}
	other, err := base.WithRecovery(model.RestartModel(25))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTree(bytes.NewReader(buf.Bytes()), other); !errors.As(err, &de) {
		t.Fatalf("v4 tree bound across recovery models: %v", err)
	}
	// The v1 JSON format predates recovery: a v1 tree never binds to a
	// recovering application.
	if _, err := DecodeTree(bytes.NewReader(v1Fixture(t)), app); !errors.As(err, &de) {
		t.Fatalf("v1 tree bound to a recovering application: %v", err)
	}
	// A canonical tree still writes the old format, byte-identically with
	// the golden fixture's encoding version.
	ctree, err := core.FTQS(base, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := EncodeTreeCompact(&buf, ctree); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(compactTreeFormatV4)) || bytes.Contains(buf.Bytes(), []byte(`"recovery"`)) {
		t.Error("canonical tree encoding mentions v4/recovery")
	}
}
