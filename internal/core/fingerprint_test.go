package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/model"
)

// synthesisFingerprint is the SHA-256 over the compact encodings of every
// tree TestSynthesisFingerprint synthesises. It was captured before the
// schedulability analysis became incremental (schedule.Prefix), so it
// pins the synthesis output of the sort-based analysis bit for bit.
const synthesisFingerprint = "55a3c5a679350779fa32e829c70fb9990551577729ebbfd6b5ae633bbcea8ebf"

// TestSynthesisFingerprint pins FTQS output on the §6 setup beyond the
// Fig. 1 golden: the cruise controller plus generated applications, under
// re-execution, restart and checkpoint recovery, on the canonical platform
// and on a two-core biased mapping, for two tree sizes, serial and
// parallel. Any change to what synthesis decides changes the hash.
func TestSynthesisFingerprint(t *testing.T) {
	type namedApp struct {
		name string
		app  *model.Application
	}
	bases := []namedApp{{"cc", apps.CruiseController()}}
	for _, g := range []struct {
		n    int
		seed int64
	}{{10, 1}, {20, 2}, {30, 3}} {
		app, err := gen.Generate(rand.New(rand.NewSource(g.seed)), gen.Default(g.n))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, namedApp{fmt.Sprintf("gen%d-s%d", g.n, g.seed), app})
	}
	plat := model.MustNewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
	recoveries := []model.RecoveryModel{
		model.ReExecutionModel(),
		model.RestartModel(15),
		model.CheckpointModel(40, 3, 7),
	}
	h := sha256.New()
	for _, b := range bases {
		for _, rec := range recoveries {
			for _, mapped := range []bool{false, true} {
				app := b.app
				var err error
				if !rec.IsCanonical() {
					if app, err = app.WithRecovery(rec); err != nil {
						t.Fatal(err)
					}
				}
				if mapped {
					if app, err = app.WithPlatform(plat, model.BiasedMapping(app, plat)); err != nil {
						t.Fatal(err)
					}
				}
				for _, m := range []int{4, 16} {
					var serial []byte
					for _, workers := range []int{1, 0} {
						label := fmt.Sprintf("%s/%s/mapped=%v/M=%d/workers=%d", b.name, rec, mapped, m, workers)
						var buf bytes.Buffer
						tree, err := core.FTQS(app, core.FTQSOptions{M: m, Workers: workers})
						if err != nil {
							fmt.Fprintf(&buf, "error: %v\n", err)
						} else if err := appio.EncodeTreeCompact(&buf, tree); err != nil {
							t.Fatalf("%s: encode: %v", label, err)
						}
						if workers == 1 {
							serial = buf.Bytes()
						} else if !bytes.Equal(serial, buf.Bytes()) {
							t.Fatalf("%s: tree differs from the serial one", label)
						}
						fmt.Fprintf(h, "%s\n", label)
						h.Write(buf.Bytes())
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != synthesisFingerprint {
		t.Errorf("synthesis fingerprint changed:\n got  %s\n want %s", got, synthesisFingerprint)
	}
}
