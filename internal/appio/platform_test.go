package appio

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/sim"
)

// heteroPlatform is the two-core platform the experiments use: a low-power
// core for primaries and a 2x high-performance core for recoveries.
func heteroPlatform(tb testing.TB) *model.Platform {
	tb.Helper()
	plat, err := model.NewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return plat
}

// mappedFig1 is the Fig.1 application bound to the heterogeneous platform
// with the deterministic biased mapping.
func mappedFig1(tb testing.TB) *model.Application {
	tb.Helper()
	app := apps.Fig1()
	plat := heteroPlatform(tb)
	mapped, err := app.WithPlatform(plat, model.BiasedMapping(app, plat))
	if err != nil {
		tb.Fatal(err)
	}
	return mapped
}

// TestMappedApplicationRoundTrip: the JSON platform/mapping fields
// reconstruct the heterogeneous application exactly.
func TestMappedApplicationRoundTrip(t *testing.T) {
	app := mappedFig1(t)
	var buf bytes.Buffer
	if err := EncodeApplication(&buf, app); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"platform"`) || !strings.Contains(buf.String(), `"mapping"`) {
		t.Fatalf("mapped application encoding lacks platform/mapping fields:\n%s", buf.String())
	}
	back, err := DecodeApplication(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasPlatform() || !back.Platform().Equal(app.Platform()) {
		t.Fatalf("platform changed: %v vs %v", back.Platform(), app.Platform())
	}
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if back.CoreOf(pid) != app.CoreOf(pid) || back.RecoveryCoreOf(pid) != app.RecoveryCoreOf(pid) {
			t.Errorf("process %d mapping changed: [%d %d] vs [%d %d]", id,
				back.CoreOf(pid), back.RecoveryCoreOf(pid), app.CoreOf(pid), app.RecoveryCoreOf(pid))
		}
	}
	// The canonical application must keep encoding without the new fields.
	buf.Reset()
	if err := EncodeApplication(&buf, apps.Fig1()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "platform") {
		t.Error("canonical application encoding grew a platform field")
	}
}

// TestTreeV3RoundTrip: trees of mapped applications persist in the v3
// format carrying the platform, and reconstruct exactly.
func TestTreeV3RoundTrip(t *testing.T) {
	app := mappedFig1(t)
	tree, err := core.FTQS(app, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeTreeCompact(&buf, tree); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), compactTreeFormatV3) {
		t.Fatalf("mapped tree did not encode as v3:\n%.200s", buf.String())
	}
	back, err := DecodeTree(bytes.NewReader(buf.Bytes()), app)
	if err != nil {
		t.Fatal(err)
	}
	if !treesIdentical(tree, back) {
		t.Error("v3 round trip changed the tree")
	}
	if err := core.VerifyTree(back); err != nil {
		t.Errorf("loaded v3 tree fails verification: %v", err)
	}
}

// TestTreePlatformContract: a tree binds only to an application with the
// same platform and mapping it was synthesised for — every mismatch is a
// typed rejection, because guard bounds bake in per-core scaled timing.
func TestTreePlatformContract(t *testing.T) {
	mapped := mappedFig1(t)
	canon := apps.Fig1()

	mtree, err := core.FTQS(mapped, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := EncodeTreeCompact(&v3, mtree); err != nil {
		t.Fatal(err)
	}
	ctree, err := core.FTQS(canon, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	v1 := v1Fixture(t)
	var v2 bytes.Buffer
	if err := EncodeTreeCompact(&v2, ctree); err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		data string
		app  *model.Application
	}{
		"v1 onto mapped app":   {string(v1), mapped},
		"v2 onto mapped app":   {v2.String(), mapped},
		"v3 onto canonical":    {v3.String(), canon},
		"v2 carrying platform": {strings.Replace(v3.String(), compactTreeFormatV3, compactTreeFormat, 1), mapped},
		"v3 without platform":  {strings.Replace(v2.String(), compactTreeFormat, compactTreeFormatV3, 1), mapped},
		"tampered mapping":     {strings.Replace(v3.String(), `"mapping":[[0,1],[0,1],[0,1]]`, `"mapping":[[0,1],[1,1],[0,1]]`, 1), mapped},
		"core out of range":    {strings.Replace(v3.String(), `"mapping":[[0,1],[0,1],[0,1]]`, `"mapping":[[0,1],[0,7],[0,1]]`, 1), mapped},
		"short mapping":        {strings.Replace(v3.String(), `"mapping":[[0,1],[0,1],[0,1]]`, `"mapping":[[0,1]]`, 1), mapped},
		"bad platform speed":   {strings.Replace(v3.String(), `"speed":2`, `"speed":-2`, 1), mapped},
	}
	for name, tc := range cases {
		if _, err := DecodeTree(strings.NewReader(tc.data), tc.app); err == nil {
			t.Errorf("%s: decode should fail", name)
		} else if de := new(DecodeError); !asDecodeError(err, &de) {
			t.Errorf("%s: rejection is %T (%v), want *DecodeError", name, err, err)
		}
	}
}

func asDecodeError(err error, target **DecodeError) bool {
	de, ok := err.(*DecodeError)
	if ok {
		*target = de
	}
	return ok
}

// TestGoldenV2Tree: the checked-in v2 file (written by the pre-platform
// encoder) still decodes, matches a fresh synthesis, and today's encoder
// reproduces it byte for byte on the canonical single-core application.
func TestGoldenV2Tree(t *testing.T) {
	data, err := os.ReadFile("testdata/fig1_tree_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	app := apps.Fig1()
	tree, err := DecodeTree(bytes.NewReader(data), app)
	if err != nil {
		t.Fatalf("golden v2 file no longer decodes: %v", err)
	}
	if err := core.VerifyTree(tree); err != nil {
		t.Fatalf("golden tree fails verification: %v", err)
	}
	fresh, err := core.FTQS(app, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !treesIdentical(tree, fresh) {
		t.Error("golden v2 tree diverged from fresh synthesis")
	}
	var out bytes.Buffer
	if err := EncodeTreeCompact(&out, fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Error("v2 encoding of the canonical tree is not byte-identical to the pre-platform golden")
	}
}

// TestGoldenApplication: the checked-in pre-platform application file
// round-trips byte-identically.
func TestGoldenApplication(t *testing.T) {
	data, err := os.ReadFile("testdata/fig1_app.json")
	if err != nil {
		t.Fatal(err)
	}
	app, err := DecodeApplication(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden application no longer decodes: %v", err)
	}
	if app.HasPlatform() {
		t.Error("pre-platform file decoded with an explicit platform")
	}
	var out bytes.Buffer
	if err := EncodeApplication(&out, app); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Error("re-encoding the golden application is not byte-identical")
	}
}

// TestGoldenMCStats: the Monte-Carlo statistics of the golden tree pinned
// before the platform refactor — every field to full float precision. Any
// drift here means the single-core semantics changed.
func TestGoldenMCStats(t *testing.T) {
	data, err := os.ReadFile("testdata/fig1_mcstats.txt")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.FTQS(apps.Fig1(), core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.MonteCarlo(tree, sim.MCConfig{Scenarios: 2000, Faults: 1, Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("mean=%.17g\nstd=%.17g\nmin=%.17g\nmax=%.17g\np05=%.17g\np50=%.17g\np95=%.17g\nhard=%d\n",
		stats.MeanUtility, stats.StdDev, stats.MinUtility, stats.MaxUtility,
		stats.P05, stats.P50, stats.P95, stats.HardViolations)
	if got != string(data) {
		t.Errorf("Monte-Carlo statistics drifted from the pre-platform golden:\n--- got ---\n%s--- want ---\n%s", got, data)
	}
}
