package appio

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/sim"
)

// treesIdentical compares two trees field for field, including the arc
// arenas.
func treesIdentical(a, b *core.Tree) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Arcs) != len(b.Arcs) {
		return false
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if na.SwitchPos != nb.SwitchPos || na.KRem != nb.KRem ||
			na.Depth != nb.Depth || na.DroppedOnFault != nb.DroppedOnFault ||
			na.Parent != nb.Parent || na.ArcStart != nb.ArcStart || na.ArcEnd != nb.ArcEnd {
			return false
		}
		if len(na.Schedule.Entries) != len(nb.Schedule.Entries) {
			return false
		}
		for j := range na.Schedule.Entries {
			if na.Schedule.Entries[j] != nb.Schedule.Entries[j] {
				return false
			}
		}
	}
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			return false
		}
	}
	return true
}

// TestCompactTreeRoundTrip: the v2 encoding reconstructs the tree exactly —
// same nodes, same full schedules (prefixes re-expanded from parents), same
// arc arena — and the result passes the safety audit.
func TestCompactTreeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		app *model.Application
		m   int
	}{
		{apps.Fig1(), 8},
		{apps.Fig8(), 20},
		{apps.CruiseController(), 24},
	} {
		tree, err := core.FTQS(tc.app, core.FTQSOptions{M: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeTreeCompact(&buf, tree); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeTree(bytes.NewReader(buf.Bytes()), tc.app)
		if err != nil {
			t.Fatalf("%s: %v", tc.app.Name(), err)
		}
		if !treesIdentical(tree, back) {
			t.Errorf("%s: compact round trip changed the tree", tc.app.Name())
		}
		if err := core.VerifyTree(back); err != nil {
			t.Errorf("%s: loaded tree fails verification: %v", tc.app.Name(), err)
		}
	}
}

// TestCompactTreeSmaller: the point of the format — interned names,
// suffix-only schedules and short arc keys must beat the v1 encoding of
// the same tree.
func TestCompactTreeSmaller(t *testing.T) {
	v1 := v1Fixture(t)
	tree, err := DecodeTree(bytes.NewReader(v1), apps.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := EncodeTreeCompact(&v2, tree); err != nil {
		t.Fatal(err)
	}
	if v2.Len()*2 >= len(v1) {
		t.Errorf("compact encoding %d bytes, v1 %d bytes; want at least 2x smaller", v2.Len(), len(v1))
	}
}

// TestCompactTreeExecution: a compact-loaded tree simulates identically.
func TestCompactTreeExecution(t *testing.T) {
	app := apps.Fig8()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeTreeCompact(&buf, tree); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTree(&buf, app)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.MonteCarlo(tree, sim.MCConfig{Scenarios: 1000, Faults: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.MonteCarlo(back, sim.MCConfig{Scenarios: 1000, Faults: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanUtility != b.MeanUtility || a.MeanSwitches != b.MeanSwitches {
		t.Errorf("compact-loaded tree behaves differently: %+v vs %+v", a, b)
	}
}

// TestDecodeTreeCompactErrors: corruption is rejected, not mis-loaded.
func TestDecodeTreeCompactErrors(t *testing.T) {
	app := apps.Fig1()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeTreeCompact(&buf, tree); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"bad json":       `{"format":"ftsched-tree/v2",`,
		"unknown format": strings.Replace(good, "ftsched-tree/v2", "ftsched-tree/v9", 1),
		"wrong app":      strings.Replace(good, `"app":"paper-fig1"`, `"app":"other"`, 1),
		"wrong k":        strings.Replace(good, `"k":1`, `"k":3`, 1),
		"no nodes":       `{"format":"ftsched-tree/v2","app":"paper-fig1","k":1,"procs":["P1"],"nodes":[]}`,
		"unknown proc":   strings.Replace(good, `"P3"`, `"P9"`, 1),
		"unknown field":  strings.Replace(good, `"procs"`, `"nope":1,"procs"`, 1),
	}
	for name, in := range cases {
		if _, err := DecodeTree(strings.NewReader(in), app); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

// TestDecodeTreeV1Golden proves stored old-format files keep loading: the
// checked-in fixture was written by the pre-arena encoder, before the
// compact format existed.
func TestDecodeTreeV1Golden(t *testing.T) {
	data := v1Fixture(t)
	app := apps.Fig1()
	tree, err := DecodeTree(bytes.NewReader(data), app)
	if err != nil {
		t.Fatalf("golden v1 file no longer decodes: %v", err)
	}
	if err := core.VerifyTree(tree); err != nil {
		t.Fatalf("golden tree fails verification: %v", err)
	}
	// The fixture was synthesised with M=8 defaults; the loaded tree must
	// be indistinguishable from a fresh synthesis.
	fresh, err := core.FTQS(app, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Format() != fresh.Format() {
		t.Errorf("golden tree diverged from fresh synthesis:\n--- golden ---\n%s--- fresh ---\n%s",
			tree.Format(), fresh.Format())
	}
	// And the one writer re-encodes it as the v2 golden, byte for byte.
	want, err := os.ReadFile("testdata/fig1_tree_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := EncodeTreeCompact(&out, tree); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("compact re-encoding of the v1 golden differs from fig1_tree_v2.json:\n%s", out.Bytes())
	}
}
