package appio

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/sim"
)

// v1Fixture returns the checked-in v1 tree of the Fig. 1 application
// (FTQS, M=8). Nothing writes v1 any more, so this file is the decoder's
// v1 input.
func v1Fixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/fig1_tree_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTreeRoundTrip(t *testing.T) {
	app := apps.Fig8()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeTreeCompact(&buf, tree); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTree(bytes.NewReader(buf.Bytes()), app)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != tree.Size() {
		t.Fatalf("size changed: %d vs %d", back.Size(), tree.Size())
	}
	// The loaded tree passes the full safety audit.
	if err := core.VerifyTree(back); err != nil {
		t.Fatalf("loaded tree fails verification: %v", err)
	}
	// Behavioural equivalence: identical rendering.
	if tree.Format() != back.Format() {
		t.Error("tree format changed in round trip")
	}
}

// TestTreeRoundTripExecution: the stored v1 tree simulates exactly like a
// fresh synthesis with the same options.
func TestTreeRoundTripExecution(t *testing.T) {
	app := apps.Fig1()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTree(bytes.NewReader(v1Fixture(t)), app)
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
		t.Errorf("loaded tree behaves differently: %+v vs %+v", a, b)
	}
}

func TestDecodeTreeErrors(t *testing.T) {
	app := apps.Fig1()
	good := string(v1Fixture(t))

	cases := map[string]string{
		"bad json":      "{",
		"wrong app":     strings.Replace(good, `"app": "paper-fig1"`, `"app": "other"`, 1),
		"wrong k":       strings.Replace(good, `"k": 1`, `"k": 3`, 1),
		"no nodes":      `{"app":"paper-fig1","k":1,"nodes":[]}`,
		"unknown proc":  strings.Replace(good, `"proc": "P3"`, `"proc": "P9"`, 1),
		"unknown kind":  strings.Replace(good, `"kind": "completion"`, `"kind": "weird"`, 1),
		"unknown field": `{"app":"paper-fig1","k":1,"nope":1,"nodes":[]}`,
	}
	for name, in := range cases {
		if _, err := DecodeTree(strings.NewReader(in), app); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
	// Wrong application object entirely.
	if _, err := DecodeTree(strings.NewReader(good), apps.Fig8()); err == nil {
		t.Error("tree bound to wrong application accepted")
	}
}
