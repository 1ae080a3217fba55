package appio

import (
	"bytes"
	"strings"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/utility"
)

func TestRoundTripFig1(t *testing.T) {
	app := apps.Fig1()
	var buf bytes.Buffer
	if err := EncodeApplication(&buf, app); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeApplication(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != app.N() || back.Period() != app.Period() ||
		back.K() != app.K() || back.Mu() != app.Mu() {
		t.Fatal("parameters changed in round trip")
	}
	for id := 0; id < app.N(); id++ {
		a := app.Proc(model.ProcessID(id))
		b := back.Proc(model.ProcessID(id))
		if a.Name != b.Name || a.Kind != b.Kind || a.BCET != b.BCET ||
			a.AET != b.AET || a.WCET != b.WCET || a.Deadline != b.Deadline {
			t.Errorf("process %d changed: %+v vs %+v", id, a, b)
		}
	}
	// Utility functions preserved pointwise.
	for _, id := range app.SoftIDs() {
		ua, ub := app.UtilityOf(id), back.UtilityOf(id)
		for tt := model.Time(0); tt < 400; tt += 7 {
			if ua.Value(tt) != ub.Value(tt) {
				t.Fatalf("utility of %s changed at t=%d", app.Proc(id).Name, tt)
			}
		}
	}
	// Behavioural equivalence: FTSS produces the same schedule.
	s1, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.FTSS(back)
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Errorf("FTSS differs after round trip: %s vs %s", s1, s2)
	}
}

func TestRoundTripCruiseController(t *testing.T) {
	app := apps.CruiseController()
	var buf bytes.Buffer
	if err := EncodeApplication(&buf, app); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeApplication(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 32 || len(back.HardIDs()) != 9 {
		t.Fatal("CC structure changed")
	}
	// Per-process µ overrides preserved.
	for id := 0; id < app.N(); id++ {
		if app.MuOf(model.ProcessID(id)) != back.MuOf(model.ProcessID(id)) {
			t.Errorf("µ of %s changed", app.Proc(model.ProcessID(id)).Name)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown field":   `{"nope": 1}`,
		"unknown kind":    `{"name":"x","period":10,"k":0,"mu":1,"processes":[{"name":"A","kind":"weird","bcet":1,"aet":1,"wcet":1}],"edges":[]}`,
		"soft no utility": `{"name":"x","period":10,"k":0,"mu":1,"processes":[{"name":"A","kind":"soft","bcet":1,"aet":1,"wcet":1}],"edges":[]}`,
		"bad utility":     `{"name":"x","period":10,"k":0,"mu":1,"processes":[{"name":"A","kind":"soft","bcet":1,"aet":1,"wcet":1,"utility":{"mode":"step","points":[]}}],"edges":[]}`,
		"bad mode":        `{"name":"x","period":10,"k":0,"mu":1,"processes":[{"name":"A","kind":"soft","bcet":1,"aet":1,"wcet":1,"utility":{"mode":"wavy","points":[{"t":1,"v":1}]}}],"edges":[]}`,
		"dup process":     `{"name":"x","period":10,"k":0,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5},{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5}],"edges":[]}`,
		"unknown edge":    `{"name":"x","period":10,"k":0,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5}],"edges":[["A","B"]]}`,
		"unknown edge2":   `{"name":"x","period":10,"k":0,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5}],"edges":[["B","A"]]}`,
		"invalid app":     `{"name":"x","period":-10,"k":0,"mu":1,"processes":[{"name":"A","kind":"hard","bcet":1,"aet":1,"wcet":1,"deadline":5}],"edges":[]}`,
	}
	for name, in := range cases {
		if _, err := DecodeApplication(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

func TestWriteTreeDOT(t *testing.T) {
	app := apps.Fig1()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTreeDOT(&buf, tree); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "S0") || !strings.Contains(out, "->") {
		t.Errorf("tree DOT output suspicious:\n%s", out)
	}
}

func TestEncodeRejectsWrappedUtilities(t *testing.T) {
	g := apps.Fig1()
	// Hyper-period merge wraps utilities in utility.Shifted.
	halfPeriod, err := g.WithFaults(g.K(), g.Mu())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Merge("m", 1, 10, halfPeriod, mustHalf(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeApplication(&buf, m); err == nil {
		t.Error("encoding a merged application with shifted utilities should fail")
	}
}

// mustHalf builds a second graph with half of Fig1's period so the merge
// replicates it and shifts its utilities.
func mustHalf(t *testing.T) *model.Application {
	t.Helper()
	a := model.NewApplication("half", 150, 1, 10)
	a.AddProcess(model.Process{Name: "Q", Kind: model.Soft, BCET: 5, AET: 10, WCET: 20,
		Utility: utility.MustStep([]model.Time{100}, []float64{10})})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}
