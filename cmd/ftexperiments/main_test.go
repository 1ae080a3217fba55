package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"ftsched/internal/experiments"
)

// parse runs parseFlags on a fresh flag set.
func parse(t *testing.T, args ...string) (options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("ftexperiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return o, fs
}

func TestStudyNamesResolve(t *testing.T) {
	order := []string{"fig9", "table1", "cc", "overhead", "optgap", "hardratio", "ftcost", "energy", "recovery", "chaos"}
	all, err := selectStudies("all")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range all {
		got = append(got, s.Name)
	}
	if !slices.Equal(got, order) {
		t.Errorf("-exp all runs %v, want %v", got, order)
	}
	aliases := map[string]string{"fig9a": "fig9", "fig9b": "fig9", "cruise": "cc"}
	for _, name := range order {
		aliases[name] = name
	}
	for name, want := range aliases {
		studies, err := selectStudies(name)
		if err != nil || len(studies) != 1 || studies[0].Name != want {
			t.Errorf("-exp %s selects %v (%v), want %s", name, studies, err, want)
		}
	}
	for _, s := range experiments.Studies {
		for _, a := range append([]string{s.Name}, s.Aliases...) {
			if aliases[a] != s.Name {
				t.Errorf("study %s answers to %q, which this test does not expect", s.Name, a)
			}
		}
	}
}

func TestErrorAndUsageListEveryStudy(t *testing.T) {
	_, err := selectStudies("fig10")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	_, fs := parse(t)
	usage := fs.Lookup("exp").Usage
	for _, s := range experiments.Studies {
		for _, name := range append([]string{s.Name}, s.Aliases...) {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-experiment error does not list %s: %v", name, err)
			}
			if !strings.Contains(usage, name) {
				t.Errorf("-exp usage does not list %s: %q", name, usage)
			}
		}
	}
	if !strings.Contains(err.Error(), `"fig10"`) || !strings.HasSuffix(usage, " or all") {
		t.Errorf("error %q / usage %q", err, usage)
	}
}

// TestFlagsReachStudies checks which studies each budget flag reaches:
// -apps all but cc and chaos, -m all but table1, -scenarios and -seed all.
func TestFlagsReachStudies(t *testing.T) {
	o, _ := parse(t, "-seed", "7", "-scenarios", "40", "-apps", "1", "-m", "9", "-trim", "-workers", "1")
	none, _ := parse(t)
	for _, s := range experiments.Studies {
		if got := s.Budget.With(none.budget); got != s.Budget {
			t.Errorf("%s: no flags gives %+v, want the default %+v", s.Name, got, s.Budget)
		}
		want := experiments.Budget{Apps: 1, Scenarios: 40, M: 9, Seed: 7, Workers: 1}
		switch s.Name {
		case "cc", "chaos":
			want.Apps = 0
		case "table1":
			want.M = 0
		}
		if got := s.Budget.With(o.budget); got != want {
			t.Errorf("%s: flags give %+v, want %+v", s.Name, got, want)
		}
	}
	if !o.trim || none.trim {
		t.Errorf("-trim parsed as %v, absent as %v", o.trim, none.trim)
	}
	if testing.Short() {
		t.Skip("runs studies")
	}

	// End to end on the cheap studies: the footers echo the flags.
	for name, footer := range map[string]string{
		"cc":    "(40 scenarios, ",
		"chaos": "(40 cycles per policy, seed 7, ",
	} {
		studies, _ := selectStudies(name)
		var out bytes.Buffer
		if err := runStudy(&out, studies[0], o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out.String(), footer) {
			t.Errorf("%s: footer %q missing from\n%s", name, footer, out.String())
		}
	}
	// -trim reaches Table 1's config.
	studies, _ := selectStudies("table1")
	s := studies[0]
	rep, footer, err := s.Run(s.Budget.With(o.budget), o.trim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rep.(*experiments.Table1Result).Cfg
	if !cfg.Trim || cfg.Apps != 1 || cfg.Scenarios != 40 || cfg.Seed != 7 || cfg.M != 0 {
		t.Errorf("table1 ran with %+v", cfg)
	}
	if footer != "1 apps × 30 processes, 40 scenarios" {
		t.Errorf("table1 footer %q", footer)
	}
}

func TestREADMEListsEveryStudy(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range experiments.Studies {
		row := "`ftexperiments -exp " + s.Name
		if !bytes.Contains(readme, []byte(row+"`")) && !bytes.Contains(readme, []byte(row+" ")) {
			t.Errorf("README's artefact table has no %s` row", row)
		}
	}
}
