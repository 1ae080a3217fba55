package ftsched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// signatureOnly lists the exported facade names that no example, README or
// docs/ page spells out as ftsched.<Name>, each kept because a documented
// name cannot be used without it. An entry that is no longer exported, or
// that the documentation has since picked up, fails TestAPISurfaceCovered.
var signatureOnly = []string{
	"UtilityFunction",    // Process.Utility and the MustStepUtility result
	"Core",               // the NewPlatform parameter
	"CoreID",             // the element type of Mapping.Primary/Recovery
	"Platform",           // the NewPlatform and ParseCoreSpec result
	"Mapping",            // the BiasedMapping result, passed to Application.WithPlatform
	"RecoveryModel",      // the ReExecutionModel/RestartModel/CheckpointModel result
	"RecoveryError",      // the typed error of ParseRecoverySpec and RecoveryModel.Validate
	"FSchedule",          // the FTSS and FTSF result, passed to StaticTree and ExpectedUtility
	"Tree",               // the FTQS result, passed to Run, MonteCarlo, Certify, RunChaos
	"Dispatcher",         // the NewDispatcher result
	"DispatcherOption",   // the WithSink and WithEnvelope result
	"RunResult",          // the Run result
	"MCStats",            // the MonteCarlo result
	"MCConfigError",      // the typed error of MonteCarlo
	"MalformedTreeError", // the typed error of NewDispatcher, Run and Certify
	"ScenarioSizeError",  // the typed error of Run
	"EnvelopeConfig",     // the WithEnvelope parameter
	"EnvelopeError",      // the typed error of a PolicyStrict envelope
	"PolicyStrict",       // a value of EnvelopeConfig.Policy and ChaosConfig.Policy
	"PolicyShedSoft",     // a value of EnvelopeConfig.Policy and ChaosConfig.Policy
	"PolicyBestEffort",   // a value of EnvelopeConfig.Policy and ChaosConfig.Policy
	"ChaosConfig",        // the RunChaos and NewChaosCampaign parameter
	"ChaosReport",        // the RunChaos result
	"ChaosCampaign",      // the NewChaosCampaign result
	"ChaosConfigError",   // the typed error of RunChaos and NewChaosCampaign
	"CertifyConfig",      // the Certify parameter
	"CertifyReport",      // the Certify result
	"CertifyConfigError", // the typed error of Certify
	"Counter",            // a parameter of Sink.Add, for custom Sink implementations
	"HistogramMetric",    // a parameter of Sink.Observe/ObserveN, for custom Sinks
}

// TestAPISurfaceCovered walks every exported symbol of the root ftsched
// package and asserts two things:
//
//   - it is exercised (referenced as ftsched.<Symbol>) by at least one root
//     test or example program; a symbol failing here is either dead API —
//     remove it — or an untested entry point — reference it from a test;
//   - it is documented: spelled ftsched.<Symbol> in examples/, README.md or
//     docs/, or listed in signatureOnly because a documented name needs it.
//     An export failing here is undocumented surface — document it or
//     remove it.
func TestAPISurfaceCovered(t *testing.T) {
	exported := facadeExports(t)
	if len(exported) < 40 {
		t.Fatalf("only %d exported symbols found — parsing broken?", len(exported))
	}

	examples, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	testText := readAll(t, append(tests, examples...))
	docPaths := append([]string{"README.md"}, examples...)
	docText := readAll(t, append(docPaths, docs...))

	isExported := map[string]bool{}
	var untested, undocumented []string
	sigOnly := map[string]bool{}
	for _, name := range signatureOnly {
		sigOnly[name] = true
	}
	for _, name := range exported {
		isExported[name] = true
		re := regexp.MustCompile(`\bftsched\.` + regexp.QuoteMeta(name) + `\b`)
		if !re.MatchString(testText) {
			untested = append(untested, name)
		}
		if !re.MatchString(docText) && !sigOnly[name] {
			undocumented = append(undocumented, name)
		}
	}
	if len(untested) > 0 {
		t.Errorf("exported but never referenced in a root test or example:\n  %s",
			strings.Join(untested, "\n  "))
	}
	if len(undocumented) > 0 {
		t.Errorf("exported but neither named as ftsched.<Name> in examples/, README.md or docs/ nor listed in signatureOnly:\n  %s",
			strings.Join(undocumented, "\n  "))
	}
	for _, name := range signatureOnly {
		switch {
		case !isExported[name]:
			t.Errorf("signatureOnly lists %s, which ftsched.go no longer exports", name)
		case regexp.MustCompile(`\bftsched\.` + regexp.QuoteMeta(name) + `\b`).MatchString(docText):
			t.Errorf("signatureOnly lists %s, which the documentation already names; drop the entry", name)
		}
	}
}

// facadeExports returns the exported top-level names declared in the root
// package's non-test files.
func facadeExports(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name != "ftsched" {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					exported = append(exported, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exported = append(exported, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								exported = append(exported, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return exported
}

// readAll concatenates the named files.
func readAll(t *testing.T, paths []string) string {
	t.Helper()
	var sb strings.Builder
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
	}
	return sb.String()
}
