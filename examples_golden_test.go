package ftsched_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesGolden builds every program under examples/, runs it, and
// compares its stdout byte for byte with testdata/examples/<name>.txt.
// The examples are the facade's documented usage, so any drift here is a
// user-visible behaviour change. Skipped with -short.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dirs, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building examples: %v\n%s", err, b)
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr strings.Builder
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.String())
			}
			if string(got) != string(want) {
				t.Errorf("%s output drifted from its golden:\n--- got ---\n%s--- want ---\n%s",
					name, got, want)
			}
		})
	}
}
