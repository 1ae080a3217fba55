package ftsched_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestTooling folds `go vet ./...` (for this module and the perfbench
// module) and a gofmt check into the tier-1 gate (`go test ./...`), so vet
// regressions, a broken benchmark build and formatting drift fail CI
// without a separate pipeline step. Skipped with -short.
func TestTooling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs external tooling")
	}
	t.Run("vet", func(t *testing.T) {
		cmd := exec.Command("go", "vet", "./...")
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go vet ./...: %v\n%s", err, b)
		}
	})
	// perfbench is its own module, so `go vet ./...` above never builds it;
	// vetting it here catches a change that deletes a symbol it imports.
	t.Run("perfbench", func(t *testing.T) {
		cmd := exec.Command("go", "vet", "./...")
		cmd.Dir = "perfbench"
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go vet ./... in perfbench: %v\n%s", err, b)
		}
	})
	t.Run("gofmt", func(t *testing.T) {
		gofmt, err := exec.LookPath("gofmt")
		if err != nil {
			gofmt = filepath.Join(runtime.GOROOT(), "bin", "gofmt")
		}
		b, err := exec.Command(gofmt, "-l", ".").CombinedOutput()
		if err != nil {
			t.Fatalf("gofmt -l .: %v\n%s", err, b)
		}
		if out := strings.TrimSpace(string(b)); out != "" {
			t.Errorf("files need gofmt:\n%s", out)
		}
	})
}
