package ftsched_test

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

// TestResilienceCLIEndToEnd replays the README's "Surviving a hostile
// wire" walkthrough verbatim (argument for argument; binaries are
// prebuilt instead of `go run`, and the listen address is an ephemeral
// port read back from ftserved's startup line instead of the documented
// 8433, so parallel test runs cannot collide). It gates the resilience
// acceptance criteria:
//
//   - ftsim -remote through a fault-injecting server with the retrying
//     client prints FTQS rows byte-identical to an unfaulted local run
//   - the ftload -chaos soak — wire faults plus a hard kill+restart of
//     the server mid-run — completes with zero lost responses
//   - a faulted server still drains cleanly on SIGTERM
//
// Skipped with -short.
func TestResilienceCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		return out
	}
	ftserved := build("ftserved")
	ftsim := build("ftsim")
	ftload := build("ftload")

	// go run ./cmd/ftserved -addr 127.0.0.1:8433 -fault-spec '...' -fault-seed 7
	const spec = "latency:p=0.1,ms=5;error:p=0.05;reset:p=0.05;truncate:p=0.03;corrupt:p=0.03"
	served := exec.Command(ftserved, "-addr", "127.0.0.1:0", "-fault-spec", spec, "-fault-seed", "7")
	stderr, err := served.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := served.Start(); err != nil {
		t.Fatalf("starting ftserved: %v", err)
	}
	defer served.Process.Kill()
	rd := bufio.NewReader(stderr)
	var base, startup string
	for base == "" {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("reading ftserved startup (got %q): %v", startup, err)
		}
		startup += line
		if m := regexp.MustCompile(`on (http://[^/]+)/v1/`).FindStringSubmatch(line); m != nil {
			base = m[1]
		}
	}
	if !strings.Contains(startup, "injecting wire faults") {
		t.Errorf("ftserved startup does not announce fault injection:\n%s", startup)
	}
	drained := make(chan string, 1)
	go func() {
		rest, _ := io.ReadAll(rd)
		drained <- string(rest)
	}()

	run := func(binary string, args ...string) string {
		cmd := exec.Command(binary, args...)
		cmd.Dir = bin
		b, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(binary), args, err, b)
		}
		return string(b)
	}

	// go run ./cmd/ftsim -fixture fig1 -scenarios 2000 -remote <base> -retries 8
	remote := run(ftsim, "-fixture", "fig1", "-scenarios", "2000", "-remote", base, "-retries", "8")
	local := run(ftsim, "-fixture", "fig1", "-scenarios", "2000")
	rows := 0
	tableRow := regexp.MustCompile(`^FTQS\s+\d+\s`)
	for _, l := range strings.Split(remote, "\n") {
		if tableRow.MatchString(l) {
			rows++
			if !strings.Contains(local, l+"\n") {
				t.Errorf("faulted remote row differs from unfaulted local run:\n%q\nlocal:\n%s", l, local)
			}
		}
	}
	if rows == 0 {
		t.Errorf("no FTQS rows in faulted remote output:\n%s", remote)
	}

	// go run ./cmd/ftload -chaos -devices 64 -requests 20 -batch 32 -out BENCH_resilience.json
	out := run(ftload, "-chaos", "-devices", "64", "-requests", "20", "-batch", "32", "-out", "BENCH_resilience.json")
	for _, want := range []string{"0 errors", "0 lost", "killing server", "availability 1.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos soak output missing %q:\n%s", want, out)
		}
	}
	var bench struct {
		OK           int64   `json:"ok"`
		Errors       int64   `json:"errors"`
		Lost         int64   `json:"lost_responses"`
		Availability float64 `json:"availability"`
		Chaos        bool    `json:"chaos"`
		Restarts     int     `json:"restarts"`
		Injected     int64   `json:"injected_faults"`
		Retries      int64   `json:"retries"`
	}
	data, err := os.ReadFile(filepath.Join(bin, "BENCH_resilience.json"))
	if err != nil {
		t.Fatalf("reading BENCH_resilience.json: %v", err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("parsing BENCH_resilience.json: %v", err)
	}
	if !bench.Chaos || bench.Restarts < 1 {
		t.Errorf("soak did not kill+restart the server: %+v", bench)
	}
	if bench.OK != 64*20 || bench.Lost != 0 || bench.Errors != 0 || bench.Availability != 1 {
		t.Errorf("soak lost responses: %+v", bench)
	}
	if bench.Injected == 0 {
		t.Errorf("soak injected no wire faults: %+v", bench)
	}

	// A faulted server still drains cleanly on SIGTERM (health and drain
	// paths are exempt from injection).
	if err := served.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// Read the stderr pipe to EOF before Wait: Wait closes the pipe, so
	// waiting first can cut off the last lines of the drain log.
	rest := <-drained
	if err := served.Wait(); err != nil {
		t.Fatalf("ftserved exited non-zero after drain: %v\nstderr tail:\n%s", err, rest)
	}
	if !strings.Contains(rest, "drained, bye") {
		t.Errorf("drain log missing 'drained, bye':\n%s", rest)
	}
}
