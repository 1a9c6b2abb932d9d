package osnt_test

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"osnt/internal/experiments"
)

// goRun builds and runs a main package in-tree, returning its combined
// output. The entry points have zero unit coverage by nature; this is the
// CI backbone's answer: every PR proves they still compile and produce
// their expected output shape.
func goRun(t *testing.T, args ...string) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmd := exec.Command(gobin, append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestOSNTBenchListSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	out := goRun(t, "./cmd/osnt-bench", "-list")
	listed := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, x := range experiments.Registry {
		if !listed[x.ID] {
			t.Errorf("-list output missing %s:\n%s", x.ID, out)
		}
	}
}

func TestOSNTBenchRunsOneExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	// E2 is the cheapest full experiment (a handful of clock samples).
	out := goRun(t, "./cmd/osnt-bench", "-e", "e2")
	if !strings.Contains(out, "E2: clock error") {
		t.Fatalf("unexpected -e e2 output:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 4 {
		t.Fatalf("suspiciously short table (%d lines):\n%s", lines, out)
	}
}

func TestOSNTBenchRejectsUnknownExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmd := exec.Command(gobin, "run", "./cmd/osnt-bench", "-e", "nope")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("unknown experiment exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown experiment") {
		t.Fatalf("missing error message:\n%s", out)
	}
}

func TestExampleQuickstartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	out := goRun(t, "./examples/quickstart")
	for _, want := range []string{"sent", "captured", "switch latency:"} {
		if !strings.Contains(out, want) {
			t.Errorf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

// Out-of-range flags must stop a CLI with a message naming the flag and
// a non-zero exit, never a panic, a silently truncated value or a run
// without end. Every case runs under a timeout, so a CLI that stops
// checking an unbounded run fails here instead of hanging.
func TestCLIsRejectBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"osnt-gen", "osnt-mon", "oflops"} {
		if out, err := exec.Command(gobin, "build", "-o", bin(name), "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	run := func(name string, args ...string) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, bin(name), args...).CombinedOutput()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			t.Errorf("%s %v still running after 30s", name, args)
		}
		return out, err
	}
	for _, tc := range []struct {
		cmd  string
		args []string
		flag string
	}{
		{"osnt-gen", []string{"-load", "0"}, "-load"},
		{"osnt-gen", []string{"-load", "-1"}, "-load"},
		{"osnt-gen", []string{"-size", "10"}, "-size"},
		{"osnt-gen", []string{"-size", "20000"}, "-size"},
		{"osnt-gen", []string{"-count", "0"}, "-count"}, // no -out: a regression must not fill a disk
		{"osnt-gen", []string{"-flows", "0"}, "-flows"},
		{"osnt-gen", []string{"-flows", "-1"}, "-flows"},
		{"osnt-mon", []string{"-load", "0"}, "-load"},
		{"osnt-mon", []string{"-size", "10"}, "-size"},
		{"osnt-mon", []string{"-size", "20000"}, "-size"},
		{"osnt-mon", []string{"-filter-dport", "70000"}, "-filter-dport"},
		{"osnt-mon", []string{"-dur", "0"}, "-dur"},
		{"osnt-mon", []string{"-dur", "-3"}, "-dur"},
		{"osnt-mon", []string{"-snap", "-5"}, "-snap"},
		{"osnt-mon", []string{"-hash", "-3"}, "-hash"},
		{"osnt-mon", []string{"-flows", "-2"}, "-flows"},
		{"osnt-mon", []string{"-flows", "4", "-heavy", "0"}, "-heavy"},
		{"osnt-mon", []string{"-flows", "4", "-heavy", "-2"}, "-heavy"},
		{"oflops", []string{"-rules", "-3"}, "-rules"},
	} {
		out, err := run(tc.cmd, tc.args...)
		if err == nil {
			t.Errorf("%s %v exited 0:\n%s", tc.cmd, tc.args, out)
		}
		if s := string(out); !strings.Contains(s, tc.flag) || strings.Contains(s, "panic:") || strings.Contains(s, "goroutine ") {
			t.Errorf("%s %v: want a message naming %s and no panic, got:\n%s", tc.cmd, tc.args, tc.flag, s)
		}
	}
	// Replay keeps the capture's sizes and spacing, so it ignores -load
	// and -size, and it ends when its records run out, so -count 0 is
	// bounded.
	capture := filepath.Join(dir, "wire.pcap")
	if out, err := run("osnt-gen", "-count", "10", "-out", capture); err != nil {
		t.Fatalf("osnt-gen -out: %v\n%s", err, out)
	}
	for _, scale := range []string{"0", "-1"} {
		out, err := run("osnt-gen", "-in", capture, "-scale", scale)
		if s := string(out); err == nil || !strings.Contains(s, "-scale") || strings.Contains(s, "panic:") {
			t.Errorf("osnt-gen -in -scale %s: want a non-zero exit naming -scale, got %v:\n%s", scale, err, s)
		}
	}
	if out, err := run("osnt-gen", "-in", capture, "-load", "0", "-size", "10"); err != nil {
		t.Errorf("osnt-gen -in with unused -load/-size: %v\n%s", err, out)
	}
	if out, err := run("osnt-gen", "-in", capture, "-count", "0"); err != nil || !strings.Contains(string(out), "sent 10 packets") {
		t.Errorf("osnt-gen -in with -count 0: %v, want the capture's 10 packets sent:\n%s", err, out)
	}
}
