package osnt_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
// a non-zero exit, never a panic or a silently truncated value.
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
	for _, tc := range []struct {
		cmd  string
		args []string
		flag string
	}{
		{"osnt-gen", []string{"-load", "0"}, "-load"},
		{"osnt-gen", []string{"-load", "-1"}, "-load"},
		{"osnt-gen", []string{"-size", "10"}, "-size"},
		{"osnt-gen", []string{"-size", "20000"}, "-size"},
		{"osnt-mon", []string{"-load", "0"}, "-load"},
		{"osnt-mon", []string{"-filter-dport", "70000"}, "-filter-dport"},
		{"oflops", []string{"-rules", "-3"}, "-rules"},
	} {
		out, err := exec.Command(bin(tc.cmd), tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("%s %v exited 0:\n%s", tc.cmd, tc.args, out)
		}
		if s := string(out); !strings.Contains(s, tc.flag) || strings.Contains(s, "panic:") || strings.Contains(s, "goroutine ") {
			t.Errorf("%s %v: want a message naming %s and no panic, got:\n%s", tc.cmd, tc.args, tc.flag, s)
		}
	}
	// Replay keeps the capture's sizes and spacing, so it ignores -load
	// and -size.
	capture := filepath.Join(dir, "wire.pcap")
	if out, err := exec.Command(bin("osnt-gen"), "-count", "10", "-out", capture).CombinedOutput(); err != nil {
		t.Fatalf("osnt-gen -out: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin("osnt-gen"), "-in", capture, "-load", "0", "-size", "10").CombinedOutput(); err != nil {
		t.Errorf("osnt-gen -in with unused -load/-size: %v\n%s", err, out)
	}
}
