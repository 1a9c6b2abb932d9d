package osnt_test

import (
	"os/exec"
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
