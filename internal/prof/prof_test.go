package prof

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: not written (%v)", p, err)
		}
	}
}

func TestStartOffWritesNothing(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsAreReported(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "p.pprof")
	if _, err := Start(missing, ""); err == nil || !strings.Contains(err.Error(), "cpu profile") {
		t.Fatalf("Start with an uncreatable CPU profile: %v", err)
	}
	stop, err := Start("", missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil || !strings.Contains(err.Error(), "heap profile") {
		t.Fatalf("stop with an uncreatable heap profile: %v", err)
	}

	// A CPU profile whose writes fail: runtime/pprof drops the error, so
	// only stop can report it.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes on")
	}
	stop, err = Start("/dev/full", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil || !strings.Contains(err.Error(), "cpu profile") {
		t.Fatalf("stop with a failing CPU profile write: %v", err)
	}
}
