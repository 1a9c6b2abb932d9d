package experiments

import (
	"testing"

	"osnt/internal/race"
)

// TestAllTablesWellFormed is the harness-level smoke test: every
// Registry experiment's full-length table — the one EXPERIMENTS.md
// records — must meet the shape contract cmd/osnt-bench relies on and
// pass the experiment's own Check (line rate, exact loss conservation,
// digest equality, …).
func TestAllTablesWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full E1–E20 evaluation")
	}
	if race.Enabled {
		// Table shape is build-independent and the full-duration E1–E20
		// sweep costs many minutes race-instrumented; the determinism
		// suite is the race-certification path for every sweep.
		t.Skip("full-duration sweep; shape does not depend on -race")
	}
	for _, x := range Registry {
		if err := verify(x.Table(0), x.Check); err != nil {
			t.Errorf("%s: %v", x.ID, err)
		}
	}
}
