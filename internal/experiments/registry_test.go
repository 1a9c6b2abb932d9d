package experiments

import (
	"testing"

	"osnt/internal/stats"
)

// verify must reject every way a table can break the shape contract or
// a check; otherwise TestAllTablesWellFormed and the drivers would
// pass anything.
func TestVerifyRejectsBrokenTables(t *testing.T) {
	columns := []stats.Column{
		{Name: "queues", Verb: "%d"}, {Name: "frame(B)", Verb: "%d"}, {Name: "flow", Verb: "%s"},
		{Name: "imbal", Verb: "%.3f"}, {Name: "lossless", Verb: "%v"},
	}
	row := func(queues, frame int, lossless bool) []any {
		return []any{queues, frame, "eleph-0", 1.0, lossless}
	}
	table := func(title string, rows ...[]any) *stats.Table {
		return &stats.Table{Title: title, Columns: columns, Rows: rows}
	}
	good := table("t", row(2, 1518, true), row(1, 1518, false))
	if err := verify(good, rows(2), every("lossless", true, false), checkE14); err != nil {
		t.Fatalf("well-formed table rejected: %v", err)
	}
	// A nil cell is a value the row does not have: it renders "-".
	noImbal := row(2, 1518, true)
	noImbal[3] = nil
	if err := verify(table("t", noImbal)); err != nil {
		t.Fatalf("nil cell rejected: %v", err)
	}
	emptyCell := row(2, 1518, true)
	emptyCell[2] = ""
	intUnderFloat := row(2, 1518, true)
	intUnderFloat[3] = 3
	// A loss below the column's display precision renders as zero, so a
	// check on the text would pass it.
	lossy := &stats.Table{Title: "t", Columns: []stats.Column{{Name: "loss(%)", Verb: "%.2f"}}, Rows: [][]any{{0.004}}}
	if got := lossy.Cell(0, 0); got != "0.00" {
		t.Fatalf("0.004 under %%.2f renders %q, want 0.00", got)
	}
	for name, tc := range map[string]struct {
		tbl   *stats.Table
		check func(*stats.Table) error
	}{
		"no title":                   {table("", row(2, 1518, true)), nil},
		"no columns":                 {&stats.Table{Title: "t", Rows: [][]any{{1}}}, nil},
		"no rows":                    {table("t"), nil},
		"short row":                  {table("t", row(2, 1518, true)[:4]), nil},
		"empty cell":                 {table("t", emptyCell), nil},
		"int under %.3f":             {table("t", intUnderFloat), nil},
		"row count":                  {good, rows(3)},
		"cell value":                 {good, every("lossless", true)},
		"want of another type":       {good, every("lossless", "true", "false")},
		"missing column":             {good, every("conserved", true)},
		"E13 loss below precision":   {lossy, experiment("e13").Check},
		"E14 one queue lossless":     {table("t", row(1, 1518, true)), checkE14},
		"E14 two queues lossy":       {table("t", row(2, 1518, false)), checkE14},
		"E14 no bandwidth-bound row": {table("t", row(1, 64, false)), checkE14},
	} {
		if err := verify(tc.tbl, tc.check); err == nil {
			t.Errorf("%s: verify accepted a broken table", name)
		}
	}
}
