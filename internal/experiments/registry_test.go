package experiments

import (
	"testing"

	"osnt/internal/stats"
)

// verify must reject every way a table can break the shape contract or
// a check; otherwise TestAllTablesWellFormed and the drivers would
// pass anything.
func TestVerifyRejectsBrokenTables(t *testing.T) {
	row := func(queues, lossless string) []string {
		return []string{queues, "1518", "x", "x", "x", "x", "x", "x", lossless}
	}
	table := func(title string, rows ...[]string) *stats.Table {
		return &stats.Table{
			Title:   title,
			Columns: []string{"queues", "frame(B)", "c2", "c3", "c4", "c5", "c6", "c7", "lossless"},
			Rows:    rows,
		}
	}
	good := table("t", row("2", "true"), row("1", "false"))
	if err := verify(good, rows(2), every("lossless", "true", "false"), checkE14); err != nil {
		t.Fatalf("well-formed table rejected: %v", err)
	}
	emptyCell := row("2", "true")
	emptyCell[3] = ""
	for name, tc := range map[string]struct {
		tbl   *stats.Table
		check func(*stats.Table) error
	}{
		"no title":               {table("", row("2", "true")), nil},
		"no columns":             {&stats.Table{Title: "t", Rows: [][]string{{"1"}}}, nil},
		"no rows":                {table("t"), nil},
		"short row":              {table("t", row("2", "true")[:8]), nil},
		"empty cell":             {table("t", emptyCell), nil},
		"row count":              {good, rows(3)},
		"cell value":             {good, every("lossless", "true")},
		"missing column":         {good, every("conserved", "true")},
		"E14 one queue lossless": {table("t", row("1", "true")), checkE14},
		"E14 two queues lossy":   {table("t", row("2", "false")), checkE14},
	} {
		if err := verify(tc.tbl, tc.check); err == nil {
			t.Errorf("%s: verify accepted a broken table", name)
		}
	}
}
