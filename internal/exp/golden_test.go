package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

// TestTablesGolden pins every number Tables 1–3 print: the Kendall tau
// per method and transformation of Tables 1 and 2, and the MRR per
// method of Table 3, as each table's String renders them. A refactor
// that moves one baseline's number fails here instead of passing a
// shape check. Each file in testdata holds what `relsim-bench -table N`
// prints between its header and its elapsed line; a change that is
// meant to move a number names the new value and rewrites the file.
// The tables take about 10 s, so the test skips under -short and under
// the race detector.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("Tables 1–3 take about 10 s")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("Tables 1–3 are too slow under the race detector")
			}
		}
	}
	for _, tc := range []struct {
		file  string
		table func() fmt.Stringer
	}{
		{"table1.golden", func() fmt.Stringer { return Table1() }},
		{"table2.golden", func() fmt.Stringer { return Table2() }},
		{"table3.golden", func() fmt.Stringer { return Table3() }},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.table().String(); got != string(want) {
			t.Errorf("%s changed:\ngot\n%s\nwant\n%s", tc.file, got, want)
		}
	}
}
