package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/uarch"
)

var updateStageKeys = flag.Bool("update", false, "rewrite testdata/stagekeys.golden from the current stage plans")

// TestStageKeysGolden pins the memo key of every distinct stage
// measurement of a small figure (silver, SF10, sample 0.005, Q1.1, Q2.1,
// Q3.3 and Q4.1, all four engines) and the figure's cache counters. A key
// names the protocol, machine, program, iteration count and warm ranges of
// a stage, so a change to how stages are translated, sized or warmed moves
// a key here even when the measured numbers happen to agree. The keys are
// read back from the figure's memo cache, so the pin depends on nothing
// but RunFigure.
func TestStageKeysGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	var qs []queries.Query
	for _, id := range []string{"Q1.1", "Q2.1", "Q3.3", "Q4.1"} {
		q, err := queries.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	cache := memo.NewCache()
	fig, err := RunFigure(FigureConfig{CPUName: "silver", NominalSF: 10, SampleSF: 0.005, Queries: qs, Memo: cache})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	cache.Range(func(k memo.Key, _ *uarch.Result) { keys = append(keys, fmt.Sprintf("%x", k[:])) })
	sort.Strings(keys)
	var b bytes.Buffer
	st := fig.MemoStats
	fmt.Fprintf(&b, "stages %d hits %d misses %d\n", st.Entries, st.Hits, st.Misses)
	for _, k := range keys {
		fmt.Fprintln(&b, k)
	}

	path := filepath.Join("testdata", "stagekeys.golden")
	if *updateStageKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("stage keys differ from %s:\ngot:\n%s\nwant:\n%s", path, b.Bytes(), want)
	}
}
