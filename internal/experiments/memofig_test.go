package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/queries"
)

// TestRunFigureMemoMatchesLegacy: a figure run through the memoized
// two-phase pipeline (dedupe, pre-measure, assemble) produces exactly the
// timings of the legacy per-cell path, at every parallelism, with identical
// cache counters — and the cache actually hits, since SSB stages recur
// across queries and engines. The legacy path (no memo) measures every
// stage reference on one reused simulator too, so this is not a comparison
// against fresh simulators; TestReusedSimulatorMatchesFresh is.
func TestRunFigureMemoMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	var qs []queries.Query
	for _, id := range []string{"Q1.1", "Q2.1"} {
		q, err := queries.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	base := FigureConfig{CPUName: "silver", NominalSF: 10, SampleSF: 0.005, Queries: qs}

	legacy, err := RunFigure(base)
	if err != nil {
		t.Fatal(err)
	}
	legacyJSON, err := legacy.Report().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	var memoJSON [][]byte
	var stats []memo.Stats
	for _, parallel := range []int{1, 4} {
		cfg := base
		cfg.Memo = memo.NewCache()
		cfg.Parallel = parallel
		fig, err := RunFigure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fig.String() != legacy.String() {
			t.Fatalf("parallel=%d: memoized figure diverges from legacy:\n%s\nvs\n%s",
				parallel, fig.String(), legacy.String())
		}
		j, err := fig.Report().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		memoJSON = append(memoJSON, j)
		stats = append(stats, fig.MemoStats)
	}
	if stats[0] != stats[1] {
		t.Fatalf("cache counters differ across parallelism: %+v vs %+v", stats[0], stats[1])
	}
	if !bytes.Equal(memoJSON[0], memoJSON[1]) {
		t.Fatal("figure reports differ between Parallel=1 and Parallel=4")
	}
	st := stats[0]
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cache unused: %+v", st)
	}
	// Every stage reference is served from the cache during assembly, so
	// hits must be at least the number of distinct measurements and the
	// entries must equal the misses (each distinct measurement missed once).
	if st.Entries != st.Misses {
		t.Fatalf("entries %d != misses %d — duplicate simulations slipped through", st.Entries, st.Misses)
	}

	// The memoized report is exactly the legacy report plus the memo block.
	rep := &obs.RunReport{}
	if err := json.Unmarshal(memoJSON[0], rep); err != nil {
		t.Fatal(err)
	}
	if rep.Memo == nil {
		t.Fatal("memoized report carries no memo block")
	}
	rep.Memo = nil
	j, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j, legacyJSON) {
		t.Fatal("memoized report (memo block stripped) diverges from the legacy report")
	}
}
