package hefd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOptimizeOpReportGolden pins the report bytes of the production
// per-operator pipeline (search, then the Scalar, SIMD and optimum
// measurements) for murmur and probe on silver at 2,048 elements, with an
// unlimited budget and with the budget of 12 that hefbench's hefd-jobs
// workload submits. Each line is the SHA-256 and length of one
// MarshalIndent'ed report, and the last the shared memo cache's counters;
// cmd/hefopt pins its own -json output for the same operators.
func TestOptimizeOpReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("operator searches are slow")
	}
	m, err := New(Config{DataDir: t.TempDir(), LogW: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var b bytes.Buffer
	for _, budget := range []int{0, 12} {
		for _, op := range []string{"murmur", "probe"} {
			spec := JobSpec{CPU: "silver", Ops: []string{op}, Elems: 2048, Budget: budget}
			rep, err := m.optimizeOp(context.Background(), spec, op)
			if err != nil {
				t.Fatalf("%s budget %d: %v", op, budget, err)
			}
			data, err := rep.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s budget=%d %x %d\n", op, budget, sha256.Sum256(data), len(data))
		}
	}
	st := m.cache.Stats()
	fmt.Fprintf(&b, "memo hits %d misses %d entries %d\n", st.Hits, st.Misses, st.Entries)

	path := filepath.Join("testdata", "pipeline.golden")
	if *updateDurable {
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
		t.Errorf("optimizeOp reports differ from %s:\ngot:\n%s\nwant:\n%s", path, b.Bytes(), want)
	}
}
