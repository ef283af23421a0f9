package sched_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hef/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep.golden from the current checkpoint bytes")

// goldenResult is a task value with the field kinds sweep results carry:
// strings, integers and floats that must round-trip through the checkpoint.
type goldenResult struct {
	Node    string  `json:"node"`
	Cycles  int64   `json:"cycles"`
	Speedup float64 `json:"speedup"`
}

// goldenTasks is a fixed sweep of eight tasks over two CPUs. When cancel is
// non-nil, the task at position killAt cancels the sweep's context instead
// of completing, so exactly killAt tasks finish before the interruption.
func goldenTasks(killAt int, cancel context.CancelFunc) []sched.Task[goldenResult] {
	var tasks []sched.Task[goldenResult]
	for _, cpu := range []string{"silver", "gold"} {
		for j, op := range []string{"murmur", "crc64", "probe", "filter"} {
			i := len(tasks)
			res := goldenResult{
				Node:    fmt.Sprintf("n(%d,%d,%d)", j%2, 1+j%3, 1+i%4),
				Cycles:  int64(1000*(i+1) + 37*j),
				Speedup: 1 + float64(i)/8,
			}
			tasks = append(tasks, sched.Task[goldenResult]{
				ID: cpu + "/" + op,
				Run: func(ctx context.Context) (goldenResult, error) {
					if cancel != nil && i == killAt {
						cancel()
						<-ctx.Done()
						return goldenResult{}, ctx.Err()
					}
					return res, nil
				},
			})
		}
	}
	return tasks
}

// TestSweepCheckpointGolden pins the checkpoint bytes of a one-worker sweep,
// of the same sweep cancelled by its own task after three completions, and
// of the resume of that run. The resume must rebuild the uninterrupted
// run's results and checkpoint exactly.
func TestSweepCheckpointGolden(t *testing.T) {
	const killAt = 3
	dir := t.TempDir()
	cfg := func(path, resume string) sched.SweepConfig {
		return sched.SweepConfig{Tool: "golden", Fingerprint: "elems=4096 seed=1", CheckpointPath: path, ResumePath: resume}
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	full := filepath.Join(dir, "full.ckpt")
	want, err := sched.RunSweep(context.Background(), cfg(full, ""), goldenTasks(-1, nil))
	if err != nil {
		t.Fatal(err)
	}

	killedPath := filepath.Join(dir, "killed.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed, err := sched.RunSweep(ctx, cfg(killedPath, ""), goldenTasks(killAt, cancel))
	if err == nil || !killed.Interrupted {
		t.Fatalf("killed run: err=%v, want an interruption", err)
	}
	if len(killed.Results) != killAt {
		t.Fatalf("killed run completed %d tasks, want %d", len(killed.Results), killAt)
	}
	killedBytes := read(killedPath)

	resumed, err := sched.RunSweep(context.Background(), cfg(killedPath, killedPath), goldenTasks(-1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != killAt || resumed.Executed != len(want.Results)-killAt {
		t.Errorf("resume: %d resumed + %d executed, want %d + %d", resumed.Resumed, resumed.Executed, killAt, len(want.Results)-killAt)
	}
	if !reflect.DeepEqual(resumed.Results, want.Results) {
		t.Errorf("resumed results differ from the uninterrupted run:\n%v\nvs\n%v", resumed.Results, want.Results)
	}

	var got bytes.Buffer
	for _, sec := range []struct {
		name string
		data []byte
	}{{"sweep", read(full)}, {"killed", killedBytes}, {"resumed", read(killedPath)}} {
		fmt.Fprintf(&got, "-- %s --\n%s", sec.name, sec.data)
	}
	golden := filepath.Join("testdata", "sweep.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), read(golden)) {
		t.Errorf("checkpoint bytes differ from %s (rerun with -update after an intended format change):\n%s", golden, got.Bytes())
	}
}
