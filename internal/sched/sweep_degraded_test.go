package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hef/internal/store"
)

// enospcFS is the real filesystem with checkpoint writes failing: every
// CreateTemp (the first step of a rotated save) reports a full disk.
type enospcFS struct{ store.FS }

func (enospcFS) CreateTemp(dir, pattern string) (store.File, error) {
	return nil, errors.New("no space left on device")
}

func degradedTasks(n int) []Task[int] {
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			ID:  fmt.Sprintf("job-%02d", i),
			Run: func(context.Context) (int, error) { return i * i, nil },
		}
	}
	return tasks
}

// A sweep whose checkpoint writes all fail must still complete with every
// result, reporting the failure once via PersistWarning — degraded
// durability, not a failed run.
func TestSweepCompletesWithoutPersistence(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.json")
	res, err := RunSweep(context.Background(), SweepConfig{
		Tool: "tool", Fingerprint: "fp",
		CheckpointPath: cp,
		FS:             enospcFS{store.OS},
		Workers:        2,
	}, degradedTasks(8))
	if err != nil {
		t.Fatalf("degraded sweep failed: %v", err)
	}
	if len(res.Results) != 8 {
		t.Fatalf("got %d results, want 8", len(res.Results))
	}
	for i := 0; i < 8; i++ {
		if v := res.Results[fmt.Sprintf("job-%02d", i)]; v != i*i {
			t.Errorf("job %d = %d, want %d", i, v, i*i)
		}
	}
	if res.PersistWarning == "" {
		t.Error("expected a PersistWarning after checkpoint failures")
	}
	if _, err := os.Stat(cp); !os.IsNotExist(err) {
		t.Errorf("no checkpoint should exist: %v", err)
	}
}

// Resume-load failures are the opposite case: the caller asked to reuse
// prior progress, so an unusable resume file must stay fatal.
func TestSweepResumeLoadFailureIsFatal(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "cp.json")
	if err := os.WriteFile(bad, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := RunSweep(context.Background(), SweepConfig{
		Tool: "tool", Fingerprint: "fp",
		ResumePath: bad,
	}, degradedTasks(2))
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("corrupt resume file: err=%v, want ErrCorrupt", err)
	}
}

// A torn primary with an intact .bak resumes from the rotation and says so.
func TestSweepResumesFromBackupGeneration(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "cp.json")
	tasks := degradedTasks(4)

	res1, err := RunSweep(context.Background(), SweepConfig{
		Tool: "tool", Fingerprint: "fp",
		CheckpointPath: cp,
	}, tasks)
	if err != nil || len(res1.Results) != 4 {
		t.Fatalf("seed sweep: %v (%d results)", err, len(res1.Results))
	}
	// The final flush rotated the second-to-last generation to .bak. Tear
	// the primary; resume must use the backup and re-run only what it lacks.
	if err := os.WriteFile(cp, []byte(`{"schema":"hef.sched.checkpoint",`), 0o644); err != nil {
		t.Fatal(err)
	}
	res2, err := RunSweep(context.Background(), SweepConfig{
		Tool: "tool", Fingerprint: "fp",
		CheckpointPath: cp, ResumePath: cp,
	}, tasks)
	if err != nil {
		t.Fatalf("resume sweep: %v", err)
	}
	if !res2.RestoredFromBackup {
		t.Error("resume did not report the backup generation")
	}
	if res2.Resumed == 0 || res2.Resumed+res2.Executed != 4 {
		t.Errorf("resumed=%d executed=%d, want them to partition 4 jobs", res2.Resumed, res2.Executed)
	}
	for i := 0; i < 4; i++ {
		if v := res2.Results[fmt.Sprintf("job-%02d", i)]; v != i*i {
			t.Errorf("job %d = %d, want %d", i, v, i*i)
		}
	}
}
