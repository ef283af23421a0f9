// Corruption matrix: seeded damage against the durable artifacts of an
// interrupted sweep — bit flips, truncations, torn appends in the memo
// store; torn checkpoint primaries — followed by a resume. The contract
// under test is the robustness tentpole end to end:
//
//   - the resumed run completes (salvage never fails a sweep),
//   - corrupt records are quarantined into sidecars and surfaced through
//     the report's memo/store block,
//   - the final report is byte-identical to an uninterrupted baseline once
//     the (legitimately run-varying) memo block is stripped,
//   - hefdoctor's verifier flags the damage before the resume and finds a
//     clean store after it.
//
// `make corrupt` runs this file. CORRUPT_SEED reseeds the damage plan;
// CORRUPT_ARTIFACT_DIR keeps the damaged stores and quarantine sidecars
// for post-mortem (CI uploads them on failure).
package doctor

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/store"
	"hef/internal/uarch"
)

func corruptSeed(t *testing.T) uint64 {
	if s := os.Getenv("CORRUPT_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("CORRUPT_SEED %q: %v", s, err)
		}
		return v
	}
	return 20230401
}

// corruptArtifactDir places the run's artifacts under CORRUPT_ARTIFACT_DIR
// when set (so CI can upload them on failure), else in the test's temp dir.
func corruptArtifactDir(t *testing.T) string {
	if dir := os.Getenv("CORRUPT_ARTIFACT_DIR"); dir != "" {
		sub := filepath.Join(dir, t.Name())
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	return t.TempDir()
}

// corruptRand is the repo's seeded splitmix64 draw, so the damage plan is a
// pure function of the seed.
func corruptRand(seed uint64, k int) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(k+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// matrixJobs is the synthetic workload: each job "measures" a handful of
// results through the store-backed memo cache — get-or-compute, exactly how
// the evaluators use it — and returns a deterministic report row.
const matrixJobs = 12

func matrixKey(i, j int) memo.Key {
	var k memo.Key
	r := corruptRand(0xfee1dead, i*31+j)
	for b := 0; b < len(k); b++ {
		k[b] = byte(r >> (8 * (b % 8)))
		if b == 7 {
			r = corruptRand(r, b)
		}
	}
	return k
}

func matrixCompute(i, j int) *uarch.Result {
	r := corruptRand(0xabad1dea, i*31+j)
	return &uarch.Result{
		Cycles:       1000 + r%997,
		Instructions: 3000 + r%89,
		Uops:         3000 + r%89,
		Elems:        4096,
		FreqGHz:      2.1,
	}
}

// matrixRow is the checkpointable outcome of one job. It must be a pure
// function of the job index — cache warmth (hits vs recomputes) varies with
// interruption and salvage and must not leak into it.
type matrixRow struct {
	Name   string `json:"name"`
	Cycles uint64 `json:"cycles"`
}

// runMatrixSweep executes the workload against the memo store in dir,
// optionally interrupting after `stopAfter` completed jobs (0 = run to the
// end). It returns the sweep result and the store's final stats; the store
// is left WITHOUT a clean Close when interrupted, like a killed process.
func runMatrixSweep(t *testing.T, dir, cpPath, resumePath string, stopAfter int) (*sched.SweepResult[*matrixRow], store.MemoStats, *store.MemoStore) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	cache := st.Cache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The interruption is task-side and counted at task start: exactly
	// stopAfter tasks compute, and the next one cancels the sweep and
	// returns the cancellation — deterministic however loaded the machine
	// is.
	var ran atomic.Int64
	var tasks []sched.Task[*matrixRow]
	for i := 0; i < matrixJobs; i++ {
		i := i
		tasks = append(tasks, sched.Task[*matrixRow]{
			ID: fmt.Sprintf("job-%02d", i),
			Run: func(jctx context.Context) (*matrixRow, error) {
				if stopAfter > 0 && ran.Add(1) > int64(stopAfter) {
					cancel()
					<-jctx.Done()
					return nil, jctx.Err()
				}
				row := &matrixRow{Name: fmt.Sprintf("job-%02d", i)}
				for j := 0; j < 5; j++ {
					k := matrixKey(i, j)
					res, ok := cache.Get(k)
					if !ok {
						res = matrixCompute(i, j)
						cache.Put(k, res)
					}
					row.Cycles += res.Cycles
				}
				return row, nil
			},
		})
	}

	cfg := sched.SweepConfig{
		Tool: "corrupt-matrix", Fingerprint: "seeded",
		CheckpointPath: cpPath, ResumePath: resumePath,
		Workers: 1,
	}
	res, err := sched.RunSweep(ctx, cfg, tasks)
	if stopAfter == 0 && err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if stopAfter > 0 && (res == nil || !res.Interrupted) {
		t.Fatalf("sweep was not interrupted as planned: res=%+v err=%v", res, err)
	}
	return res, st.Stats(), st
}

// matrixReport assembles the emitted run report from a completed sweep,
// attaching the memo/store block the way the tools do — at emit time only.
func matrixReport(res *sched.SweepResult[*matrixRow], st *store.MemoStore, cache *memo.Cache) *obs.RunReport {
	rep := obs.NewReport("corrupt-matrix")
	for i := 0; i < matrixJobs; i++ {
		row := res.Results[fmt.Sprintf("job-%02d", i)]
		rep.Runs = append(rep.Runs, obs.Run{Name: row.Name, Cycles: row.Cycles})
	}
	m := obs.MemoFromStats(cache.Stats())
	if m == nil {
		m = &obs.MemoStats{}
	}
	m.Store = obs.StoreFromStats(st.Dir(), st.Stats())
	rep.Memo = m
	return rep
}

// stripMemo renders a report with the run-varying memo block removed; every
// other byte must be interruption- and corruption-invariant.
func stripMemo(t *testing.T, rep *obs.RunReport) []byte {
	t.Helper()
	clone := *rep
	clone.Memo = nil
	data, err := clone.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mutateStore applies one seeded damage case to the artifacts.
func mutateStore(t *testing.T, seed uint64, kind, storeDir, cpPath string) string {
	t.Helper()
	shards, err := filepath.Glob(filepath.Join(storeDir, "memo-*.log"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards to corrupt in %s (err=%v)", storeDir, err)
	}
	pick := func(k int) string { return shards[corruptRand(seed, k)%uint64(len(shards))] }
	switch kind {
	case "flip":
		path := pick(1)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip inside the record region, past the magic, so the damage is a
		// CRC failure, not a header rejection.
		off := len(store.MemoMagic) + int(corruptRand(seed, 2)%uint64(len(data)-len(store.MemoMagic)))
		data[off] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("flipped byte %d of %s", off, filepath.Base(path))
	case "truncate":
		path := pick(3)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut mid-frame: the torn-append shape a kill -9 leaves behind.
		cut := int64(len(store.MemoMagic)) + int64(corruptRand(seed, 4)%uint64(info.Size()-int64(len(store.MemoMagic))))
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("truncated %s to %d bytes", filepath.Base(path), cut)
	case "garbage-append":
		path := pick(5)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 32+corruptRand(seed, 6)%96)
		for i := range junk {
			junk[i] = byte(corruptRand(seed, 7+i))
		}
		if _, err := f.Write(junk); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return fmt.Sprintf("appended %d garbage bytes to %s", len(junk), filepath.Base(path))
	case "tear-checkpoint":
		data, err := os.ReadFile(cpPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cpPath, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		return "tore the checkpoint primary in half"
	default:
		t.Fatalf("unknown mutation %q", kind)
		return ""
	}
}

// TestCorruptionMatrix is the acceptance scenario: interrupt a sweep
// mid-flight (the store is abandoned without Close, like a kill -9),
// damage its artifacts per the seeded plan, resume, and require a complete
// run, quarantined corruption surfaced in the report, and byte-identical
// output outside the memo block.
func TestCorruptionMatrix(t *testing.T) {
	seed := corruptSeed(t)
	base := corruptArtifactDir(t)

	// Uninterrupted baseline.
	blDir := filepath.Join(base, "baseline")
	blStore := filepath.Join(blDir, "memo")
	res, _, st := runMatrixSweep(t, blStore, filepath.Join(blDir, "cp.json"), "", 0)
	baseline := stripMemo(t, matrixReport(res, st, st.Cache()))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, kind := range []string{"flip", "truncate", "garbage-append", "tear-checkpoint"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			dir := filepath.Join(base, kind)
			storeDir := filepath.Join(dir, "memo")
			cp := filepath.Join(dir, "cp.json")

			// Phase 1: interrupted run; the store is deliberately NOT closed.
			res1, _, st1 := runMatrixSweep(t, storeDir, cp, "", matrixJobs/2)
			if len(res1.Results) == 0 || len(res1.Results) == matrixJobs {
				t.Fatalf("interruption landed at %d/%d jobs; cannot exercise resume", len(res1.Results), matrixJobs)
			}
			_ = st1 // abandoned, like a killed process

			what := mutateStore(t, seed, kind, storeDir, cp)
			t.Logf("damage: %s", what)

			// The verifier must see the damage before the resume.
			rep, err := Diagnose(store.OS, storeDir, false)
			if err != nil {
				t.Fatal(err)
			}
			storeCorrupt := rep.Corrupt()
			if kind != "tear-checkpoint" && !storeCorrupt {
				t.Fatalf("hefdoctor saw no corruption after: %s", what)
			}
			if kind == "tear-checkpoint" {
				cprep, err := Diagnose(store.OS, cp, false)
				if err != nil {
					t.Fatal(err)
				}
				if !cprep.Corrupt() {
					t.Fatalf("hefdoctor saw no corruption after: %s", what)
				}
			}

			// Phase 2: resume over the damage. Salvage must carry it.
			res2, stats2, st2 := runMatrixSweep(t, storeDir, cp, cp, 0)
			if len(res2.Results) != matrixJobs {
				t.Fatalf("resumed run completed %d/%d jobs", len(res2.Results), matrixJobs)
			}
			final := matrixReport(res2, st2, st2.Cache())
			if kind != "tear-checkpoint" {
				if stats2.Quarantined == 0 && kind != "truncate" {
					t.Errorf("no quarantine recorded after: %s", what)
				}
				if final.Memo == nil || final.Memo.Store == nil {
					t.Fatal("final report carries no memo/store block")
				}
				if final.Memo.Store.Quarantined != stats2.Quarantined {
					t.Errorf("report shows %d quarantined, store counted %d",
						final.Memo.Store.Quarantined, stats2.Quarantined)
				}
			} else if !res2.RestoredFromBackup {
				t.Error("torn checkpoint resume did not restore from the .bak generation")
			}

			// The deliverable: byte-identical output outside the memo block.
			if got := stripMemo(t, final); !bytes.Equal(got, baseline) {
				t.Errorf("final report differs from the uninterrupted baseline\n--- baseline ---\n%s--- corrupted+resumed ---\n%s", baseline, got)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}

			// After the salvaging run, the verifier must find a clean store.
			rep, err = Diagnose(store.OS, storeDir, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Corrupt() {
				t.Errorf("store still corrupt after the salvaging resume: %+v", rep.Findings)
			}
			// Quarantine sidecars survive as evidence when records were bad.
			if kind == "flip" || kind == "garbage-append" {
				side, _ := filepath.Glob(filepath.Join(storeDir, "*.quarantine"))
				if len(side) == 0 {
					t.Error("no quarantine sidecar preserved")
				}
			}
		})
	}
}

// TestCorruptionMatrixDoctorRepairEquivalence: repairing with hefdoctor
// before the resume must yield the same final bytes as letting the store
// salvage at open — the doctor is a front-loaded version of the same
// salvage, not a different one.
func TestCorruptionMatrixDoctorRepairEquivalence(t *testing.T) {
	seed := corruptSeed(t)
	base := corruptArtifactDir(t)

	run := func(name string, repairFirst bool) []byte {
		dir := filepath.Join(base, name)
		storeDir := filepath.Join(dir, "memo")
		cp := filepath.Join(dir, "cp.json")
		runMatrixSweep(t, storeDir, cp, "", matrixJobs/2)
		mutateStore(t, seed, "flip", storeDir, cp)
		if repairFirst {
			rep, err := Diagnose(store.OS, storeDir, true)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Corrupt() {
				t.Fatalf("doctor repair left corruption: %+v", rep.Findings)
			}
		}
		res, _, st := runMatrixSweep(t, storeDir, cp, cp, 0)
		out := stripMemo(t, matrixReport(res, st, st.Cache()))
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	viaSalvage := run("via-salvage", false)
	viaDoctor := run("via-doctor", true)
	if !bytes.Equal(viaSalvage, viaDoctor) {
		t.Errorf("doctor-repaired and open-salvaged runs diverge:\n%s\nvs\n%s", viaSalvage, viaDoctor)
	}
}
