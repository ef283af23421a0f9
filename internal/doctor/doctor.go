// Package doctor verifies — and, on request, repairs — the artifacts the
// pipeline writes to disk: durable memo stores (internal/store shard logs),
// sweep checkpoints (internal/sched), machine-readable run reports
// (internal/obs, including the BENCH_*.json snapshots), JSON-line streams
// (go test -json captures), and the services' record files (hefd.go). It
// is the library behind cmd/hefdoctor.
//
// Verification is read-only and classifies each artifact by content, not
// file name, so a misnamed artifact is still diagnosed correctly. Repair
// applies the same salvage the runtime layers apply at open — truncate a
// record log to its longest valid prefix (preserving the bad suffix in a
// .quarantine sidecar), restore a torn checkpoint from its .bak rotation,
// trim a torn JSON-line stream to its last intact line — so a repaired
// artifact loads cleanly without further salvage work.
package doctor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"

	"hef/internal/dist"
	"hef/internal/hefd"
	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/store"
)

// Status classifies one finding.
type Status string

const (
	// StatusOK marks a healthy artifact.
	StatusOK Status = "ok"
	// StatusCorrupt marks damage that was found and not fixed — either
	// repair was not requested, or the damage is unrepairable (regenerate
	// the artifact instead).
	StatusCorrupt Status = "corrupt"
	// StatusRepaired marks damage that was found and fixed in place.
	StatusRepaired Status = "repaired"
)

// Finding is the diagnosis of one artifact file.
type Finding struct {
	Path string
	// Kind is the detected artifact type: "memo-shard", "checkpoint",
	// "run-report", "json-lines", "job-log", "sweep-journal",
	// "admission-state", or "unknown".
	Kind   string
	Status Status
	// Detail explains the diagnosis (what was found, what a repair did or
	// would do).
	Detail string
}

// Report collects the findings of one Diagnose call.
type Report struct {
	Findings []Finding
}

// Corrupt reports whether any artifact remains damaged (StatusCorrupt).
// Repaired artifacts do not count: after a successful -repair pass the
// report is clean.
func (r *Report) Corrupt() bool {
	for _, f := range r.Findings {
		if f.Status == StatusCorrupt {
			return true
		}
	}
	return false
}

// Diagnose inspects one path — a memo store directory or a single artifact
// file — and returns a finding per artifact. With repair set, damaged
// artifacts are fixed in place where possible. The returned error covers
// unreachable paths only; damage is reported through findings.
func Diagnose(fsys store.FS, path string, repair bool) (*Report, error) {
	info, err := fsys.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("doctor: %v", err)
	}
	rep := &Report{}
	if info.IsDir() {
		entries, err := fsys.ReadDir(path)
		if err != nil {
			return nil, fmt.Errorf("doctor: %v", err)
		}
		found := false
		for _, e := range entries {
			if e.IsDir() || !store.IsShardFile(e.Name()) {
				continue
			}
			found = true
			rep.Findings = append(rep.Findings, checkShard(fsys, filepath.Join(path, e.Name()), repair))
		}
		if !found {
			return nil, fmt.Errorf("doctor: %s: no memo shard logs found", path)
		}
		return rep, nil
	}
	rep.Findings = append(rep.Findings, checkFile(fsys, path, repair))
	return rep, nil
}

// checkFile diagnoses a single artifact file by content.
func checkFile(fsys store.FS, path string, repair bool) Finding {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return Finding{Path: path, Kind: "unknown", Status: StatusCorrupt, Detail: fmt.Sprintf("unreadable: %v", err)}
	}
	if store.IsShardFile(path) || bytes.HasPrefix(data, []byte(store.MemoMagic)) {
		return checkShard(fsys, path, repair)
	}
	// The service record files dispatch by name first: a torn jobs.log,
	// sweep.log or admission.state can lack any intact record to classify
	// by, and the names are fixed by the services rather than chosen by
	// users.
	switch filepath.Base(path) {
	case hefd.JobLogName:
		return checkJobLog(fsys, path, data, repair)
	case dist.JournalName:
		return checkJournal(fsys, path, data, repair)
	case hefd.AdmissionStateName:
		return checkAdmissionState(fsys, path, data, repair)
	}
	// A single JSON document with a schema field is a checkpoint or a run
	// report; which one decides the validation applied.
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err == nil {
		switch head.Schema {
		case sched.CheckpointSchema:
			return checkCheckpoint(fsys, path, data, repair)
		case obs.Schema:
			return checkRunReport(path, data)
		default:
			return Finding{Path: path, Kind: "unknown", Status: StatusCorrupt,
				Detail: fmt.Sprintf("well-formed JSON with unrecognized schema %q", head.Schema)}
		}
	}
	// Undecodable as one document: a torn checkpoint (recoverable from its
	// .bak rotation), a misnamed service record file, a JSON-line stream, or
	// a torn stream.
	if bak, err := fsys.ReadFile(path + store.BackupSuffix); err == nil {
		if _, perr := sched.ParseCheckpoint(bak); perr == nil {
			return repairCheckpointFromBackup(fsys, path, bak, repair)
		}
	}
	var jobs hefd.JobLogSummary
	if store.ScanRecords(data, jobs.Add); jobs.Records > 0 {
		return checkJobLog(fsys, path, data, repair)
	}
	var sweep dist.JournalSummary
	if store.ScanRecords(data, sweep.Add); sweep != (dist.JournalSummary{}) {
		return checkJournal(fsys, path, data, repair)
	}
	if _, err := hefd.ParseAdmissionState(data); err == nil && len(data) > 0 {
		return checkAdmissionState(fsys, path, data, repair)
	}
	return checkJSONLines(fsys, path, data, repair)
}

// checkShard diagnoses one memo record log: magic header, then CRC-framed
// records whose payloads must decode as (fingerprint, result). Repair is
// the same salvage Open performs — quarantine the invalid suffix, truncate
// to the valid prefix.
func checkShard(fsys store.FS, path string, repair bool) Finding {
	f := Finding{Path: path, Kind: "memo-shard"}
	data, err := fsys.ReadFile(path)
	if err != nil {
		f.Status, f.Detail = StatusCorrupt, fmt.Sprintf("unreadable: %v", err)
		return f
	}
	validLen, records := 0, 0
	scanErr := fmt.Errorf("%w: bad shard header", store.ErrCorrupt)
	if bytes.HasPrefix(data, []byte(store.MemoMagic)) {
		var n int
		n, scanErr = store.ScanRecords(data[len(store.MemoMagic):], func(payload []byte) error {
			_, _, err := store.DecodeMemoPayload(payload)
			if err == nil {
				records++
			}
			return err
		})
		validLen = len(store.MemoMagic) + n
	}
	return checkLog(fsys, f, data, validLen, scanErr, fmt.Sprintf("%d record(s)", records), repair)
}

// checkLog reports one CRC-framed record log — a memo shard, jobs.log or
// sweep.log — whose longest valid prefix is validLen bytes, scanErr being
// what ended it: healthy when the prefix is the whole file, otherwise
// damaged, and with repair salvaged exactly as the owning layer salvages
// at open.
func checkLog(fsys store.FS, f Finding, data []byte, validLen int, scanErr error, content string, repair bool) Finding {
	if len(data) == 0 {
		f.Status, f.Detail = StatusOK, "empty"
		return f
	}
	if validLen == len(data) {
		f.Status, f.Detail = StatusOK, fmt.Sprintf("%s, %d bytes", content, len(data))
		return f
	}
	diag := fmt.Sprintf("%v: %s in a %d-byte prefix, %d bytes invalid", scanErr, content, validLen, len(data)-validLen)
	return salvage(fsys, f, data, validLen, scanErr.Error(), diag, repair)
}

// salvage is every repair hefdoctor makes to a record file: preserve
// data[keep:] in the .quarantine sidecar, then truncate the file to keep
// bytes. Without repair it only reports what it would do.
func salvage(fsys store.FS, f Finding, data []byte, keep int, reason, diag string, repair bool) Finding {
	if !repair {
		f.Status = StatusCorrupt
		f.Detail = fmt.Sprintf("%s (repair would quarantine the invalid bytes and truncate to %d bytes)", diag, keep)
		return f
	}
	err := store.Quarantine(fsys, f.Path, keep, data[keep:], "hefdoctor: "+reason)
	if err == nil {
		err = fsys.Truncate(f.Path, int64(keep))
	}
	if err != nil {
		f.Status, f.Detail = StatusCorrupt, fmt.Sprintf("%s; repair failed: %v", diag, err)
		return f
	}
	f.Status = StatusRepaired
	f.Detail = fmt.Sprintf("%s; invalid bytes preserved in %s.quarantine, truncated to %d bytes", diag, filepath.Base(f.Path), keep)
	return f
}

// checkCheckpoint validates a parseable checkpoint document (version skew
// and schema damage are typed by sched.ParseCheckpoint).
func checkCheckpoint(fsys store.FS, path string, data []byte, repair bool) Finding {
	f := Finding{Path: path, Kind: "checkpoint"}
	cp, err := sched.ParseCheckpoint(data)
	if err == nil {
		f.Status = StatusOK
		f.Detail = fmt.Sprintf("tool %q, %d completed job(s)", cp.Tool, len(cp.Done))
		return f
	}
	// The primary decodes as JSON but fails validation; an intact backup
	// generation can still serve a repair.
	if bak, rerr := fsys.ReadFile(path + store.BackupSuffix); rerr == nil {
		if _, perr := sched.ParseCheckpoint(bak); perr == nil {
			g := repairCheckpointFromBackup(fsys, path, bak, repair)
			g.Detail = fmt.Sprintf("%v; %s", err, g.Detail)
			return g
		}
	}
	f.Status, f.Detail = StatusCorrupt, fmt.Sprintf("%v (no intact %s generation; regenerate or re-run the sweep)", err, store.BackupSuffix)
	return f
}

// repairCheckpointFromBackup reports a torn primary whose .bak rotation is
// intact and, with repair, copies the backup over the primary — leaving the
// .bak untouched so the repair itself is crash-safe.
func repairCheckpointFromBackup(fsys store.FS, path string, bak []byte, repair bool) Finding {
	f := Finding{Path: path, Kind: "checkpoint"}
	if !repair {
		f.Status = StatusCorrupt
		f.Detail = fmt.Sprintf("primary torn; intact %s generation available (repair would restore it)", store.BackupSuffix)
		return f
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		f.Status, f.Detail = StatusCorrupt, fmt.Sprintf("primary torn; restore failed: %v", err)
		return f
	}
	name := tmp.Name()
	if _, err := tmp.Write(bak); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(name, path)
	}
	if err != nil {
		fsys.Remove(name)
		f.Status, f.Detail = StatusCorrupt, fmt.Sprintf("primary torn; restore failed: %v", err)
		return f
	}
	f.Status = StatusRepaired
	f.Detail = fmt.Sprintf("primary torn; restored from the %s generation (up to one flush interval of progress re-runs)", store.BackupSuffix)
	return f
}

// checkRunReport validates an obs.RunReport document.
func checkRunReport(path string, data []byte) Finding {
	f := Finding{Path: path, Kind: "run-report"}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		f.Status, f.Detail = StatusCorrupt, fmt.Sprintf("undecodable: %v (unrepairable; regenerate with the producing tool's -json run)", err)
		return f
	}
	if err := rep.Validate(); err != nil {
		f.Status, f.Detail = StatusCorrupt, fmt.Sprintf("%v (unrepairable; regenerate with the producing tool's -json run)", err)
		return f
	}
	f.Status = StatusOK
	f.Detail = fmt.Sprintf("tool %q, %d run(s)", rep.Tool, len(rep.Runs))
	return f
}

// checkJSONLines diagnoses a newline-delimited JSON stream (a go test -json
// capture): every line must decode on its own. Repair trims a torn tail to
// the last intact, newline-terminated line.
func checkJSONLines(fsys store.FS, path string, data []byte, repair bool) Finding {
	f := Finding{Path: path, Kind: "json-lines"}
	validLen, lines := 0, 0
	rest := data
	for len(rest) > 0 {
		line := rest
		nl := bytes.IndexByte(rest, '\n')
		terminated := nl >= 0
		if terminated {
			line = rest[:nl]
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 && !json.Valid(trimmed) {
			break
		}
		if !terminated {
			// A valid but unterminated final line counts: the stream was
			// simply not newline-terminated, which every consumer accepts.
			validLen = len(data)
			lines++
			break
		}
		rest = rest[nl+1:]
		validLen = len(data) - len(rest)
		lines++
	}
	if lines == 0 {
		f.Kind = "unknown"
		f.Status, f.Detail = StatusCorrupt, "not a recognized artifact (no JSON document, record log, or JSON-line stream)"
		return f
	}
	if validLen == len(data) {
		f.Status, f.Detail = StatusOK, fmt.Sprintf("%d JSON line(s), %d bytes", lines, len(data))
		return f
	}
	bad := len(data) - validLen
	diag := fmt.Sprintf("torn after %d intact line(s): %d trailing bytes invalid", lines, bad)
	if !repair {
		f.Status, f.Detail = StatusCorrupt, diag+" (repair would trim them)"
		return f
	}
	if err := fsys.Truncate(path, int64(validLen)); err != nil {
		f.Status, f.Detail = StatusCorrupt, fmt.Sprintf("%s; truncate failed: %v", diag, err)
		return f
	}
	f.Status, f.Detail = StatusRepaired, diag+"; trimmed to the last intact line"
	return f
}
