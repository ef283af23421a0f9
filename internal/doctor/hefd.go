// Service record-file checks: hefd's job write-ahead log (jobs.log) and
// admission snapshot (admission.state), and the dist coordinator's sweep
// journal (sweep.log). All three are CRC-framed record files, but their
// damage semantics differ: the two logs salvage their longest valid prefix
// (exactly like a memo shard), decoding each record with the decoder the
// owning service opens the log with, while the snapshot is all-or-nothing
// — a torn snapshot repairs to the empty file, which the daemon reads as
// the zero admission state.
package doctor

import (
	"fmt"

	"hef/internal/dist"
	"hef/internal/hefd"
	"hef/internal/store"
)

// checkJobLog diagnoses a hefd job write-ahead log.
func checkJobLog(fsys store.FS, path string, data []byte, repair bool) Finding {
	var sum hefd.JobLogSummary
	validLen, err := store.ScanRecords(data, sum.Add)
	return checkLog(fsys, Finding{Path: path, Kind: "job-log"}, data, validLen, err,
		fmt.Sprintf("%d record(s): %d job(s), %d tombstone(s)", sum.Records, sum.Jobs, sum.Tombstones), repair)
}

// checkJournal diagnoses a dist coordinator's sweep journal.
func checkJournal(fsys store.FS, path string, data []byte, repair bool) Finding {
	var sum dist.JournalSummary
	validLen, err := store.ScanRecords(data, sum.Add)
	return checkLog(fsys, Finding{Path: path, Kind: "sweep-journal"}, data, validLen, err,
		fmt.Sprintf("%d plan(s), %d grant(s), %d result(s)", sum.Plans, sum.Grants, sum.Results), repair)
}

// checkAdmissionState diagnoses a hefd admission snapshot: exactly one
// CRC-framed record carrying the schema-tagged bucket/breaker document.
// There is no salvageable prefix — repair resets the file to empty, which
// the daemon loads as the zero admission state (the same fallback it
// applies itself, minus the startup warning).
func checkAdmissionState(fsys store.FS, path string, data []byte, repair bool) Finding {
	f := Finding{Path: path, Kind: "admission-state"}
	st, err := hefd.ParseAdmissionState(data)
	switch {
	case err != nil:
		return salvage(fsys, f, data, 0, err.Error(), err.Error(), repair)
	case len(data) == 0:
		f.Status, f.Detail = StatusOK, "empty (zero admission state)"
	default:
		f.Status, f.Detail = StatusOK, fmt.Sprintf("%d bucket(s), %d breaker(s), %d bytes", len(st.Buckets), len(st.Breakers), len(data))
	}
	return f
}
