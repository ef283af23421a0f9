package hefd

import (
	"encoding/json"
	"fmt"

	"hef/internal/store"
)

// JobLogName is the write-ahead log file inside the data directory.
const JobLogName = "jobs.log"

// walKind discriminates job-log records.
const (
	walSpec   = "spec"   // job accepted: carries the sequence number and full spec
	walState  = "state"  // lifecycle transition: carries the new state (and error)
	walReport = "report" // completion: carries the final RunReport bytes
	walTomb   = "tomb"   // retention: the job and its artifacts are expired
	walSeq    = "seq"    // compaction high-water mark: ids never restart below Seq
)

// walRecord is one framed record of the job log. Every record is appended
// and fsynced before the effect it describes is acknowledged, so the log
// replays to the daemon's accepted state after any crash.
type walRecord struct {
	Kind  string   `json:"kind"`
	ID    string   `json:"id,omitempty"`
	Seq   int      `json:"seq,omitempty"`
	Spec  *JobSpec `json:"spec,omitempty"`
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`
	// Report holds the final obs.RunReport bytes verbatim, as a JSON string
	// rather than embedded JSON: json.Marshal compacts embedded RawMessage,
	// and byte-identical crash recovery needs the exact indented bytes back.
	Report string `json:"report,omitempty"`
	// AtMS timestamps terminal transitions (unix milliseconds) so the
	// retention sweep can age jobs out; zero means unknown — an unknown
	// terminal time counts as already aged when an age policy is active.
	AtMS int64 `json:"at_ms,omitempty"`
}

// decodeJobRecord decodes one job-log payload. A payload that is not JSON,
// or whose kind is outside the closed set, is corruption: the log is the
// daemon's source of truth, so it refuses a foreign or future record
// rather than guess, and the record ends the valid prefix. The daemon's
// open and hefdoctor's check (JobLogSummary.Add) both decode through here,
// so runtime salvage and doctor repair keep the same prefix.
func decodeJobRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("%w: job log record: %v", store.ErrCorrupt, err)
	}
	switch rec.Kind {
	case walSpec, walState, walReport, walTomb, walSeq:
		return rec, nil
	}
	return rec, fmt.Errorf("%w: job log record kind %q unknown", store.ErrCorrupt, rec.Kind)
}

// JobLogSummary describes the intact content of a job log, for hefdoctor.
type JobLogSummary struct {
	// Records counts valid framed records.
	Records int
	// Jobs counts distinct spec records (accepted jobs still in the log).
	Jobs int
	// Tombstones counts retention tombstones.
	Tombstones int

	seen map[string]bool
}

// Add decodes one job-log payload into the summary; it is the decode
// callback hefdoctor hands to store.ScanRecords.
func (s *JobLogSummary) Add(payload []byte) error {
	rec, err := decodeJobRecord(payload)
	if err != nil {
		return err
	}
	s.Records++
	switch rec.Kind {
	case walSpec:
		if !s.seen[rec.ID] {
			if s.seen == nil {
				s.seen = map[string]bool{}
			}
			s.seen[rec.ID] = true
			s.Jobs++
		}
	case walTomb:
		s.Tombstones++
	}
	return nil
}
