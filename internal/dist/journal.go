package dist

import (
	"encoding/json"
	"fmt"

	"hef/internal/store"
)

// JournalName is the coordinator's write-ahead log inside the data
// directory.
const JournalName = "sweep.log"

// Journal record kinds.
const (
	jnlPlan   = "plan"   // the sweep plan, fixed at first registration
	jnlGrant  = "grant"  // a lease grant: keeps the lease-ID sequence monotonic across restarts
	jnlResult = "result" // a committed range with its result bytes
)

// journalRecord is one record of the sweep journal, the coordinator's
// store.Log. Every record is appended and fsynced before the effect it
// describes is acknowledged.
type journalRecord struct {
	Kind string `json:"kind"`

	// plan: the sharding inputs. RangeSize is journaled so a restart under a
	// different -range-size flag keeps the sharding the grants and results
	// were recorded against.
	Tool        string   `json:"tool,omitempty"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	TaskIDs     []string `json:"task_ids,omitempty"`
	RangeSize   int      `json:"range_size,omitempty"`

	// grant / result.
	Seq      int    `json:"seq,omitempty"`
	RangeIdx int    `json:"range_idx"`
	Worker   string `json:"worker,omitempty"`

	// result: the range's result bytes, task ID → marshalled value.
	Results map[string]json.RawMessage `json:"results,omitempty"`
}

// decodeJournalRecord decodes one journal payload. Non-JSON payloads and
// kinds outside the closed set are corruption that ends the valid prefix:
// the coordinator's open and hefdoctor's check (JournalSummary.Add) both
// decode through here, so runtime salvage and doctor repair agree.
func decodeJournalRecord(payload []byte) (journalRecord, error) {
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("%w: journal record: %v", store.ErrCorrupt, err)
	}
	switch rec.Kind {
	case jnlPlan, jnlGrant, jnlResult:
		return rec, nil
	}
	return rec, fmt.Errorf("%w: journal record kind %q unknown", store.ErrCorrupt, rec.Kind)
}

// JournalSummary describes the intact content of a sweep journal, for
// hefdoctor.
type JournalSummary struct {
	Plans, Grants, Results int
}

// Add decodes one journal payload into the summary; it is the decode
// callback hefdoctor hands to store.ScanRecords.
func (s *JournalSummary) Add(payload []byte) error {
	rec, err := decodeJournalRecord(payload)
	if err != nil {
		return err
	}
	switch rec.Kind {
	case jnlPlan:
		s.Plans++
	case jnlGrant:
		s.Grants++
	case jnlResult:
		s.Results++
	}
	return nil
}
