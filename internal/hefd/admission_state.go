package hefd

import (
	"encoding/json"
	"fmt"

	"hef/internal/sched"
	"hef/internal/store"
)

// AdmissionStateName is the admission snapshot file inside the data
// directory. It persists what the WAL deliberately does not: the token
// bucket levels and breaker circuits that would otherwise reset on every
// restart, letting a tenant refund a dry bucket or close an open breaker
// early just by crashing the daemon.
const AdmissionStateName = "admission.state"

// AdmissionStateSchema/Version identify the snapshot payload.
const (
	AdmissionStateSchema  = "hef.hefd.admission-state"
	AdmissionStateVersion = 1
)

// BucketState is one tenant's persisted token bucket.
type BucketState struct {
	// Tokens is the level at LastMS.
	Tokens float64 `json:"tokens"`
	// LastMS is the refill anchor (unix milliseconds).
	LastMS int64 `json:"last_ms"`
}

// AdmissionState is the admission.state payload: a single CRC-framed
// record whose JSON body is this document. JSON maps marshal with sorted
// keys, so a save/load/save round trip is byte-identical — the property
// the persistence tests pin down.
type AdmissionState struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`

	Buckets  map[string]BucketState        `json:"buckets,omitempty"`
	Breakers map[string]sched.BreakerState `json:"breakers,omitempty"`
}

// EncodeAdmissionState frames the snapshot for disk.
func EncodeAdmissionState(st AdmissionState) ([]byte, error) {
	st.Schema = AdmissionStateSchema
	st.Version = AdmissionStateVersion
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("hefd: admission state marshal: %w", err)
	}
	return store.AppendRecord(nil, payload), nil
}

// ParseAdmissionState decodes an admission.state file. Empty (or missing,
// read as nil) data is a first boot and yields the zero state. Anything
// that is not exactly one intact, schema-matched record is reported as
// corrupt: unlike the job log there is no salvageable prefix — the file is
// a snapshot, not a log — so the caller falls back to the zero state.
func ParseAdmissionState(data []byte) (AdmissionState, error) {
	var st AdmissionState
	if len(data) == 0 {
		st.Schema = AdmissionStateSchema
		st.Version = AdmissionStateVersion
		return st, nil
	}
	records := 0
	validLen, err := store.ScanRecords(data, func(payload []byte) error {
		records++
		if records > 1 {
			return fmt.Errorf("%w: admission state: more than one record", store.ErrCorrupt)
		}
		if err := json.Unmarshal(payload, &st); err != nil {
			return fmt.Errorf("%w: admission state: %v", store.ErrCorrupt, err)
		}
		if st.Schema != AdmissionStateSchema {
			return fmt.Errorf("%w: admission state schema %q", store.ErrCorrupt, st.Schema)
		}
		if st.Version != AdmissionStateVersion {
			return fmt.Errorf("%w: admission state version %d", store.ErrVersionSkew, st.Version)
		}
		return nil
	})
	if err != nil {
		return AdmissionState{}, err
	}
	if validLen != len(data) || records != 1 {
		return AdmissionState{}, fmt.Errorf("%w: admission state: trailing bytes", store.ErrCorrupt)
	}
	return st, nil
}
