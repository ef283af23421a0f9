// Package dist is the fault-tolerant distributed sweep fabric: a
// coordinator that shards a sweep's deterministic task list into
// fingerprint-addressed ranges and leases them to workers over a small
// HTTP/JSON protocol, and the worker loop the sweep tools run under their
// -coordinator flag.
//
// Robustness is the contract, not a feature:
//
//   - Ranges are held under expiring leases renewed by worker heartbeats. A
//     dead or partitioned worker's lease lapses and the range is reassigned.
//   - Execution is at-least-once, made safe because results are
//     content-addressed by (sweep fingerprint, task ID) and byte-identical
//     across runs — a duplicate commit dedupes by byte comparison, and a
//     byte mismatch is a determinism violation the coordinator refuses.
//   - The coordinator journals the plan, lease grants, and completed-range
//     results to a CRC-framed write-ahead log, so kill -9 at any byte
//     resumes with no lost and no double-counted work.
//   - Stragglers past a deadline are speculatively re-dispatched to a
//     second worker; the first durable commit wins.
//
// The merged output is a sched.Checkpoint holding every task's result in
// task order — byte-identical to the checkpoint a single-process
// sched.RunSweep would have written, which is what makes the final report
// bytes independent of how many machines (and crashes) produced them.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"hef/internal/sched"
)

// ProtocolVersion gates the wire protocol: a coordinator refuses plans from
// a build speaking another version instead of guessing at field semantics.
const ProtocolVersion = 1

// MaxBodyBytes caps any protocol request body. A full range of result
// documents fits comfortably; a hostile or confused client cannot stream
// gigabytes into the decoder.
const MaxBodyBytes = 16 << 20

// MaxPlanTasks bounds a plan's task list; beyond it a request is treated as
// malformed rather than an allocation request.
const MaxPlanTasks = 1 << 20

// Typed refusal codes — the closed set carried in the shared error
// envelope's "code" field.
const (
	CodeBadJSON      = "bad_json"              // 400: body does not decode
	CodeInvalid      = "invalid_request"       // 400: decodes but violates the message contract
	CodeNoPlan       = "no_plan"               // 409: no plan registered yet; register and retry
	CodePlanMismatch = "plan_mismatch"         // 409: plan disagrees with the journaled one
	CodeLeaseUnknown = "lease_unknown"         // 409: heartbeat for a lease this coordinator no longer holds
	CodeSweepFailed  = "sweep_failed"          // 409: a range exhausted its failure budget; the sweep is terminal
	CodeDeterminism  = "determinism_violation" // 500: a duplicate commit disagreed byte-for-byte
	CodeStorage      = "storage_unavailable"   // 503: the journal cannot be appended; nothing is committed
	CodeInternal     = "internal"              // 500
)

// ProtoError is the typed protocol refusal, used symmetrically: the
// coordinator returns it from state-machine methods (the server maps it
// onto the envelope), and the worker's client reconstructs it from a
// response envelope so callers switch on Code, not substrings.
type ProtoError struct {
	Status  int
	Code    string
	Message string
}

func (e *ProtoError) Error() string { return fmt.Sprintf("dist: %s: %s", e.Code, e.Message) }

func errProto(status int, code, format string, args ...any) *ProtoError {
	return &ProtoError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// PlanRequest registers (or re-verifies) the sweep plan: the deterministic
// task order every participant derives from its own flags. The first
// registration fixes the plan; later ones must match it exactly, so a
// misconfigured worker is refused instead of silently mixing sweeps.
type PlanRequest struct {
	Version     int      `json:"version"`
	Tool        string   `json:"tool"`
	Fingerprint string   `json:"fingerprint"`
	TaskIDs     []string `json:"task_ids"`
	Worker      string   `json:"worker"`
}

// Validate enforces the message contract shared by server and fuzz target.
func (r *PlanRequest) Validate() error {
	if r.Version != ProtocolVersion {
		return fmt.Errorf("protocol version %d, this build speaks %d", r.Version, ProtocolVersion)
	}
	if r.Tool == "" || r.Fingerprint == "" || r.Worker == "" {
		return fmt.Errorf("tool, fingerprint, and worker must be non-empty")
	}
	if len(r.TaskIDs) == 0 {
		return fmt.Errorf("plan has no tasks")
	}
	if len(r.TaskIDs) > MaxPlanTasks {
		return fmt.Errorf("plan has %d tasks, limit %d", len(r.TaskIDs), MaxPlanTasks)
	}
	seen := make(map[string]int, len(r.TaskIDs))
	for i, id := range r.TaskIDs {
		if id == "" {
			return fmt.Errorf("task %d has an empty ID", i)
		}
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("task ID %q duplicated at positions %d and %d", id, prev, i)
		}
		seen[id] = i
	}
	return nil
}

// PlanResponse acknowledges a registration.
type PlanResponse struct {
	// PlanHash names the accepted plan; every later request carries it.
	PlanHash string `json:"plan_hash"`
	// Ranges and RangeSize describe the coordinator's sharding.
	Ranges    int  `json:"ranges"`
	RangeSize int  `json:"range_size"`
	Done      bool `json:"done,omitempty"`
}

// HashPlan is the content address of a sweep plan. Both sides compute it,
// so a worker detects a coordinator that somehow accepted a different plan
// before any work is wasted.
func HashPlan(tool, fingerprint string, taskIDs []string) string {
	h := sha256.New()
	h.Write([]byte(tool))
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	h.Write([]byte{0})
	for _, id := range taskIDs {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// LeaseRequest asks for a range to work on.
type LeaseRequest struct {
	Worker   string `json:"worker"`
	PlanHash string `json:"plan_hash"`
}

// Validate enforces the message contract.
func (r *LeaseRequest) Validate() error {
	if r.Worker == "" || r.PlanHash == "" {
		return fmt.Errorf("worker and plan_hash must be non-empty")
	}
	return nil
}

// LeaseResponse grants a range, asks the worker to wait, or declares the
// sweep complete. Exactly one of Done, WaitMS, or LeaseID is meaningful.
type LeaseResponse struct {
	Done bool `json:"done,omitempty"`
	// WaitMS is a poll hint when every range is leased and healthy.
	WaitMS int64 `json:"wait_ms,omitempty"`

	LeaseID  string      `json:"lease_id,omitempty"`
	RangeIdx int         `json:"range_idx,omitempty"`
	Range    sched.Range `json:"range,omitempty"`
	// TaskIDs double-checks the shard: the worker verifies them against its
	// own task order before running anything.
	TaskIDs []string `json:"task_ids,omitempty"`
	// TTLMS is the lease's renewal deadline: heartbeat at least this often
	// (workers renew at a third of it).
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Speculative marks a straggler re-dispatch: another worker still holds
	// a live lease on this range, and the first durable commit wins.
	Speculative bool `json:"speculative,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
}

// Validate enforces the message contract.
func (r *HeartbeatRequest) Validate() error {
	if r.Worker == "" || r.LeaseID == "" {
		return fmt.Errorf("worker and lease_id must be non-empty")
	}
	return nil
}

// HeartbeatResponse confirms the renewal.
type HeartbeatResponse struct {
	TTLMS int64 `json:"ttl_ms"`
}

// ResultRequest commits a completed range. Commitment is deliberately
// independent of lease state: the results are content-addressed and
// byte-deterministic, so a late commit from a lapsed lease is still
// perfectly good work — the coordinator dedupes, never double-counts.
type ResultRequest struct {
	Worker   string      `json:"worker"`
	PlanHash string      `json:"plan_hash"`
	LeaseID  string      `json:"lease_id,omitempty"`
	RangeIdx int         `json:"range_idx"`
	Range    sched.Range `json:"range"`
	// Results maps task ID to its marshalled result value — exactly the
	// bytes a single-process sweep's checkpoint would hold for that task.
	Results map[string]json.RawMessage `json:"results"`
}

// Validate enforces the message contract (range membership is the
// coordinator's to check — it owns the plan).
func (r *ResultRequest) Validate() error {
	if r.Worker == "" || r.PlanHash == "" {
		return fmt.Errorf("worker and plan_hash must be non-empty")
	}
	if r.RangeIdx < 0 {
		return fmt.Errorf("range_idx must be non-negative, got %d", r.RangeIdx)
	}
	if !r.Range.Valid(MaxPlanTasks) {
		return fmt.Errorf("range %s is malformed", r.Range)
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("results must be non-empty")
	}
	if len(r.Results) != r.Range.Len() {
		return fmt.Errorf("results hold %d tasks, range %s covers %d", len(r.Results), r.Range, r.Range.Len())
	}
	for id, raw := range r.Results {
		if id == "" {
			return fmt.Errorf("result with empty task ID")
		}
		if !json.Valid(raw) {
			return fmt.Errorf("result %q is not valid JSON", id)
		}
	}
	return nil
}

// ResultResponse acknowledges a commit.
type ResultResponse struct {
	// Committed: this commit made the range durable. Duplicate: the range
	// was already committed with byte-identical results, nothing changed.
	Committed bool `json:"committed"`
	Duplicate bool `json:"duplicate,omitempty"`
	// Done: every range is now committed. The worker stops here instead of
	// asking for another lease, which a coordinator that exits on
	// completion may no longer answer.
	Done bool `json:"done,omitempty"`
}

// FailRequest reports that a worker could not complete a leased range
// (task failures after local retries). The coordinator releases the lease
// immediately — no need to wait out the TTL — and re-dispatches; a range
// that keeps failing eventually fails the sweep.
type FailRequest struct {
	Worker   string            `json:"worker"`
	PlanHash string            `json:"plan_hash"`
	LeaseID  string            `json:"lease_id,omitempty"`
	RangeIdx int               `json:"range_idx"`
	Errors   map[string]string `json:"errors,omitempty"`
}

// Validate enforces the message contract.
func (r *FailRequest) Validate() error {
	if r.Worker == "" || r.PlanHash == "" {
		return fmt.Errorf("worker and plan_hash must be non-empty")
	}
	if r.RangeIdx < 0 {
		return fmt.Errorf("range_idx must be non-negative, got %d", r.RangeIdx)
	}
	return nil
}

// FailResponse acknowledges a failure report.
type FailResponse struct {
	// Remaining is the range's failure budget after this report.
	Remaining int `json:"remaining"`
}

// Counts are the coordinator's robustness counters, exposed on /v1/status
// and bridged into telemetry.
type Counts struct {
	Granted     int `json:"leases_granted"`
	Expired     int `json:"leases_expired"`
	Speculative int `json:"speculative_grants"`
	Committed   int `json:"ranges_committed"`
	Duplicates  int `json:"duplicate_commits"`
	LateCommits int `json:"late_commits"`
	Heartbeats  int `json:"heartbeats"`
	Failures    int `json:"range_failures"`
	Violations  int `json:"determinism_violations"`
}

// StatusResponse is the coordinator's public state.
type StatusResponse struct {
	Tool        string `json:"tool,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	PlanHash    string `json:"plan_hash,omitempty"`
	Tasks       int    `json:"tasks"`
	Ranges      int    `json:"ranges"`
	RangesDone  int    `json:"ranges_done"`
	Leased      int    `json:"ranges_leased"`
	Done        bool   `json:"done"`
	Failed      string `json:"failed,omitempty"`
	Counts      Counts `json:"counts"`
}

// decodeValidated is the one JSON entry point for protocol messages: strict
// decoding into the message type, then its Validate. The fuzz target drives
// it for every message kind.
func decodeValidated[T interface{ Validate() error }](data []byte, msg T) error {
	if err := json.Unmarshal(data, msg); err != nil {
		return errProto(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if err := msg.Validate(); err != nil {
		return errProto(http.StatusBadRequest, CodeInvalid, "%v", err)
	}
	return nil
}

// DecodePlanRequest decodes and validates a plan registration body.
func DecodePlanRequest(data []byte) (*PlanRequest, error) {
	var r PlanRequest
	if err := decodeValidated(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeLeaseRequest decodes and validates a lease request body.
func DecodeLeaseRequest(data []byte) (*LeaseRequest, error) {
	var r LeaseRequest
	if err := decodeValidated(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeHeartbeatRequest decodes and validates a heartbeat body.
func DecodeHeartbeatRequest(data []byte) (*HeartbeatRequest, error) {
	var r HeartbeatRequest
	if err := decodeValidated(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeResultRequest decodes and validates a result commit body.
func DecodeResultRequest(data []byte) (*ResultRequest, error) {
	var r ResultRequest
	if err := decodeValidated(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeFailRequest decodes and validates a failure report body.
func DecodeFailRequest(data []byte) (*FailRequest, error) {
	var r FailRequest
	if err := decodeValidated(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
