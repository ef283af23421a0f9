// Package hefd is the HEF-as-a-service layer: a fault-tolerant job manager
// and HTTP/JSON API that runs the offline optimization pipeline
// (candidate generation, pruning search, simulation) as a long-lived,
// multi-tenant daemon. Its contract is that it degrades gracefully and
// loses no work:
//
//   - Admission control sheds overload instead of queueing it unboundedly:
//     a full global queue or an exhausted per-tenant token bucket answers
//     HTTP 429 with a Retry-After derived from backoff state, and a tenant
//     whose jobs keep failing is shed by a circuit breaker with a typed
//     JSON error. Memory and goroutines stay bounded at any request rate.
//   - Every accepted job is persisted write-ahead to a CRC-framed job log
//     before the 202 acknowledgement, and its sweep progress checkpoints
//     after every operator. kill -9 mid-sweep followed by a restart
//     resumes every non-terminal job and produces an obs.RunReport
//     byte-identical to an uninterrupted run.
//   - SIGTERM drains gracefully: readiness flips to draining, new
//     submissions are refused, running jobs checkpoint and park, and the
//     next start picks them back up.
//
// The package composes the existing robustness libraries — internal/sched
// (sweep loop, checkpoint/resume, tenant breakers), internal/store (durable
// record logs), internal/telemetry (health, metrics) — behind cmd/hefd.
// DESIGN.md §11 specifies the API schemas and the job lifecycle state
// machine.
package hefd

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"hef/internal/core"
	"hef/internal/experiments"
	"hef/internal/isa"
)

// ErrInvalidSpec wraps every job-spec validation failure; the API maps it
// to HTTP 400.
var ErrInvalidSpec = errors.New("hefd: invalid job spec")

// Service-protecting caps on a submitted spec. They bound the work and
// memory one job can claim, so a hostile or fat-fingered submission cannot
// take the daemon down; jobs needing more should be split.
const (
	// MaxOpsPerJob caps the operators one job may optimize.
	MaxOpsPerJob = 16
	// MaxElems caps the synthetic test size per evaluation.
	MaxElems = 1 << 22
	// MaxHIDBytes caps an inline HID template source.
	MaxHIDBytes = 64 << 10
	// MaxTenantLen caps the tenant identifier length.
	MaxTenantLen = 64
	// MaxParallel caps the per-search evaluator workers a job may request.
	MaxParallel = 64
)

// DefaultTenant is assumed when a submission names no tenant.
const DefaultTenant = "default"

// JobSpec is the body of POST /v1/jobs: one optimization job — a set of
// operators (built-in names, or template names resolved against an inline
// HID program) optimized on one CPU model.
type JobSpec struct {
	// Tenant identifies the submitter for quotas and the circuit breaker
	// ("" selects DefaultTenant).
	Tenant string `json:"tenant,omitempty"`
	// CPU names the processor model ("" selects "silver").
	CPU string `json:"cpu,omitempty"`
	// Ops lists the operators to optimize: built-in names (murmur, crc64,
	// probe, filter, agg, bloom), or template names defined in HID.
	Ops []string `json:"ops"`
	// HID, when non-empty, is an inline HID template source the Ops names
	// resolve against instead of the built-ins.
	HID string `json:"hid,omitempty"`
	// Elems is the synthetic test size per evaluation (0 selects 1<<14).
	Elems int64 `json:"elems,omitempty"`
	// Budget caps node evaluations per operator search (0 = unlimited); an
	// exhausted budget reports the deterministic best-so-far optimum.
	Budget int `json:"budget,omitempty"`
	// Parallel is the evaluator worker count per search (0 selects 1). The
	// report is byte-identical for every setting.
	Parallel int `json:"parallel,omitempty"`
	// DeadlineMS is the per-job wall-clock deadline in milliseconds
	// (0 = none). An exceeded deadline fails the job terminally.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Normalize fills defaults in place. It runs before Validate and before
// Fingerprint, so a spec submitted with explicit defaults and one submitted
// with zero values are the same job.
func (s *JobSpec) Normalize() {
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if s.CPU == "" {
		s.CPU = "silver"
	}
	if s.Elems == 0 {
		s.Elems = 1 << 14
	}
	if s.Parallel == 0 {
		s.Parallel = 1
	}
}

// Validate rejects a spec the daemon must not run: unknown CPU models or
// operators, over-cap sizes, and malformed tenants all wrap ErrInvalidSpec.
// Call Normalize first.
func (s *JobSpec) Validate() error {
	if err := validTenant(s.Tenant); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	if _, err := isa.ByName(s.CPU); err != nil {
		return fmt.Errorf("%w: cpu: %w", ErrInvalidSpec, err)
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("%w: ops selects no operators", ErrInvalidSpec)
	}
	if len(s.Ops) > MaxOpsPerJob {
		return fmt.Errorf("%w: %d ops exceeds the per-job cap %d", ErrInvalidSpec, len(s.Ops), MaxOpsPerJob)
	}
	if len(s.HID) > MaxHIDBytes {
		return fmt.Errorf("%w: hid source %d bytes exceeds the cap %d", ErrInvalidSpec, len(s.HID), MaxHIDBytes)
	}
	if s.HID != "" {
		f, err := core.ParseTemplates(s.HID)
		if err != nil {
			return fmt.Errorf("%w: hid: %w", ErrInvalidSpec, err)
		}
		for _, op := range s.Ops {
			if _, err := f.Get(op); err != nil {
				return fmt.Errorf("%w: ops: %w", ErrInvalidSpec, err)
			}
		}
	} else {
		for _, op := range s.Ops {
			if _, err := experiments.OpTemplate(op); err != nil {
				return fmt.Errorf("%w: ops: %w", ErrInvalidSpec, err)
			}
		}
	}
	if s.Elems < 0 || s.Elems > MaxElems {
		return fmt.Errorf("%w: elems %d outside (0, %d]", ErrInvalidSpec, s.Elems, MaxElems)
	}
	if s.Budget < 0 {
		return fmt.Errorf("%w: budget must be non-negative, got %d", ErrInvalidSpec, s.Budget)
	}
	if s.Parallel < 0 || s.Parallel > MaxParallel {
		return fmt.Errorf("%w: parallel %d outside (0, %d]", ErrInvalidSpec, s.Parallel, MaxParallel)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("%w: deadline_ms must be non-negative, got %d", ErrInvalidSpec, s.DeadlineMS)
	}
	return nil
}

// validTenant enforces a conservative identifier shape so tenants are safe
// in log lines, metric labels, and file names.
func validTenant(tenant string) error {
	if tenant == "" || len(tenant) > MaxTenantLen {
		return fmt.Errorf("tenant must be 1..%d characters", MaxTenantLen)
	}
	for _, c := range tenant {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("tenant %q: only [a-z0-9._-] allowed", tenant)
		}
	}
	return nil
}

// Fingerprint digests the result-shaping fields of a normalized spec. It
// binds a job's sweep checkpoint to its spec, exactly as the CLI tools bind
// checkpoints to their flags. Parallel and DeadlineMS are deliberately
// excluded: neither changes result bytes, so a parked job resumes cleanly
// after the operator count or deadline policy of the daemon changed.
func (s *JobSpec) Fingerprint() string {
	canonical := struct {
		Tenant string   `json:"tenant"`
		CPU    string   `json:"cpu"`
		Ops    []string `json:"ops"`
		HID    string   `json:"hid"`
		Elems  int64    `json:"elems"`
		Budget int      `json:"budget"`
	}{s.Tenant, s.CPU, s.Ops, s.HID, s.Elems, s.Budget}
	data, err := json.Marshal(canonical)
	if err != nil {
		// A struct of strings and integers cannot fail to marshal; keep the
		// edge panic-free regardless.
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}
