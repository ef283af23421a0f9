package hefd

import (
	"context"
	"errors"
	"time"
)

// JobState is a job's position in the lifecycle state machine
// (DESIGN.md §11):
//
//	queued → running → done
//	               ↘ failed
//	               ↘ cancelled   (DELETE /v1/jobs/{id})
//	               ↘ parked      (graceful drain; re-queued at next start)
//	queued → cancelled
//
// done, failed, and cancelled are terminal. queued, running, and parked
// survive a restart: recovery re-queues them and their checkpoints make the
// re-run byte-identical.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateParked    JobState = "parked"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Typed lookup failures of the manager; the API maps them to 404/409.
var (
	// ErrUnknownJob marks an ID the daemon has never accepted.
	ErrUnknownJob = errors.New("hefd: unknown job")
	// ErrReportNotReady marks a report request for a job that has not
	// finished successfully.
	ErrReportNotReady = errors.New("hefd: report not ready")
)

// job is the manager's in-memory record of one accepted job. All fields
// are guarded by the manager's mutex; cancel is non-nil only while running.
type job struct {
	id    string
	seq   int
	spec  JobSpec
	state JobState
	// done/total track operator-level progress for GET status.
	done, total int
	errMsg      string
	report      *sharedReport
	// terminalAt anchors the retention age policy; zero for non-terminal
	// jobs and for terminal transitions whose WAL record predates retention.
	terminalAt time.Time
	cancel     context.CancelFunc
	// cancelRequested distinguishes a DELETE-driven interruption from a
	// drain or deadline when the sweep unwinds.
	cancelRequested bool
}

// sharedReport is one distinct RunReport held by every done job whose
// report has exactly these bytes. A report is a pure function of its spec
// (see spec.go), so jobs repeating a spec share one copy however many of
// them are retained.
type sharedReport struct {
	data string
	refs int // jobs holding it
}

// JobView is the API representation of a job (GET /v1/jobs/{id} and list
// entries).
type JobView struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	State    JobState `json:"state"`
	CPU      string   `json:"cpu"`
	Ops      []string `json:"ops"`
	OpsDone  int      `json:"ops_done"`
	OpsTotal int      `json:"ops_total"`
	Error    string   `json:"error,omitempty"`
}

// view snapshots a job for the API. Callers hold the manager's mutex.
func (j *job) view() JobView {
	return JobView{
		ID:       j.id,
		Tenant:   j.spec.Tenant,
		State:    j.state,
		CPU:      j.spec.CPU,
		Ops:      append([]string(nil), j.spec.Ops...),
		OpsDone:  j.done,
		OpsTotal: j.total,
		Error:    j.errMsg,
	}
}
