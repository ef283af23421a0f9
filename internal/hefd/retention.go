package hefd

import (
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// RetentionConfig bounds the data directory. The zero value retains
// everything forever (PR-7 behavior); enabling either knob starts the
// periodic sweep and the startup compaction.
type RetentionConfig struct {
	// Age expires terminal jobs (done/failed/cancelled) this long after
	// their terminal transition (<= 0 disables the age policy). Parked and
	// queued jobs never expire: they are accepted work the daemon still
	// owes a result for.
	Age time.Duration
	// Count keeps at most this many terminal jobs per tenant, newest
	// first by acceptance order (<= 0 disables the count policy).
	Count int
	// Interval is the sweep period (<= 0 selects 1m).
	Interval time.Duration
}

func (c RetentionConfig) enabled() bool { return c.Age > 0 || c.Count > 0 }

func (c RetentionConfig) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return time.Minute
}

// Sweep applies the retention policy once: expired terminal jobs get a
// tombstone in the WAL, leave the in-memory tables, and lose their
// checkpoint artifacts. It returns the expired job ids. Exported so tests
// (and the chaos harness) can drive retention deterministically instead of
// waiting out the interval.
func (m *Manager) Sweep() []string {
	if !m.cfg.Retention.enabled() {
		return nil
	}
	now := m.clock.Now()

	m.mu.Lock()
	var expired []string
	perTenant := map[string]int{}
	// Newest-first by acceptance order, so the count policy keeps the most
	// recent Count terminal jobs of each tenant.
	for i := len(m.order) - 1; i >= 0; i-- {
		j := m.jobs[m.order[i]]
		if !j.state.Terminal() {
			continue
		}
		perTenant[j.spec.Tenant]++
		byCount := m.cfg.Retention.Count > 0 && perTenant[j.spec.Tenant] > m.cfg.Retention.Count
		// A zero terminalAt (a pre-retention log, or a record whose state
		// append was lost to degradation) counts as already aged: the job is
		// certainly older than any sweep that can see it.
		byAge := m.cfg.Retention.Age > 0 &&
			(j.terminalAt.IsZero() || now.Sub(j.terminalAt) >= m.cfg.Retention.Age)
		if byCount || byAge {
			expired = append(expired, j.id)
		}
	}
	// Tombstone before forgetting: replay drops the job only once the
	// tombstone is durable, so a crash between the two costs nothing.
	for _, id := range expired {
		m.walAppendLocked(walRecord{Kind: walTomb, ID: id, AtMS: now.UnixMilli()})
		m.forgetJob(id)
		m.counts.Expired++
	}
	if len(expired) > 0 {
		keep := m.order[:0]
		for _, id := range m.order {
			if m.jobs[id] != nil {
				keep = append(keep, id)
			}
		}
		m.order = keep
	}
	m.mu.Unlock()

	// Artifact deletion happens outside the lock: it is idempotent (the
	// tombstone replays the deletion on the next start if a crash lands
	// here), and checkpoint directories can be slow.
	sort.Strings(expired)
	for _, id := range expired {
		m.removeJobArtifacts(id)
	}
	m.cleanOrphanArtifacts()
	return expired
}

// removeJobArtifacts deletes a job's checkpoint and its .bak rotation.
// Missing files are fine — terminal jobs usually had theirs removed when
// they finished.
func (m *Manager) removeJobArtifacts(id string) {
	ckpt := m.ckptPath(id)
	_ = m.fs.Remove(ckpt)
	_ = m.fs.Remove(ckpt + ".bak")
}

// cleanOrphanArtifacts removes checkpoints whose job no longer exists —
// the crash-window leftovers of a sweep or finish that tombstoned the job
// but died before the artifact deletion.
func (m *Manager) cleanOrphanArtifacts() {
	dir := m.ckptDir()
	entries, err := m.fs.ReadDir(dir)
	if err != nil {
		return
	}
	m.mu.Lock()
	var orphans []string
	for _, e := range entries {
		name := e.Name()
		id, ok := strings.CutSuffix(name, ".ckpt")
		if !ok {
			id, ok = strings.CutSuffix(name, ".ckpt.bak")
		}
		if !ok || id == "" {
			continue // quarantine sidecars and foreign files are not ours to judge
		}
		if m.jobs[id] == nil {
			orphans = append(orphans, name)
		}
	}
	m.mu.Unlock()
	for _, name := range orphans {
		_ = m.fs.Remove(filepath.Join(dir, name))
	}
}

// retentionLoop runs Sweep every Retention.Interval until stop closes.
func (m *Manager) retentionLoop(stop <-chan struct{}) {
	defer m.wg.Done()
	for {
		select {
		case <-stop:
			return
		case <-m.clock.After(m.cfg.Retention.interval()):
			m.Sweep()
			// A sweep turns terminal jobs into tombstones the compactor can
			// shed; reclaim the space right away when a bound is set.
			m.maybeCompact()
		}
	}
}
