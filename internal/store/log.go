package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
)

// ErrLogUnavailable marks an append that could not be made durable: the
// log failed an earlier write or sync, or is closed. Services built on a
// Log refuse the request it would have recorded, because acknowledging
// state that is not on disk breaks their kill -9 contract.
var ErrLogUnavailable = errors.New("store: log unavailable")

// Quarantine preserves bad — the invalid suffix of path, starting at byte
// offset — in path's .quarantine sidecar: a one-line JSON header
// {"bytes","offset","reason"}, then the raw bytes. Sidecars append, so
// repeated salvage events on one file keep every suffix for post-mortem.
func Quarantine(fsys FS, path string, offset int, bad []byte, reason string) error {
	side, err := fsys.OpenAppend(path + ".quarantine")
	if err != nil {
		return err
	}
	meta, _ := json.Marshal(struct {
		Bytes  int    `json:"bytes"`
		Offset int    `json:"offset"`
		Reason string `json:"reason"`
	}{len(bad), offset, reason})
	if _, err := side.Write(append(append(meta, '\n'), bad...)); err != nil {
		side.Close()
		return err
	}
	return side.Close()
}

// Log is an append-only write-ahead log of JSON records, one per
// CRC-framed record (recordlog.go): hefd's jobs.log and the dist
// coordinator's sweep.log. OpenLog replays the longest valid prefix and
// salvages a torn or foreign tail — the kill -9 artifact — into a
// .quarantine sidecar, so one interrupted append costs that record, never
// the log. Every Append is
// fsynced before it returns; the first write or sync failure degrades the
// log, because a log that failed mid-write can no longer promise ordering.
type Log struct {
	fs   FS
	path string

	mu       sync.Mutex
	f        File
	buf      []byte // frame buffer, reused across appends
	degraded string // first persistence failure; appends stop
	salvaged int    // bytes quarantined at open
}

// OpenLog opens (creating if needed) the log at path and calls decode with
// each valid record payload in append order. A decode error ends the valid
// prefix exactly like a bad frame: the log is its owner's source of truth,
// so a record it cannot interpret is refused rather than skipped. The
// invalid suffix is quarantined and truncated away before appends resume.
// A missing file is an empty log; any other read failure is fatal, since
// starting empty would silently drop acknowledged records.
func OpenLog(fsys FS, path string, decode func(payload []byte) error) (*Log, error) {
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return nil, fmt.Errorf("store: log dir: %w", err)
	}
	// A crash mid-compaction leaves the temp file behind; sweep it so the
	// directory stays bounded across any number of interrupted compactions.
	RemoveStaleTemps(fsys, path)
	data, err := fsys.ReadFile(path)
	if err != nil {
		if _, statErr := fsys.Stat(path); statErr == nil {
			return nil, fmt.Errorf("store: reading %s: %w", path, err)
		}
		data = nil
	}
	l := &Log{fs: fsys, path: path}
	if validLen, scanErr := ScanRecords(data, decode); scanErr != nil {
		l.salvaged = len(data) - validLen
		// A failed sidecar write loses only the post-mortem copy.
		_ = Quarantine(fsys, path, validLen, data[validLen:], scanErr.Error())
		if err := fsys.Truncate(path, int64(validLen)); err != nil {
			return nil, fmt.Errorf("store: truncating %s after salvage: %w", path, err)
		}
	}
	if l.f, err = fsys.OpenAppend(path); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	return l, nil
}

// Salvaged reports how many bytes the open scan quarantined (0 on a clean
// log).
func (l *Log) Salvaged() int { return l.salvaged }

// Degraded reports the first append failure ("" while healthy).
func (l *Log) Degraded() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// Append marshals rec and makes it durable with one Write and one Sync, so
// an interrupted process tears at most this frame. Errors wrap
// ErrLogUnavailable.
func (l *Log) Append(rec any) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%w: marshal: %w", ErrLogUnavailable, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	l.buf = AppendRecord(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		l.degraded = err.Error()
		return fmt.Errorf("%w: %w", ErrLogUnavailable, err)
	}
	if err := l.f.Sync(); err != nil {
		l.degraded = err.Error()
		return fmt.Errorf("%w: %w", ErrLogUnavailable, err)
	}
	return nil
}

func (l *Log) usableLocked() error {
	if l.degraded != "" {
		return fmt.Errorf("%w: %s", ErrLogUnavailable, l.degraded)
	}
	if l.f == nil {
		return fmt.Errorf("%w: closed", ErrLogUnavailable)
	}
	return nil
}

// Compact rewrites the log so it holds exactly recs, in order, through
// RewriteFile: a kill -9 at any byte of the compaction leaves either the
// old log or the new one intact on disk, never a mix. On success appends
// continue on the new log; on a failed rewrite the old log is untouched
// and appends continue on it.
func (l *Log) Compact(recs []any) error {
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: compacting %s: %w", l.path, err)
		}
		buf = AppendRecord(buf, payload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	// The append handle must close before the rename replaces the inode:
	// a write through the old handle after the swap would vanish.
	if err := l.f.Close(); err != nil {
		l.f, l.degraded = nil, err.Error()
		return fmt.Errorf("%w: close before compaction: %w", ErrLogUnavailable, err)
	}
	rewriteErr := RewriteFile(l.fs, l.path, buf)
	f, openErr := l.fs.OpenAppend(l.path)
	if openErr != nil {
		// Whichever generation survived, it can no longer be appended to;
		// degrade exactly like a failed append.
		l.f, l.degraded = nil, openErr.Error()
		return fmt.Errorf("%w: reopen after compaction: %v (rewrite: %v)", ErrLogUnavailable, openErr, rewriteErr)
	}
	l.f = f
	if rewriteErr != nil {
		return fmt.Errorf("store: compacting %s: %w", l.path, rewriteErr)
	}
	return nil
}

// Size reports the log's on-disk size in bytes (0 when missing).
func (l *Log) Size() int64 {
	info, err := l.fs.Stat(l.path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// Close releases the append handle. Every record was fsynced at append
// time, so closing is equivalent to a crash the log already survives. Safe
// to call more than once.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	return f.Close()
}
