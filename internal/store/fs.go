// Package store is the crash- and corruption-tolerant on-disk artifact
// layer shared by the measurement memo cache, the sweep checkpoints, and
// the services' write-ahead logs.
//
// Two durability primitives live here:
//
//   - Append-only record logs with per-record CRC32C framing
//     (recordlog.go) backing the persistent memo store (memostore.go) and
//     Log (log.go), hefd's and the dist coordinator's write-ahead log. Open
//     salvages the longest valid prefix; everything after the first bad
//     frame is moved into a `.quarantine` sidecar (Quarantine) and the file
//     is truncated, so a corrupt entry costs a cache miss or one record,
//     never a failed sweep.
//
//   - Rotated atomic file replacement with torn-primary fallback
//     (safefile.go) backing checkpoint persistence: every save keeps the
//     previous generation as `.bak`, and load falls back to it when the
//     primary is torn, truncated, or bit-flipped.
//
// All filesystem access goes through the FS interface so tests can inject
// ENOSPC, short writes, and read-only directories.
package store

import (
	"io/fs"
	"os"
)

// File is the writable-file surface the store needs: sequential writes,
// fsync, close, and the name for rename-into-place.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the few filesystem operations the store performs, so tests
// can simulate degraded I/O (ENOSPC, short writes, read-only directories)
// without touching the real disk's failure modes.
type FS interface {
	ReadFile(path string) ([]byte, error)
	OpenAppend(path string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	MkdirAll(dir string) error
	Truncate(path string, size int64) error
	Stat(path string) (fs.FileInfo, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
}

// OS is the production FS, backed by the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
