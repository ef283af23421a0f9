package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"hef/internal/memo"
	"hef/internal/uarch"
)

// MemoMagic is the 8-byte header of a memo shard file: format name plus a
// one-digit format version. Bumping the record or payload layout bumps the
// digit, and Open quarantines whole shards written under another one.
const MemoMagic = "HEFMEMO1"

// MemoShards is the number of record-log files a memo store spreads its
// entries over (by the first fingerprint byte), bounding the cost of
// rewriting any one of them during compaction.
const MemoShards = 16

// MemoStats counts what the durable layer did, alongside the in-memory
// cache's hit/miss counters (memo.Stats).
type MemoStats struct {
	// Loaded counts records restored from disk at Open.
	Loaded uint64
	// Persisted counts records appended by this process.
	Persisted uint64
	// Quarantined counts corruption events handled at Open; each event moved
	// the invalid suffix of one shard into its .quarantine sidecar.
	Quarantined uint64
	// QuarantinedBytes is the total size of those suffixes, and
	// SalvagedBytes the valid prefixes kept in the affected shards.
	QuarantinedBytes uint64
	SalvagedBytes    uint64
	// Degraded describes the first persistence failure (ENOSPC, read-only
	// directory, ...); non-empty means later entries stay in memory only.
	Degraded string
}

// Summary renders the counters as the one-line form the CLI tools print to
// stderr after a -memo-dir run.
func (s MemoStats) Summary() string {
	out := fmt.Sprintf("%d loaded, %d persisted", s.Loaded, s.Persisted)
	if s.Quarantined > 0 {
		out += fmt.Sprintf(", %d corrupt region(s) quarantined (%d bytes, %d salvaged)",
			s.Quarantined, s.QuarantinedBytes, s.SalvagedBytes)
	}
	if s.Degraded != "" {
		out += "; persistence degraded: " + s.Degraded
	}
	return out
}

// MemoStore is a persistent backing for the content-addressed measurement
// memo: a directory of sharded, append-only record logs. Open salvages
// whatever is valid on disk into a fresh memo.Cache and subscribes to its
// Puts, so every new measurement is appended durably as it is made; a later
// Open — in this process or the next — starts warm.
//
// Corruption is never fatal: a bad frame costs the entries at and after it
// in that one shard (they become cache misses and are re-measured), and the
// bad bytes are preserved in a `.quarantine` sidecar for post-mortem.
// Likewise I/O failure is never fatal: the first append error switches the
// store into a degraded, memory-only mode recorded in Stats().Degraded.
type MemoStore struct {
	dir string
	fs  FS

	cache *memo.Cache

	mu        sync.Mutex
	appenders [MemoShards]File
	compact   [MemoShards]bool
	buf       []byte
	stats     MemoStats
	closed    bool
}

// memoRecord is the JSON payload of one persisted measurement (after the
// 16-byte raw fingerprint that prefixes it inside the record frame).
//
// Additive fields in uarch.Result are forward-compatible; renamed or
// re-typed fields must bump MemoMagic instead.

// Open opens (creating if needed) the persistent memo store in dir, loading
// every salvageable record. It fails only when the directory itself is
// unusable — damaged or unreadable shard contents degrade or quarantine
// instead — so callers treat an error as "run without persistence".
func Open(dir string) (*MemoStore, error) { return OpenFS(OS, dir) }

// OpenFS is Open with an injectable filesystem (for degraded-I/O tests).
func OpenFS(fsys FS, dir string) (*MemoStore, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		if _, statErr := fsys.Stat(dir); statErr != nil {
			return nil, fmt.Errorf("store: memo dir %s: %w", dir, err)
		}
		// The directory exists but is not writable (read-only volume):
		// loading still works, persistence degrades on first append.
	}
	s := &MemoStore{dir: dir, fs: fsys, cache: memo.NewCache()}
	for shard := 0; shard < MemoShards; shard++ {
		s.loadShard(shard)
	}
	s.cache.OnPut(s.persist)
	return s, nil
}

// Cache returns the in-memory cache view of the store. It is the value
// handed to evaluators and experiment drivers; the store persists its Puts
// transparently.
func (s *MemoStore) Cache() *memo.Cache { return s.cache }

// Dir returns the store's directory.
func (s *MemoStore) Dir() string { return s.dir }

// Stats snapshots the durable layer's counters.
func (s *MemoStore) Stats() MemoStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// shardPath names shard i's record log.
func (s *MemoStore) shardPath(shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("memo-%02x.log", shard))
}

// shardOf maps a fingerprint to its shard.
func shardOf(k memo.Key) int { return int(k[0]) % MemoShards }

// loadShard salvages one shard file: decode the longest valid prefix into
// the cache, quarantine anything after it, and truncate the file back to
// the valid prefix so later appends land on a clean tail.
func (s *MemoStore) loadShard(shard int) {
	path := s.shardPath(shard)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		// Missing shard files are the common case (fresh store, sparse key
		// space); other read errors degrade persistence for safety — we
		// cannot append to a file we cannot account for.
		if _, statErr := s.fs.Stat(path); statErr != nil {
			return
		}
		s.degrade(fmt.Sprintf("reading %s: %v", path, err))
		return
	}
	validLen := 0
	if len(data) < len(MemoMagic) || string(data[:len(MemoMagic)]) != MemoMagic {
		if len(data) > 0 {
			s.quarantine(path, 0, data, fmt.Sprintf("%v: bad shard header", ErrCorrupt))
		}
	} else {
		n, scanErr := ScanRecords(data[len(MemoMagic):], func(payload []byte) error {
			k, res, err := DecodeMemoPayload(payload)
			if err != nil {
				return err
			}
			s.cache.Put(k, res)
			s.stats.Loaded++
			return nil
		})
		validLen = len(MemoMagic) + n
		if scanErr != nil {
			s.quarantine(path, validLen, data[validLen:], scanErr.Error())
		}
	}
	if validLen < len(data) {
		s.stats.SalvagedBytes += uint64(validLen)
		if err := s.fs.Truncate(path, int64(validLen)); err != nil {
			// Can't trim the bad tail in place (read-only volume): remember
			// to rewrite the whole shard from memory at Close instead, so
			// appends never land after garbage.
			s.compact[shard] = true
		}
	}
}

// quarantine counts one corruption event and preserves the invalid suffix
// of a shard in its sidecar.
func (s *MemoStore) quarantine(path string, offset int, bad []byte, reason string) {
	s.stats.Quarantined++
	s.stats.QuarantinedBytes += uint64(len(bad))
	if err := Quarantine(s.fs, path, offset, bad, reason); err != nil {
		s.degrade(fmt.Sprintf("quarantining the bad tail of %s: %v", path, err))
	}
}

// degrade records the first persistence failure and stops writing. The
// in-memory cache keeps serving hits; only durability is lost.
func (s *MemoStore) degrade(reason string) {
	if s.stats.Degraded == "" {
		s.stats.Degraded = reason
	}
}

// persist appends one new cache entry to its shard. It is the cache's OnPut
// hook, so it runs on whatever goroutine measured the entry; the store's
// mutex serialises the appends.
func (s *MemoStore) persist(k memo.Key, r *uarch.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.stats.Degraded != "" {
		return
	}
	body, err := json.Marshal(r)
	if err != nil {
		s.degrade(fmt.Sprintf("encoding result %x: %v", k, err))
		return
	}
	shard := shardOf(k)
	if s.compact[shard] {
		// The shard still carries a bad tail Open could not trim; appending
		// after it would be unreachable. The entry stays in memory and lands
		// on disk when Close rewrites the shard wholesale.
		return
	}
	f, err := s.appender(shard)
	if err != nil {
		s.degrade(err.Error())
		return
	}
	s.buf = s.buf[:0]
	payload := append(append(s.buf, k[:]...), body...)
	s.buf = AppendRecord(payload[:0:0], payload)
	// One Write call per record: an interrupted process tears at most the
	// final frame, which the next Open's CRC scan drops and quarantines.
	if n, err := f.Write(s.buf); err != nil || n != len(s.buf) {
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(s.buf))
		}
		s.degrade(fmt.Sprintf("appending to %s: %v", s.shardPath(shard), err))
		return
	}
	s.stats.Persisted++
}

// appender returns shard's open append handle, creating the file (with its
// header) on first use. The header is also (re)written when the file exists
// but is empty — the state a bad-magic shard is left in after its whole
// content was quarantined and truncated away.
func (s *MemoStore) appender(shard int) (File, error) {
	if f := s.appenders[shard]; f != nil {
		return f, nil
	}
	path := s.shardPath(shard)
	info, statErr := s.fs.Stat(path)
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s for append: %v", path, err)
	}
	if statErr != nil || info.Size() == 0 {
		if _, err := f.Write([]byte(MemoMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("writing header of %s: %v", path, err)
		}
	}
	s.appenders[shard] = f
	return f, nil
}

// Close flushes and closes every shard, compacting the ones whose bad tail
// could not be truncated in place at Open (each is rewritten atomically
// from the in-memory entries). Close is idempotent; the cache stays usable
// (memory-only) afterwards.
func (s *MemoStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for shard, f := range s.appenders {
		if f == nil {
			continue
		}
		if err := f.Sync(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: syncing %s: %w", s.shardPath(shard), err)
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: closing %s: %w", s.shardPath(shard), err)
		}
		s.appenders[shard] = nil
	}
	for shard := 0; shard < MemoShards; shard++ {
		if !s.compact[shard] {
			continue
		}
		if err := s.compactShard(shard); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// compactShard rewrites one shard from the in-memory entries: temp file,
// fsync, rename — the same crash discipline as checkpoint saves.
func (s *MemoStore) compactShard(shard int) error {
	path := s.shardPath(shard)
	buf := []byte(MemoMagic)
	var encErr error
	s.cache.Range(func(k memo.Key, r *uarch.Result) {
		if shardOf(k) != shard || encErr != nil {
			return
		}
		body, err := json.Marshal(r)
		if err != nil {
			encErr = err
			return
		}
		buf = AppendRecord(buf, append(append([]byte(nil), k[:]...), body...))
	})
	if encErr != nil {
		return fmt.Errorf("store: compacting %s: %w", path, encErr)
	}
	if err := SaveRotate(s.fs, path, buf); err != nil {
		return fmt.Errorf("store: compacting %s: %w", path, err)
	}
	return nil
}

// IsShardFile reports whether name looks like a memo shard log (used by
// artifact-type detection in hefdoctor).
func IsShardFile(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, "memo-") && strings.HasSuffix(base, ".log")
}

// DecodeMemoPayload splits one shard record payload into its fingerprint
// and decoded result. It is the decoding step hefdoctor and the fuzz
// targets share with loadShard.
func DecodeMemoPayload(payload []byte) (memo.Key, *uarch.Result, error) {
	var k memo.Key
	if len(payload) <= len(k) {
		return k, nil, fmt.Errorf("%w: record payload too short for a fingerprint (%d bytes)", ErrCorrupt, len(payload))
	}
	copy(k[:], payload)
	var res uarch.Result
	if err := json.Unmarshal(payload[len(k):], &res); err != nil {
		return k, nil, fmt.Errorf("%w: undecodable result payload: %v", ErrCorrupt, err)
	}
	return k, &res, nil
}
