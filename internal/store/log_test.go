package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzRec is the record type FuzzLogOpen's log carries: like the services'
// records, a JSON object whose kind must come from a closed set.
type fuzzRec struct {
	Kind string `json:"kind"`
	N    int    `json:"n,omitempty"`
}

func decodeFuzzRec(payload []byte) (fuzzRec, error) {
	var r fuzzRec
	if err := json.Unmarshal(payload, &r); err != nil {
		return r, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.Kind != "a" && r.Kind != "b" {
		return r, fmt.Errorf("%w: kind %q unknown", ErrCorrupt, r.Kind)
	}
	return r, nil
}

// openFuzzLog opens path as a Log of fuzzRecs and returns what it replayed.
func openFuzzLog(t *testing.T, path string) (*Log, []fuzzRec) {
	t.Helper()
	var recs []fuzzRec
	l, err := OpenLog(OS, path, func(payload []byte) error {
		r, err := decodeFuzzRec(payload)
		if err == nil {
			recs = append(recs, r)
		}
		return err
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return l, recs
}

// FuzzLogOpen opens a Log over arbitrary bytes. The contract: open never
// fails or panics on a usable directory; it keeps exactly the longest
// valid prefix and moves exactly the rest into the sidecar, behind one
// header line; a second open quarantines nothing; and appends and
// compactions after salvage replay as the valid prefix plus what was
// written.
func FuzzLogOpen(f *testing.F) {
	var healthy []byte
	for _, p := range []string{`{"kind":"a","n":1}`, `{"kind":"b"}`, `{"kind":"a","n":2}`} {
		healthy = AppendRecord(healthy, []byte(p))
	}
	f.Add([]byte(nil))
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-3])                                                  // torn final frame
	f.Add(AppendRecord(append([]byte(nil), healthy...), []byte(`{"kind":"bogus"}`))) // foreign kind
	f.Add(AppendRecord(append([]byte(nil), healthy...), []byte("not json")))
	// FuzzStoreLoad's structural seeds.
	f.Add([]byte(MemoMagic))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	flipped := append([]byte(nil), healthy...)
	flipped[len(healthy)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		var want []fuzzRec
		validLen, _ := ScanRecords(data, func(payload []byte) error {
			r, err := decodeFuzzRec(payload)
			if err == nil {
				want = append(want, r)
			}
			return err
		})
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		l, got := openFuzzLog(t, path)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed %+v, want the valid prefix %+v", got, want)
		}
		if l.Salvaged() != len(data)-validLen {
			t.Fatalf("salvaged %d bytes, want %d", l.Salvaged(), len(data)-validLen)
		}
		if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, data[:validLen]) {
			t.Fatalf("log holds %d bytes after salvage, want the %d-byte valid prefix", len(onDisk), validLen)
		}
		side, sideErr := os.ReadFile(path + ".quarantine")
		if validLen == len(data) {
			if sideErr == nil {
				t.Fatalf("clean log grew a sidecar: %q", side)
			}
		} else {
			header, bad, ok := bytes.Cut(side, []byte("\n"))
			var meta struct{ Bytes, Offset int }
			if !ok || json.Unmarshal(header, &meta) != nil || meta.Bytes != len(bad) || meta.Offset != validLen {
				t.Fatalf("sidecar header %q does not describe %d bytes at offset %d", header, len(bad), validLen)
			}
			if !bytes.Equal(bad, data[validLen:]) {
				t.Fatal("sidecar does not hold exactly the removed suffix")
			}
		}

		// Salvage is idempotent, and the salvaged log takes appends.
		if err := l.Append(fuzzRec{Kind: "b", N: 9}); err != nil {
			t.Fatalf("append after salvage: %v", err)
		}
		l.Close()
		want = append(want, fuzzRec{Kind: "b", N: 9})
		l2, got := openFuzzLog(t, path)
		if l2.Salvaged() != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen salvaged %d bytes and replayed %+v, want 0 and %+v", l2.Salvaged(), got, want)
		}
		if side2, _ := os.ReadFile(path + ".quarantine"); !bytes.Equal(side2, side) {
			t.Fatal("reopen wrote to the sidecar")
		}

		// Compaction keeps what the caller keeps: drop the first record.
		keep := make([]any, 0, len(want))
		for _, r := range want[1:] {
			keep = append(keep, r)
		}
		if err := l2.Compact(keep); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := l2.Append(fuzzRec{Kind: "a"}); err != nil {
			t.Fatalf("append after compaction: %v", err)
		}
		l2.Close()
		want = append(want[1:], fuzzRec{Kind: "a"})
		l3, got := openFuzzLog(t, path)
		defer l3.Close()
		if l3.Salvaged() != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("after compaction: salvaged %d, replayed %+v, want 0 and %+v", l3.Salvaged(), got, want)
		}
	})
}
