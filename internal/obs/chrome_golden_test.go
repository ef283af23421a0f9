package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hef/internal/telemetry"
	"hef/internal/translator"
)

// chromeMurmurSHA256 pins the exact export bytes of murmur n(1,1,2), 16
// iterations on silver: every field, instants against durations, args,
// process ids and the timestamp sort. A mismatch means the exporter or the
// simulator's schedule changed; update it only for an intended change.
const (
	chromeMurmurSHA256 = "9eafd7d8c71be6de7b47bb49038cd35a60489d233ab76ba2271eede8e5abbac3"
	chromeMurmurLen    = 269227
)

func TestChromeTraceBytesGolden(t *testing.T) {
	tr, _ := traceMurmur(t, translator.Node{V: 1, S: 1, P: 2})
	out, err := ChromeTrace([]TraceSection{{Name: "murmur hybrid", Spans: tr.Spans()}})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != chromeMurmurSHA256 || len(out) != chromeMurmurLen {
		t.Fatalf("murmur trace export changed: %d bytes, sha256 %s (want %d bytes, %s)", len(out), got, chromeMurmurLen, chromeMurmurSHA256)
	}
}

// lifecycleGolden is the export of the fixed spans below, byte for byte:
// one process, spans sorted by start, a 0 µs span without a dur field.
const lifecycleGolden = `{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":"meta","args":{"name":"sweep lifecycle"}},{"name":"hefopt","ph":"X","ts":0,"dur":9000,"pid":0,"tid":"sweep"},{"name":"op/murmur","ph":"X","ts":20,"dur":3000,"pid":0,"tid":"run"},{"name":"flush","ph":"X","ts":3020,"pid":0,"tid":"checkpoint"},{"name":"op/crc64","ph":"X","ts":4000,"dur":3001,"pid":0,"tid":"run"},{"name":"flush","ph":"X","ts":7100,"dur":250,"pid":0,"tid":"checkpoint"}],"displayTimeUnit":"ns"}`

func TestChromeTraceLifecycleGolden(t *testing.T) {
	spans := []telemetry.Span{
		{Name: "hefopt", Track: "sweep", Start: 0, Dur: 9000},
		{Name: "op/crc64", Track: "run", Start: 4000, Dur: 3001},
		{Name: "op/murmur", Track: "run", Start: 20, Dur: 3000},
		{Name: "flush", Track: "checkpoint", Start: 3020, Dur: 0},
		{Name: "flush", Track: "checkpoint", Start: 7100, Dur: 250},
	}
	out, err := ChromeTrace([]TraceSection{{Name: "sweep lifecycle", Spans: spans}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != lifecycleGolden {
		t.Fatalf("lifecycle export changed:\n got %s\nwant %s", out, lifecycleGolden)
	}
}
