package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"hef/internal/memo"
	"hef/internal/store"
	"hef/internal/telemetry"
)

// TestMemoStatsOmittedWhenUnused: an unused cache converts to nil, so the
// report omits the memo key instead of emitting a block of zeros.
func TestMemoStatsOmittedWhenUnused(t *testing.T) {
	if MemoFromStats(memo.Stats{}) != nil {
		t.Fatal("zero memo stats produced a block")
	}
	rep := NewReport("t")
	rep.Memo = MemoFromStats(memo.Stats{})
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"memo"`) {
		t.Fatalf("report carries a memo key for an unused cache:\n%s", data)
	}
}

// TestStoreStatsMapping: every durable-layer counter — including the
// salvage/quarantine ones — lands in the report block under its JSON name.
func TestStoreStatsMapping(t *testing.T) {
	ss := StoreFromStats("/tmp/memo", store.MemoStats{
		Loaded: 10, Persisted: 4, Quarantined: 2,
		QuarantinedBytes: 512, SalvagedBytes: 2048, Degraded: "disk full",
	})
	if ss.Dir != "/tmp/memo" || ss.Loaded != 10 || ss.Persisted != 4 ||
		ss.Quarantined != 2 || ss.QuarantinedBytes != 512 ||
		ss.SalvagedBytes != 2048 || ss.Degraded != "disk full" {
		t.Fatalf("store block = %+v", ss)
	}
	data, err := json.Marshal(MemoStats{Hits: 1, Store: ss})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"dir"`, `"loaded"`, `"persisted"`, `"quarantined"`,
		`"quarantined_bytes"`, `"salvaged_bytes"`, `"degraded"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("store JSON missing %s: %s", key, data)
		}
	}
}

// TestEmitTimeAttachByteIdentity models the resume contract: the report
// body is assembled deterministically, and emit-time-only blocks (memo
// store counters, telemetry) attach to a copy at emit. Two runs whose
// deterministic bodies match must serialise identically however their
// emit-time state differed — a resumed run restored 10 entries from disk
// where the uninterrupted run persisted them, and only one ran with
// telemetry, yet the reports agree byte for byte once neither attaches.
func TestEmitTimeAttachByteIdentity(t *testing.T) {
	build := func() *RunReport {
		rep := NewReport("ssbbench")
		rep.CPU = "Intel Xeon Silver 4110"
		rep.Params["sf"] = "1"
		rep.Runs = append(rep.Runs, Run{Name: "Q1.1", Engine: "Hybrid", Elems: 100, Cycles: 200})
		return rep
	}

	// Uninterrupted run: persisted everything, telemetry disabled.
	uninterrupted := build()
	uninterrupted.Memo = MemoFromStats(memo.Stats{Hits: 3, Misses: 10, Entries: 10})
	uninterrupted.Memo.Store = StoreFromStats("d", store.MemoStats{Persisted: 10})

	// Resumed run: restored from disk, telemetry enabled.
	reg := telemetry.NewRegistry()
	reg.Counter(telemetry.MetricMemoHits, "").Add(3)
	resumed := build()
	resumed.Memo = MemoFromStats(memo.Stats{Hits: 3, Misses: 10, Entries: 10})
	resumed.Memo.Store = StoreFromStats("d", store.MemoStats{Loaded: 10})
	resumed.Telemetry = TelemetryFromRegistry(reg, nil, 1.5)

	strip := func(r *RunReport) []byte {
		cp := *r
		cp.Memo = MemoFromStats(memo.Stats{Hits: 3, Misses: 10, Entries: 10}) // body-level memo stays
		cp.Telemetry = nil
		b, err := cp.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := strip(uninterrupted), strip(resumed)
	if string(a) != string(b) {
		t.Fatalf("deterministic bodies differ:\n%s\nvs\n%s", a, b)
	}

	// And with the emit-time blocks attached, each full report round-trips.
	full, err := resumed.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var got RunReport
	if err := json.Unmarshal(full, &got); err != nil {
		t.Fatal(err)
	}
	if got.Memo.Store.Loaded != 10 || got.Telemetry == nil ||
		got.Telemetry.Series[telemetry.MetricMemoHits] != 3 {
		t.Fatalf("round-trip lost emit-time blocks: %+v", got)
	}
}

// TestTelemetryFromRegistry covers the emit-time telemetry block: nil
// registry → no block; a tracer contributes span counts and sorted tracks.
func TestTelemetryFromRegistry(t *testing.T) {
	if TelemetryFromRegistry(nil, telemetry.NewTracer(), 1) != nil {
		t.Fatal("nil registry produced a telemetry block")
	}
	reg := telemetry.NewRegistry()
	reg.Gauge(telemetry.MetricSweepTasks, "").Set(4)
	tr := telemetry.NewTracer()
	tr.Begin("sweep", "all")()
	tr.Begin("checkpoint", "flush")()
	ts := TelemetryFromRegistry(reg, tr, 2.5)
	if ts.Series[telemetry.MetricSweepTasks] != 4 || ts.Spans != 2 || ts.UptimeSeconds != 2.5 {
		t.Fatalf("telemetry block = %+v", ts)
	}
	if len(ts.SpanTracks) != 2 || ts.SpanTracks[0] != "checkpoint" || ts.SpanTracks[1] != "sweep" {
		t.Fatalf("span tracks = %v", ts.SpanTracks)
	}
}
