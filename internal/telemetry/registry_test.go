package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsNoOp(t *testing.T) {
	// The disabled-telemetry contract: every instrument, registry, tracer,
	// and metric set is nil-safe.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var fg *FloatGauge
	fg.Set(1.5)
	if fg.Value() != 0 {
		t.Fatal("nil float gauge value")
	}
	var h *Histogram
	h.Observe(0.1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram observed")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil ||
		r.FloatGauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry returned a live instrument")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if r.Values() != nil {
		t.Fatal("nil registry values")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	tr.Begin("t", "n")()
	tr.Record("t", "n", time.Now(), time.Second)
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded")
	}
	var wm *SweepMetrics
	wm.OnPlan(10, 2)
	wm.OnTaskDone()
	wm.OnFlush(0.01)
	wm.OnInterrupt()
	var xm *SearchMetrics
	xm.OnWave(4)
	xm.OnEvaluated(true)
	xm.OnBest(1.23)
	xm.OnSearchEnd()
	if NewSweepMetrics(nil) != nil || NewSearchMetrics(nil) != nil {
		t.Fatal("nil registry produced a metric set")
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if again := r.Counter("test_total", "dup"); again != c {
		t.Fatal("re-registering a counter returned a new instrument")
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Add(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	fg := r.FloatGauge("test_float", "a float gauge")
	fg.Set(2.5)
	if got := fg.Value(); got != 2.5 {
		t.Fatalf("float gauge = %g, want 2.5", got)
	}
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("hist sum = %g, want %g", got, want)
	}
	_, counts := h.Buckets()
	wantCounts := []uint64{1, 2, 1, 1}
	for i, w := range wantCounts {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	polled := 7.0
	r.GaugeFunc("test_func", "a callback", func() float64 { return polled })

	vals := r.Values()
	if vals["test_total"] != 4 || vals["test_gauge"] != 3 || vals["test_float"] != 2.5 || vals["test_func"] != 7 {
		t.Fatalf("values = %v", vals)
	}
	if vals["test_seconds_count"] != 5 {
		t.Fatalf("hist count in values = %v", vals["test_seconds_count"])
	}
	if v, ok := r.Value("test_total"); !ok || v != 4 {
		t.Fatalf("Value(test_total) = %v, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value(missing) found")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("hef_b_total", "second by name").Add(2)
	r.Gauge("hef_a_depth", "first by name").Set(-1)
	h := r.Histogram("hef_c_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# HELP hef_a_depth first by name",
		"# TYPE hef_a_depth gauge",
		"hef_a_depth -1",
		"# TYPE hef_b_total counter",
		"hef_b_total 2",
		"# TYPE hef_c_seconds histogram",
		`hef_c_seconds_bucket{le="0.5"} 1`,
		`hef_c_seconds_bucket{le="1"} 2`,
		`hef_c_seconds_bucket{le="+Inf"} 3`,
		"hef_c_seconds_sum 3.9",
		"hef_c_seconds_count 3",
	}
	pos := 0
	for _, w := range want {
		i := strings.Index(out[pos:], w)
		if i < 0 {
			t.Fatalf("exposition missing (or out of order) %q in:\n%s", w, out)
		}
		pos += i + len(w)
	}
}

func TestInstrumentsConcurrent(t *testing.T) {
	// Counters, gauges, and histograms must be exact under concurrency —
	// this test runs under -race in CI.
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_seconds", "", []float64{1})
	fg := r.FloatGauge("conc_float", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.5)
				fg.Set(1)
				_ = r.Values()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*per)
	}
	if got, want := h.Sum(), float64(workers*per)*0.5; got != want {
		t.Fatalf("hist sum = %g, want %g", got, want)
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer()
	end := tr.Begin("sweep", "figure")
	end()
	tr.Record("queue", "wait", time.Now(), 5*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 || tr.Len() != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Track != "sweep" || spans[0].Name != "figure" {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Dur != 5*time.Millisecond {
		t.Fatalf("span 1 dur = %v", spans[1].Dur)
	}

	// The cap bounds memory: spans beyond it are dropped, not appended.
	small := NewTracer()
	small.maxLen = 2
	for i := 0; i < 5; i++ {
		small.Record("t", "n", time.Now(), 0)
	}
	if small.Len() != 2 {
		t.Fatalf("capped tracer len = %d, want 2", small.Len())
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		addr    string
		hbSet   bool
		hb      time.Duration
		wantErr bool
	}{
		{"", false, 0, false},
		{":0", false, 0, false},
		{"127.0.0.1:9090", true, time.Second, false},
		{"localhost:http", false, 0, false}, // named ports resolve at listen time
		{"no-port", false, 0, true},
		{"127.0.0.1:", false, 0, true},
		{"", true, 0, true},
		{"", true, -time.Second, true},
	}
	for _, c := range cases {
		err := ValidateFlags(c.addr, c.hbSet, c.hb)
		if (err != nil) != c.wantErr {
			t.Errorf("ValidateFlags(%q, %v, %v) = %v, wantErr=%v", c.addr, c.hbSet, c.hb, err, c.wantErr)
		}
	}
}
