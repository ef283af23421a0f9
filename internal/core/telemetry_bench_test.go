package core

import (
	"context"
	"os"
	"sort"
	"testing"
	"time"

	"hef/internal/hashes"
	"hef/internal/hef"
	"hef/internal/telemetry"
)

// installTelemetry points the process-wide search instrument set at a
// fresh registry, as mount.Start does; the returned func uninstalls it.
func installTelemetry() func() {
	hef.SetMetrics(telemetry.NewSearchMetrics(telemetry.NewRegistry()))
	return func() { hef.SetMetrics(nil) }
}

// BenchmarkOptimizeOperatorTelemetry mirrors BenchmarkOptimizeOperator/cold
// with the process-wide telemetry instruments uninstalled ("off", the
// default for every tool run without -metrics-addr/-heartbeat) and
// installed ("on"). The off/on pair is the BENCH_3.json snapshot: what live
// observability costs the offline phase, and — since the disabled path
// differs from the enabled one only by nil-receiver early returns where the
// enabled path does atomic updates — an upper bound on the
// instrumented-but-disabled overhead.
func BenchmarkOptimizeOperatorTelemetry(b *testing.B) {
	fw, err := New("silver", WithTestElems(1<<12))
	if err != nil {
		b.Fatal(err)
	}
	tmpl := hashes.MurmurTemplate()
	ctx := context.Background()

	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fw.OptimizeOperatorContext(ctx, tmpl, OptimizeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		uninstall := installTelemetry()
		defer uninstall()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fw.OptimizeOperatorContext(ctx, tmpl, OptimizeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTelemetryOverhead enforces the ≤2% overhead budget from the telemetry
// design: the full offline phase with every instrument live must stay
// within 2% of the uninstrumented-defaults run. Instrumented-but-disabled
// code only pays nil checks on the same hook sites, so its overhead is
// strictly below the enabled overhead this test bounds. Wall-clock
// assertions flake on loaded machines, so the check is opt-in via
// HEF_OVERHEAD_CHECK=1 (the CI metrics-smoke job sets it) and uses the
// min-of-N estimator with interleaved samples to cancel thermal drift.
func TestTelemetryOverhead(t *testing.T) {
	if os.Getenv("HEF_OVERHEAD_CHECK") != "1" {
		t.Skip("set HEF_OVERHEAD_CHECK=1 to measure telemetry overhead")
	}
	fw, err := New("silver", WithTestElems(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	tmpl := hashes.MurmurTemplate()
	ctx := context.Background()
	run := func() time.Duration {
		start := time.Now()
		if _, err := fw.OptimizeOperatorContext(ctx, tmpl, OptimizeOptions{}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// Warm code and allocator caches before timing anything.
	run()
	const samples = 7
	var off, on []time.Duration
	for i := 0; i < samples; i++ {
		off = append(off, run())
		uninstall := installTelemetry()
		on = append(on, run())
		uninstall()
	}
	min := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[0]
	}
	offMin, onMin := min(off), min(on)
	ratio := float64(onMin) / float64(offMin)
	t.Logf("off=%v on=%v overhead=%.2f%%", offMin, onMin, (ratio-1)*100)
	if ratio > 1.02 {
		t.Errorf("telemetry overhead %.2f%% exceeds the 2%% budget (off=%v on=%v)",
			(ratio-1)*100, offMin, onMin)
	}
}
