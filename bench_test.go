// Benchmarks regenerating every table and figure of the paper's evaluation
// section (see DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results):
//
//	Fig. 3        BenchmarkFig3ExecutionModes
//	Figs. 8-10    BenchmarkFig{8,9,10}SSBSF{10,20,50}{Silver,Gold}
//	Tables III-V  BenchmarkTable{3,4,5}...Counters
//	Tables VI-IX  BenchmarkTable{6,7}Murmur..., BenchmarkTable{8,9}CRC64...
//	Figs. 11-14   BenchmarkFig{11,12,13,14}Uops...
//
// The benchmarks report the paper's headline ratios as custom metrics
// (hybrid speedup over scalar and SIMD, Voila-vs-hybrid, GE2 µop fractions)
// so `go test -bench` output records the reproduced shape, not just the
// harness runtime.
package hef_test

import (
	"testing"

	"hef/internal/experiments"
	"hef/internal/queries"
)

// benchFigure drives one SSB figure and reports the mean hybrid speedups
// and the figure's allocations.
func benchFigure(b *testing.B, cpu string, sf float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure(experiments.FigureConfig{
			CPUName: cpu, NominalSF: sf, SampleSF: 0.005,
		})
		if err != nil {
			b.Fatal(err)
		}
		var overScalar, overSIMD float64
		for _, id := range fig.Order {
			sc, si := fig.Speedups(id)
			overScalar += sc
			overSIMD += si
		}
		n := float64(len(fig.Order))
		b.ReportMetric(overScalar/n, "hyb/scalar-x")
		b.ReportMetric(overSIMD/n, "hyb/simd-x")
	}
}

func BenchmarkFig8SSBSF10Silver(b *testing.B)  { benchFigure(b, "silver", 10) }
func BenchmarkFig8SSBSF10Gold(b *testing.B)    { benchFigure(b, "gold", 10) }
func BenchmarkFig9SSBSF20Silver(b *testing.B)  { benchFigure(b, "silver", 20) }
func BenchmarkFig9SSBSF20Gold(b *testing.B)    { benchFigure(b, "gold", 20) }
func BenchmarkFig10SSBSF50Silver(b *testing.B) { benchFigure(b, "silver", 50) }
func BenchmarkFig10SSBSF50Gold(b *testing.B)   { benchFigure(b, "gold", 50) }

// benchCounters drives one Table III/IV/V cell set and reports the hybrid
// and Voila times plus the Voila LLC-miss reduction.
func benchCounters(b *testing.B, cpu, queryID string, sf float64) {
	q, err := queries.Get(queryID)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure(experiments.FigureConfig{
			CPUName: cpu, NominalSF: sf, SampleSF: 0.005,
			Queries: []queries.Query{q},
		})
		if err != nil {
			b.Fatal(err)
		}
		runs := fig.Runs[queryID]
		hybrid := runs[experiments.KindHybrid]
		voila := runs[experiments.KindVoila]
		b.ReportMetric(hybrid.Seconds*1e3, "hybrid-ms")
		b.ReportMetric(voila.Seconds*1e3, "voila-ms")
		if vm := voila.Total.Cache.LLCMissesReported(); vm > 0 {
			b.ReportMetric(float64(hybrid.Total.Cache.LLCMissesReported())/float64(vm), "llc-hyb/voila-x")
		}
		b.ReportMetric(hybrid.IPC(), "hybrid-ipc")
	}
}

func BenchmarkTable3Q33Counters(b *testing.B) { benchCounters(b, "silver", "Q3.3", 10) }
func BenchmarkTable4Q23Counters(b *testing.B) { benchCounters(b, "silver", "Q2.3", 20) }
func BenchmarkTable5Q21Counters(b *testing.B) { benchCounters(b, "gold", "Q2.1", 50) }

// benchHash drives one Table VI-IX / Fig. 11-14 experiment.
func benchHash(b *testing.B, cpu, bench string, reportHist bool) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHashBench(cpu, bench, experiments.HashElems)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Scalar.TimeMS(), "scalar-ms")
		b.ReportMetric(res.SIMD.TimeMS(), "simd-ms")
		b.ReportMetric(res.Hybrid.TimeMS(), "hybrid-ms")
		if reportHist {
			b.ReportMetric(res.SIMD.HistGE(2)*100, "simd-ge2-pct")
			b.ReportMetric(res.Hybrid.HistGE(2)*100, "hybrid-ge2-pct")
		} else {
			b.ReportMetric(res.Scalar.Res.IPC(), "scalar-ipc")
			b.ReportMetric(res.SIMD.Res.IPC(), "simd-ipc")
			b.ReportMetric(res.Hybrid.Res.IPC(), "hybrid-ipc")
		}
	}
}

func BenchmarkTable6MurmurSilver(b *testing.B) { benchHash(b, "silver", "murmur", false) }
func BenchmarkTable7MurmurGold(b *testing.B)   { benchHash(b, "gold", "murmur", false) }
func BenchmarkTable8CRC64Silver(b *testing.B)  { benchHash(b, "silver", "crc64", false) }
func BenchmarkTable9CRC64Gold(b *testing.B)    { benchHash(b, "gold", "crc64", false) }

func BenchmarkFig11UopsMurmurSilver(b *testing.B) { benchHash(b, "silver", "murmur", true) }
func BenchmarkFig12UopsMurmurGold(b *testing.B)   { benchHash(b, "gold", "murmur", true) }
func BenchmarkFig13UopsCRC64Silver(b *testing.B)  { benchHash(b, "silver", "crc64", true) }
func BenchmarkFig14UopsCRC64Gold(b *testing.B)    { benchHash(b, "gold", "crc64", true) }

// BenchmarkFig3ExecutionModes reproduces the motivating example: packing a
// gather-bound kernel turns the latency-bound SIMD chain into a
// throughput-bound hybrid stream.
func BenchmarkFig3ExecutionModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig3("silver")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Label {
			case "SIMD":
				b.ReportMetric(r.NSPerElem, "simd-ns/elem")
			case "hybrid+pack":
				b.ReportMetric(r.NSPerElem, "hybrid-ns/elem")
			}
		}
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationPackSweep sweeps the pack depth at the murmur hybrid
// shape and reports the best depth and the cost of over-packing.
func BenchmarkAblationPackSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.PackSweep("silver", "murmur", 1, 3, 10)
		if err != nil {
			b.Fatal(err)
		}
		best := pts[0]
		for _, p := range pts {
			if p.NSPerElem < best.NSPerElem {
				best = p
			}
		}
		b.ReportMetric(float64(best.Node.P), "best-pack")
		b.ReportMetric(pts[len(pts)-1].NSPerElem/best.NSPerElem, "overpack-penalty-x")
	}
}

// BenchmarkAblationLFBSweep reports the memory-level-parallelism scaling of
// the DRAM-resident probe.
func BenchmarkAblationLFBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.LFBSweep("silver", []int{4, 12, 24}, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].NSPerElem/pts[2].NSPerElem, "mlp-4to24-x")
	}
}

// BenchmarkWidthStudy reports the hybrid win at AVX2, the nearest in-model
// check of the paper's ISA-portability claim.
func BenchmarkWidthStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunWidthStudy("silver", "murmur")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Width == 256 {
				b.ReportMetric(r.SpeedupSIMD(), "avx2-hyb/simd-x")
			}
		}
	}
}
