// Package hef is the public API of the Hybrid Execution Framework (HEF), a
// reproduction of "Co-Utilizing SIMD and Scalar to Accelerate the Data
// Analytics Workloads" (Sun, Li, Weng; ICDE 2023).
//
// HEF co-schedules SIMD and scalar execution units: an operator is written
// once in the hybrid intermediate description (HID) and the framework finds,
// per processor, the optimal mix of v SIMD statements and s scalar
// statements replicated into packs of size p. Packing isomorphic statements
// eliminates the data dependencies between adjacent instructions, shrinking
// execution intervals from instruction latency to instruction throughput.
//
// Because Go exposes neither SIMD intrinsics nor issue-port scheduling, the
// "hardware" of this reproduction is a cycle-approximate out-of-order core
// simulator with Skylake-SP port layouts (Xeon Silver 4110 / Gold 6240R
// models); the search, translation, and code generation are the paper's
// algorithms in full. See DESIGN.md for the substitution rationale and
// EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	fw, _ := hef.New("silver")
//	b := hef.NewTemplate("scale", hef.U64)
//	in := b.Stream("in", hef.ReadStream)
//	out := b.Stream("out", hef.WriteStream)
//	c := b.Const("c", 3)
//	x := b.Load("x", in)
//	y := b.Mul("y", x, c)
//	b.Store(out, y)
//	tmpl, _ := b.Build(hef.KnownOp)
//	opt, _ := fw.OptimizeOperator(tmpl)
//	fmt.Println(opt.Node, opt.Source())
package hef

import (
	"context"

	"hef/internal/core"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/obs"
	"hef/internal/robust"
	"hef/internal/telemetry"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// Framework is a configured HEF instance for one target processor. It keeps
// the simulators its calls run on for later calls, and is safe for
// concurrent use.
type Framework = core.Framework

// Optimized is the outcome of optimizing one operator. Its code — Source
// and Program — is generated on the first call to either, so a search
// whose nodes were all served from a memo translates nothing unless asked.
type Optimized = core.Optimized

// Node is a candidate implementation: v SIMD statements, s scalar
// statements, pack size p.
type Node = translator.Node

// Template is an operator written in the hybrid intermediate description.
type Template = hid.Template

// Builder constructs templates programmatically.
type Builder = hid.Builder

// Result is a simulator measurement (cycles, instructions, IPC, cache
// counters, µops-per-cycle histogram, effective frequency).
type Result = uarch.Result

// SearchResult records a pruning search (tested nodes, candidate and end
// lists, pruning savings).
type SearchResult = hef.Result

// Stalls is the top-down attribution of a measurement's cycles: every cycle
// lands in exactly one bucket (retiring, frontend-, backend-port-, memory-,
// or dependency-bound), so the buckets sum to Result.Cycles.
type Stalls = uarch.Stalls

// OccHist is a coarse occupancy histogram (ROB and load-queue residency)
// recorded per simulated cycle.
type OccHist = uarch.OccHist

// Tracer records spans: per-instruction lifecycle spans (dispatch, issue,
// retire) when attached to a simulator, and sweep lifecycle spans; export
// them with ChromeTrace.
type Tracer = telemetry.Tracer

// TraceSection names one run's spans inside a Chrome trace export.
type TraceSection = obs.TraceSection

// RunReport is the versioned machine-readable report schema emitted by the
// command-line tools behind -json.
type RunReport = obs.RunReport

// SearchReport is the machine-readable form of a pruning search.
type SearchReport = obs.SearchReport

// Option configures New.
type Option = core.Option

// OptimizeOptions tunes Framework.OptimizeOperatorContext: an optional
// node-evaluation budget for graceful degradation.
type OptimizeOptions = core.OptimizeOptions

// SearchOpts configures the low-level SearchContext degradation behaviour.
type SearchOpts = hef.SearchOpts

// ErrBudgetExhausted marks a search stopped by its node-evaluation budget;
// test with errors.Is. The accompanying result holds the best node found
// within the budget and has Partial set.
var ErrBudgetExhausted = hef.ErrBudgetExhausted

// PanicError is a translator or simulator panic recovered inside the search
// and surfaced as an error; match with errors.As.
type PanicError = hef.PanicError

// Perturb is the seeded, deterministic fault-injection model for
// sensitivity analysis: relative jitter on instruction latencies and
// occupancies, cache hit latencies, and AVX-license frequencies, plus
// transient port-unavailable cycles.
type Perturb = uarch.Perturb

// SensConfig configures a sensitivity analysis (Sensitivity driver).
type SensConfig = robust.SensConfig

// Sensitivity reports how stable an operator's optimum is across an
// ensemble of perturbed machine models: optimum stability, the cycle-cost
// regret of the unperturbed pick, and candidate rank churn.
type Sensitivity = robust.Sensitivity

// SensitivityReport is the versioned, byte-deterministic JSON document the
// hefsens tool emits (schema "hef.robust.sensitivity-report").
type SensitivityReport = robust.Report

// Element types of the hybrid intermediate description (Table II).
const (
	I16 = hid.I16
	U16 = hid.U16
	I32 = hid.I32
	U32 = hid.U32
	I64 = hid.I64
	U64 = hid.U64
	F32 = hid.F32
	F64 = hid.F64
)

// Memory patterns for template parameters.
const (
	ReadStream   = hid.ReadStream
	WriteStream  = hid.WriteStream
	RandomRegion = hid.RandomRegion
)

// SIMD widths.
const (
	Neon   = isa.W128
	AVX2   = isa.W256
	AVX512 = isa.W512
)

// New builds a framework for the named CPU model: "silver" (Xeon Silver
// 4110, one AVX-512 unit per core), "gold" (Xeon Gold 6240R, two),
// "neoverse" (ARM Neoverse N1, 128-bit Neon — where gather falls back to
// scalar statements), or "zen" (AMD Zen 2, 256-bit). The SIMD width
// defaults to the part's native width.
func New(cpuName string, opts ...Option) (*Framework, error) {
	return core.New(cpuName, opts...)
}

// WithWidth selects the SIMD width (default AVX-512).
func WithWidth(w isa.Width) Option { return core.WithWidth(w) }

// WithTestElems overrides the synthetic test size used per evaluation in
// the offline search.
func WithTestElems(n int64) Option { return core.WithTestElems(n) }

// NewTemplate starts building an operator template.
func NewTemplate(name string, elem hid.Type) *Builder { return hid.NewTemplate(name, elem) }

// ParseTemplates reads an operator-template file (the paper's operator list
// and dictionary form).
func ParseTemplates(src string) (*hid.File, error) { return core.ParseTemplates(src) }

// KnownOp reports whether a HID operation exists in the built-in ISA
// description table; pass it to Builder.Build.
func KnownOp(op string) bool {
	_, err := isa.Describe(op)
	return err == nil
}

// SearchSpaceSize evaluates the paper's Eq. 2 for the candidate-space size.
func SearchSpaceSize(v, s, p int) int { return hef.SearchSpaceSize(v, s, p) }

// Analyze runs a sensitivity analysis: a baseline pruning search plus
// cfg.Trials searches on perturbed machine models, scored against the
// baseline. Deterministic for a fixed SensConfig.
func Analyze(ctx context.Context, cfg SensConfig) (*Sensitivity, error) {
	return robust.Analyze(ctx, cfg)
}

// NewReport starts an empty run report for the named tool.
func NewReport(tool string) *RunReport { return obs.NewReport(tool) }

// RunFromResult converts one simulator measurement into a report run.
func RunFromResult(name, engine, node string, res *Result, seconds float64) obs.Run {
	return obs.RunFromResult(name, engine, node, res, seconds)
}

// ChromeTrace exports recorded spans as Chrome trace-event JSON
// (open at https://ui.perfetto.dev or chrome://tracing).
func ChromeTrace(sections []TraceSection) ([]byte, error) { return obs.ChromeTrace(sections) }

// SearchDOT renders a pruning search as a Graphviz digraph.
func SearchDOT(r *SearchResult) string { return obs.SearchDOT(r) }

// SearchJSON renders a pruning search as an indented RunReport document.
func SearchJSON(r *SearchResult) ([]byte, error) { return obs.SearchJSON(r) }

// Version identifies the library release.
const Version = core.Version
