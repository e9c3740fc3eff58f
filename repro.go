// Package repro is the public API of the reproduction of "Performance
// evaluation of packet capturing systems for high-speed networks"
// (Fabian Schneider, TU München, 2005).
//
// The package bundles three things:
//
//   - The measurement study: the four systems under test (swan, snipe,
//     moorhen, flamingo), the enhanced Linux Kernel Packet Generator with
//     empirical packet-size distributions, and the full measurement cycle.
//     Every table and figure of the thesis is runnable via Experiments.
//
//   - The capture-system simulation: structural models of the FreeBSD BPF
//     and Linux PF_PACKET stacks on Opteron and Xeon machines
//     (internal/capture), driven through Run and Sweep.
//
//   - The offline tooling: a libpcap-style Handle over pcap files with
//     BPF filtering (the createDist/tcpdump-style tools in cmd/ build on
//     it), the filter-expression compiler, and the trace synthesizer.
//
// Quick start:
//
//	w := repro.Workload{Packets: 100_000, TargetRate: 800e6, Seed: 1}
//	stats := repro.Run(repro.Moorhen(), w)
//	fmt.Printf("captured %.2f%% at %.0f%% CPU\n",
//	    stats.CaptureRate(), stats.CPUUsage())
package repro

import (
	"context"

	"repro/internal/bpf"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/filter"
	"repro/internal/pkt"
	"repro/internal/pktgen"
	"repro/internal/trace"
)

// Config describes one system under test; see the field documentation in
// the underlying type for every knob (CPUs, buffers, filter, load, ...).
type Config = capture.Config

// Stats is the outcome of one measurement run.
type Stats = capture.Stats

// AppLoad configures the artificial per-packet load of the capturing
// application (memcpys, zlib, disk writes, pipe-to-gzip).
type AppLoad = capture.AppLoad

// Costs exposes the calibrated kernel-path cost model for ablations.
type Costs = capture.Costs

// Workload describes a generated packet train (count, rate, seed).
type Workload = core.Workload

// PolicySpec configures a per-application sampling / load-shedding
// policy (Config.Policy): uniform 1-in-N, whole-flow 1-in-N, or
// adaptive queue-depth feedback. The zero value keeps every packet.
type PolicySpec = capture.PolicySpec

// ParsePolicy parses a policy spec: "none", "uniform:N", "flow:N",
// "adaptive[:T]".
func ParsePolicy(s string) (PolicySpec, error) { return capture.ParsePolicy(s) }

// FairnessIndex returns Jain's fairness index over per-application
// capture counts (1.0 = equal shares; defined as 1.0 for the all-zero
// column).
func FairnessIndex(captured []uint64) float64 { return capture.FairnessIndex(captured) }

// Operating systems of the study.
const (
	Linux   = capture.Linux
	FreeBSD = capture.FreeBSD
)

// The four systems of the thesis (Figure 2.4).
var (
	Swan     = core.Swan     // Linux / dual AMD Opteron
	Snipe    = core.Snipe    // Linux / dual Intel Xeon
	Moorhen  = core.Moorhen  // FreeBSD 5.4 / dual AMD Opteron
	Flamingo = core.Flamingo // FreeBSD 5.4 / dual Intel Xeon
)

// The modern 10/40/100G systems (EXPERIMENTS.md, "Modern capture
// stacks"): RSS multi-queue NICs feeding three receive architectures.
var (
	Heron  = core.Heron  // Linux NAPI + per-packet copies, 8 cores
	Osprey = core.Osprey // poll-mode (busy-spin PMD cores), PCIe 4.0 host
	Kite   = core.Kite   // AF_XDP-style zero copy over a shared UMEM
)

// Sniffers returns all four systems in plotting order.
func Sniffers() []Config { return core.Sniffers() }

// ModernSniffers returns the three modern systems in plotting order.
func ModernSniffers() []Config { return core.ModernSniffers() }

// Run executes one measurement run of one system (time-compressing OS
// constants and buffers for short workloads) and returns its statistics.
func Run(cfg Config, w Workload) Stats { return core.RunOnce(cfg, w) }

// Series and Point are sweep results (one line of a thesis plot).
type (
	Series = core.Series
	Point  = core.Point
)

// Sweep runs the §3.4 measurement cycle over the given data rates
// (Mbit/s) with reps repetitions per point.
func Sweep(cfgs []Config, ratesMbit []float64, w Workload, reps int) []Series {
	return SweepParallel(cfgs, ratesMbit, w, reps, 0)
}

// SweepParallel is Sweep with the independent measurement cells — one per
// (system, rate, repetition) — distributed over a worker pool: workers 0
// runs serially, negative uses one worker per CPU. Each generated train is
// recorded once and replayed into every system (the optical splitter of
// the testbed), and the output is byte-identical to Sweep for any worker
// count.
func SweepParallel(cfgs []Config, ratesMbit []float64, w Workload, reps, workers int) []Series {
	series, _ := core.Sweep(context.Background(), core.RateGrid(cfgs, ratesMbit, w, reps), core.RunOptions{Workers: workers})
	return series
}

// FormatTable renders sweep results as the thesis-style table.
func FormatTable(title string, s []Series) string { return core.FormatTable(title, s) }

// Experiment is one table/figure of the thesis's evaluation.
type Experiment = experiments.Experiment

// ExperimentOptions control experiment fidelity.
type ExperimentOptions = experiments.Options

// Experiments returns every reproduced table and figure.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment runs one experiment by its id (e.g. "fig6.3-smp").
func RunExperiment(id string, o ExperimentOptions) (string, error) {
	e, err := experiments.Find(id)
	if err != nil {
		return "", err
	}
	return e.Run(o), nil
}

// CompileFilter compiles a tcpdump-style expression to a classic BPF
// program. snaplen bounds the accepted capture length (0 = 65535).
func CompileFilter(expr string, snaplen uint32) (bpf.Program, error) {
	return filter.Compile(expr, snaplen)
}

// ReferenceFilter is the 50-instruction measurement filter of Figure 6.5.
const ReferenceFilter = filter.ReferenceFilterExpr

// Generator is the enhanced Linux Kernel Packet Generator.
type Generator = pktgen.Generator

// NewGenerator returns a generator with the thesis defaults, seeded for a
// reproducible packet train.
func NewGenerator(seed uint64) *Generator { return pktgen.New(seed) }

// Distribution is a two-stage packet-size distribution.
type Distribution = dist.Distribution

// MWNDistribution returns the measurement distribution: the two-stage
// representation of the synthetic 24h MWN trace shape.
func MWNDistribution() (*Distribution, error) {
	return dist.Build(trace.MWNCounts(1_000_000), dist.DefaultParams())
}

// SynthesizeTrace writes an n-packet pcap trace with the MWN size
// distribution; see internal/trace.Synthesize.
var SynthesizeTrace = trace.Synthesize

// FormatPacket renders one frame as a tcpdump-style one-liner (timestamp,
// addresses, protocol, flags, length). A zero timestamp is omitted.
var FormatPacket = pkt.Format
