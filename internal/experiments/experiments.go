// Package experiments defines one runnable experiment per table and figure
// of the thesis's evaluation (Chapters 4 and 6 plus Appendix B), maps each
// to the modules that implement it, and renders the same series the thesis
// plots. See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/pktgen"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options control experiment fidelity: more packets and repetitions cost
// time but tighten the results. Defaults reproduce the shapes quickly.
type Options struct {
	Packets int       // packets per run (thesis: 1 000 000)
	Reps    int       // repetitions per point (thesis: 7)
	Seed    uint64    // base seed
	Rates   []float64 // data-rate sweep in Mbit/s (default 50..950 step 50)
	// Parallelism distributes the independent measurement cells of a sweep
	// over worker goroutines: 0 = serial, <0 = one worker per CPU, >0 =
	// exactly that many. Output is byte-identical for any value.
	Parallelism int
	// Why appends the per-point drop-cause breakdown (core.FormatWhy) to
	// the rendered table — the `experiment -why` flag.
	Why bool
	// Chaos, when nonzero, runs the sweeps under the seeded fault-injection
	// plan (faults.DefaultPlan), supervised by the cell pipeline: validation,
	// bounded retry, quarantine, outlier rejection, graceful degradation.
	// The chaos bookkeeping is appended to tables (core.FormatChaos) and
	// carried in the NDJSON records. Zero keeps the legacy byte-identical
	// output paths.
	Chaos uint64
	// Policy applies a sampling / load-shedding policy to every capturing
	// application of the sweeps (capture.ParsePolicy syntax) — the
	// `experiment -policy` flag. Empty means no policy and keeps every
	// output byte-identical to the unpoliced runs. A semantic knob: it
	// changes what the measurement cells compute and is part of the
	// campaign fingerprint. The policy-sweep experiment ext-shedding
	// ignores it (it sweeps the policies itself).
	Policy string
	// Rings is the RX ring-count axis of the modern-stack sweep
	// (ext-modern) — the `experiment -rings` flag. Empty means the
	// default {2, 4} and keeps the campaign fingerprint identical to
	// pre-ring journals (the field enters the fingerprint via omitempty,
	// like Policy). A semantic knob: it changes the swept cells.
	Rings []int

	// Ctx, when non-nil, lets a caller cancel a running experiment: the
	// worker pools drain (in-flight cells finish, nothing new starts) and
	// the experiment's output must be discarded. A runtime knob, not part
	// of the campaign fingerprint.
	Ctx context.Context
	// Journal, when non-nil, makes sweeps durable: completed cells are
	// recorded in the campaign write-ahead log as they finish and replayed
	// on a resumed run (see Campaign). A runtime knob, not part of the
	// campaign fingerprint.
	Journal core.CellJournal
	// Observer, when non-nil, receives the pipeline's live event feed (cell
	// completions, deterministic point aggregates, retry/quarantine
	// decisions) — the monitoring service and the streaming -json writer
	// attach here. A runtime knob, not part of the campaign fingerprint;
	// observation never changes a result.
	Observer core.Observer
	// Executor, when non-nil, hands the cells the pipeline would run
	// locally to an external executor instead — the dispatch coordinator
	// leases them to remote workers. Replayed cells never reach the
	// executor, and the executor's results feed the same journaling,
	// observation, and fixed-order aggregation, so output stays
	// byte-identical to a local run. A runtime knob, not part of the
	// campaign fingerprint.
	Executor core.CellExecutor
}

// ctx resolves the cancellation context (nil means "never cancelled").
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// runOptions maps the options onto the cell pipeline's: experiment
// namespaces the journal keys and events, and a -chaos seed becomes the
// fault plan.
func (o Options) runOptions(experiment string) core.RunOptions {
	ro := core.RunOptions{Workers: o.Parallelism, Experiment: experiment,
		Journal: o.Journal, Observer: o.Observer, Executor: o.Executor}
	if o.Chaos != 0 {
		ro.Plan = faults.DefaultPlan(o.Chaos)
	}
	return ro
}

// applyPolicy stamps the -policy override onto sweep configs. An empty or
// "none" policy returns cfgs untouched (the same slice), so the default
// paths stay byte-identical. The CLI validates the spec string before any
// sweep runs; a malformed one reaching this point is a programming error.
func (o Options) applyPolicy(cfgs []capture.Config) []capture.Config {
	if o.Policy == "" {
		return cfgs
	}
	spec, err := capture.ParsePolicy(o.Policy)
	if err != nil {
		panic(err)
	}
	if !spec.Enabled() {
		return cfgs
	}
	out := make([]capture.Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Policy = spec
		out[i] = cfg
	}
	return out
}

func (o Options) withDefaults() Options {
	if o.Packets <= 0 {
		o.Packets = 40000
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Rates) == 0 {
		for r := 50.0; r <= 950; r += 50 {
			o.Rates = append(o.Rates, r)
		}
	}
	return o
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string // thesis plot id, e.g. "fig6.3-smp"
	Paper string // the figure/table in the thesis
	Title string
	Run   func(o Options) string
	// Series returns the experiment's measurement points in structured
	// form (for `experiment -json`); nil for experiments that have no
	// series shape (distribution plots, histograms).
	Series func(o Options) []core.Series
}

// expt builds a text-only experiment (no structured series form).
func expt(id, paper, title string, run func(Options) string) Experiment {
	return Experiment{ID: id, Paper: paper, Title: title, Run: run}
}

// All returns every experiment: the thesis's tables and figures in thesis
// order, followed by the future-work extensions and model ablations
// (extensions.go).
func All() []Experiment {
	return append(thesisExperiments(), extensions()...)
}

func thesisExperiments() []Experiment {
	const rateTitle = "capturing rate and CPU usage vs data rate [Mbit/s]"
	return []Experiment{
		expt("fig4.1", "Figure 4.1", "packet size distribution of the 24h MWN trace", runFig41),
		expt("fig4.2", "Figure 4.2", "top-20 packet sizes with cumulative shares", runFig42),
		expt("fig4.3", "Figure 4.3/§4.3.1", "generator output fidelity vs input distribution", runFig43),
		expt("gen-rate", "§4.1.3", "maximum generation rate by fixed packet size", runGenRate),
		sweepExpt("fig6.2-nosmp", "Figure 6.2 (33)", "baseline, default buffers, single CPU", rateTitle, sysCfgs(defaultBuffers, single)),
		sweepExpt("fig6.2-smp", "Figure 6.2 (19)", "baseline, default buffers, dual CPU", rateTitle, sysCfgs(defaultBuffers, dual)),
		sweepExpt("fig6.3-nosmp", "Figure 6.3a (32)", "increased buffers, single CPU", rateTitle, sysCfgs(bigBuffers, single)),
		sweepExpt("fig6.3-smp", "Figure 6.3b (19)", "increased buffers, dual CPU", rateTitle, sysCfgs(bigBuffers, dual)),
		bufferSweepExpt("fig6.4-nosmp", "Figure 6.4a (33)", "buffer-size sweep at top rate, single CPU", single),
		bufferSweepExpt("fig6.4-smp", "Figure 6.4b (20)", "buffer-size sweep at top rate, dual CPU", dual),
		sweepExpt("fig6.6-nosmp", "Figure 6.6a (34)", "50-instruction BPF filter, single CPU", rateTitle, sysCfgs(withFilter, single)),
		sweepExpt("fig6.6-smp", "Figure 6.6b (21)", "50-instruction BPF filter, dual CPU", rateTitle, sysCfgs(withFilter, dual)),
		multiAppExpt("fig6.7", "Figure 6.7 (22)", "two concurrent capturing applications", 2),
		multiAppExpt("fig6.8", "Figure 6.8 (23)", "four concurrent capturing applications", 4),
		multiAppExpt("fig6.9", "Figure 6.9 (24)", "eight concurrent capturing applications", 8),
		sweepExpt("fig6.10-nosmp", "Figure 6.10a (35)", "50 additional memcpys per packet, single CPU", rateTitle, sysCfgs(memcpy(50), single)),
		sweepExpt("fig6.10-smp", "Figure 6.10b (27)", "50 additional memcpys per packet, dual CPU", rateTitle, sysCfgs(memcpy(50), dual)),
		sweepExpt("figB.2", "Figure B.2", "25 additional memcpys per packet, dual CPU", rateTitle, sysCfgs(memcpy(25), dual)),
		sweepExpt("fig6.11-nosmp", "Figure 6.11a (40)", "zlib level 3 per packet, single CPU", rateTitle, sysCfgs(gzwrite(3), single)),
		sweepExpt("fig6.11-smp", "Figure 6.11b (39)", "zlib level 3 per packet, dual CPU", rateTitle, sysCfgs(gzwrite(3), dual)),
		sweepExpt("figB.3", "Figure B.3", "zlib level 9 per packet, dual CPU", rateTitle, sysCfgs(gzwrite(9), dual)),
		sweepExpt("fig6.12", "Figure 6.12 (48)", "tcpdump piped to gzip -3, dual CPU", rateTitle, sysCfgs(pipeGzip(3), dual)),
		expt("fig6.13", "Figure 6.13 (00)", "bonnie++: maximum disk write speed and CPU", runBonnie),
		sweepExpt("fig6.14-nosmp", "Figure 6.14a (46)", "write first 76 bytes of each packet to disk, single CPU", rateTitle, sysCfgs(headerToDisk, single)),
		sweepExpt("fig6.14-smp", "Figure 6.14b (45)", "write first 76 bytes of each packet to disk, dual CPU", rateTitle, sysCfgs(headerToDisk, dual)),
		sweepExpt("fig6.15-nosmp", "Figure 6.15a (18)", "memory-mapped libpcap on Linux, single CPU", "mmap'd libpcap vs stock on Linux", mmapConfigs(single)),
		sweepExpt("fig6.15-smp", "Figure 6.15b (19)", "memory-mapped libpcap on Linux, dual CPU", "mmap'd libpcap vs stock on Linux", mmapConfigs(dual)),
		sweepExpt("fig6.16", "Figure 6.16 (42)", "Hyperthreading on the Intel systems", "Hyperthreading on vs off (Intel Xeon systems)", htConfigs),
		sweepExpt("figB.1", "Figure B.1", "FreeBSD 5.2.1 vs 5.4", "FreeBSD 5.4 vs 5.2.1", osVersionConfigs),
		expt("selfsim", "§2.5 (extension)", "self-similar vs paced arrivals: buffer absorption", runSelfSimilar),
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (see `experiment -list`)", id)
}

// --- configuration modifiers -------------------------------------------

type modifier func(cfg capture.Config) capture.Config

func single(cfg capture.Config) capture.Config { cfg.NumCPUs = 1; return cfg }
func dual(cfg capture.Config) capture.Config   { cfg.NumCPUs = 2; return cfg }

func defaultBuffers(cfg capture.Config) capture.Config { return cfg }

func bigBuffers(cfg capture.Config) capture.Config {
	if cfg.OS == capture.Linux {
		cfg.BufferBytes = capture.BigLinuxRcvbuf
	} else {
		cfg.BufferBytes = capture.BigBSDBuffer
	}
	return cfg
}

func withFilter(cfg capture.Config) capture.Config {
	cfg = bigBuffers(cfg)
	cfg.Filter = filter.MustCompile(filter.ReferenceFilterExpr, 1515)
	return cfg
}

func memcpy(n int) modifier {
	return func(cfg capture.Config) capture.Config {
		cfg = bigBuffers(cfg)
		cfg.Load.MemcpyCount = n
		return cfg
	}
}

func gzwrite(level int) modifier {
	return func(cfg capture.Config) capture.Config {
		cfg = bigBuffers(cfg)
		cfg.Load.ZlibLevel = level
		return cfg
	}
}

func pipeGzip(level int) modifier {
	return func(cfg capture.Config) capture.Config {
		cfg = bigBuffers(cfg)
		cfg.Load.PipeGzip = level
		return cfg
	}
}

func headerToDisk(cfg capture.Config) capture.Config {
	cfg = bigBuffers(cfg)
	cfg.Load.WriteSnapLen = 76
	return cfg
}

// --- generic sweeps ------------------------------------------------------

// sysCfgs returns the four thesis systems with the modifiers applied, as a
// config builder for sweepExpt.
func sysCfgs(mods ...modifier) func() []capture.Config {
	return func() []capture.Config { return systems(mods...) }
}

// seriesSweep runs the standard §3.4 data-rate sweep over the configs.
// experiment namespaces the campaign journal keys.
func seriesSweep(experiment string, cfgs func() []capture.Config) func(o Options) []core.Series {
	return func(o Options) []core.Series {
		o = o.withDefaults()
		g := core.RateGrid(o.applyPolicy(cfgs()), o.Rates, core.Workload{Packets: o.Packets, Seed: o.Seed}, o.Reps)
		series, _ := core.Sweep(o.ctx(), g, o.runOptions(experiment))
		return series
	}
}

// companions renders the tables -why and -chaos append to a sweep's
// table: the per-point drop causes and the chaos bookkeeping.
func companions(o Options, s []core.Series) string {
	var out string
	if o.Why {
		out += "\n" + core.FormatWhy(s)
	}
	if o.Chaos != 0 {
		out += "\n" + core.FormatChaos(s)
	}
	return out
}

// tableRun renders a sweep the way the thesis plots it, followed by its
// companion tables.
func tableRun(title string, series func(o Options) []core.Series) func(o Options) string {
	return func(o Options) string {
		o = o.withDefaults()
		s := series(o)
		return core.FormatTable(title, s) + companions(o, s)
	}
}

// sweepExpt builds a data-rate-sweep experiment with both the rendered
// table (Run) and the structured series (Series) forms.
func sweepExpt(id, paper, title, tableTitle string, cfgs func() []capture.Config) Experiment {
	series := seriesSweep(id, cfgs)
	return Experiment{ID: id, Paper: paper, Title: title,
		Run: tableRun(tableTitle, series), Series: series}
}

// cellGrid lays out a per-cell sweep — one cell per plotted point, x-major
// over the base systems — as a pipeline grid: cell builds the cell of one
// base at x, and key fingerprints x for the journal and the fault model.
func cellGrid(xs []float64, bases []capture.Config, key func(x float64) uint64, cell func(x float64, base capture.Config) core.Cell) core.Grid {
	g := core.Grid{X: xs, Reps: 1, Partial: true}
	for _, base := range bases {
		g.Systems = append(g.Systems, base.Name)
	}
	for _, x := range xs {
		for _, base := range bases {
			g.Cells = append(g.Cells, cell(x, base))
			g.IDs = append(g.IDs, core.CellID{Point: key(x)})
		}
	}
	return g
}

// rateKey is the point fingerprint of a per-cell sweep over data rates.
func rateKey(x float64) uint64 { return uint64(x * 1e3) }

// cellExpt builds a per-cell sweep experiment: grid lays out its cells,
// and the table is header followed by one row per cell, rendered from the
// cell's own statistics, then the companion tables of its series.
func cellExpt(id, paper, title string, grid func(o Options) core.Grid, header string,
	row func(out *strings.Builder, x float64, system string, st *capture.Stats)) Experiment {
	series := func(o Options) []core.Series {
		o = o.withDefaults()
		s, _ := core.Sweep(o.ctx(), grid(o), o.runOptions(id))
		return s
	}
	run := func(o Options) string {
		o = o.withDefaults()
		g := grid(o)
		s, outs := core.Sweep(o.ctx(), g, o.runOptions(id))
		var out strings.Builder
		out.WriteString(header)
		for i := range outs {
			row(&out, g.X[i/len(g.Systems)], g.Cells[i].Cfg.Name, &outs[i].Stats)
		}
		return out.String() + companions(o, s)
	}
	return Experiment{ID: id, Paper: paper, Title: title, Run: run, Series: series}
}

func systems(mods ...modifier) []capture.Config {
	cfgs := core.Sniffers()
	for i := range cfgs {
		for _, m := range mods {
			cfgs[i] = m(cfgs[i])
		}
	}
	return cfgs
}

// bufferSweepExpt reproduces Figure 6.4: highest rate, buffer size on the
// x axis ("the buffer size was reduced by a factor of two for FreeBSD" so
// the effective capacity matches single-buffered Linux).
func bufferSweepExpt(id, paper, title string, cpuMod modifier) Experiment {
	grid := func(o Options) core.Grid {
		var kbs []float64
		for kb := 128; kb <= 262144; kb *= 2 {
			kbs = append(kbs, float64(kb))
		}
		w := core.Workload{Packets: o.Packets, Seed: o.Seed, TargetRate: 980e6}
		return cellGrid(kbs, o.applyPolicy(systems(cpuMod)),
			func(kb float64) uint64 { return uint64(kb) },
			func(kb float64, cfg capture.Config) core.Cell {
				cfg.BufferBytes = int(kb) << 10
				if cfg.OS != capture.Linux {
					cfg.BufferBytes /= 2
				}
				return core.Cell{Cfg: cfg, W: w}
			})
	}
	header := "# capturing rate and CPU usage vs buffer size [kByte] at top rate\n# kB\tsystem\trate%\tcpu%\n"
	row := func(out *strings.Builder, kb float64, system string, st *capture.Stats) {
		fmt.Fprintf(out, "%d\t%s\t%6.2f\t%6.2f\n", int(kb), system, st.CaptureRate(), st.CPUUsage())
	}
	return cellExpt(id, paper, title, grid, header, row)
}

// multiAppExpt reproduces Figures 6.7–6.9: n applications, SMP, with the
// worst/average/best per-application lines.
func multiAppExpt(id, paper, title string, n int) Experiment {
	grid := func(o Options) core.Grid {
		return cellGrid(o.Rates, o.applyPolicy(systems(bigBuffers, dual)), rateKey,
			func(r float64, cfg capture.Config) core.Cell {
				cfg.NumApps = n
				return core.Cell{Cfg: cfg, W: core.Workload{Packets: o.Packets, Seed: o.Seed, TargetRate: r * 1e6}}
			})
	}
	header := fmt.Sprintf("# %d capturing applications: per-app worst/avg/best rate and CPU vs data rate\n", n) +
		"# rate\tsystem\tworst%\tavg%\tbest%\tcpu%\n"
	row := func(out *strings.Builder, r float64, system string, st *capture.Stats) {
		wo, av, be := st.AppRates()
		fmt.Fprintf(out, "%.0f\t%s\t%6.2f\t%6.2f\t%6.2f\t%6.2f\n", r, system, wo, av, be, st.CPUUsage())
	}
	return cellExpt(id, paper, title, grid, header, row)
}

// mmapConfigs builds Figure 6.15's systems: the two Linux machines with
// and without the memory-mapped libpcap.
func mmapConfigs(cpuMod modifier) func() []capture.Config {
	return func() []capture.Config {
		var cfgs []capture.Config
		for _, mk := range []func() capture.Config{core.Swan, core.Snipe} {
			stock := bigBuffers(cpuMod(mk()))
			patched := stock
			patched.Name += "-mmap"
			patched.MmapPatch = true
			cfgs = append(cfgs, stock, patched)
		}
		return cfgs
	}
}

// htConfigs builds Figure 6.16's systems: the Intel machines, SMP, HT on
// and off.
func htConfigs() []capture.Config {
	var cfgs []capture.Config
	for _, mk := range []func() capture.Config{core.Snipe, core.Flamingo} {
		off := bigBuffers(dual(mk()))
		on := off
		on.Name += "-HT"
		on.Hyperthreading = true
		cfgs = append(cfgs, off, on)
	}
	return cfgs
}

// osVersionConfigs builds Figure B.1's systems: FreeBSD 5.2.1 vs 5.4. The
// 5.2.1 kernel (fully Giant-locked network path) pays a per-packet cost
// factor.
func osVersionConfigs() []capture.Config {
	const giantFactor = 1.35
	var cfgs []capture.Config
	for _, mk := range []func() capture.Config{core.Moorhen, core.Flamingo} {
		v54 := bigBuffers(dual(mk()))
		v521 := v54
		v521.Name += "-5.2.1"
		if v521.KernelCostFactor == 0 {
			v521.KernelCostFactor = 1
		}
		v521.KernelCostFactor *= giantFactor
		cfgs = append(cfgs, v54, v521)
	}
	return cfgs
}

// --- chapter 4 experiments ----------------------------------------------

func runFig41(o Options) string {
	o = o.withDefaults()
	c := trace.MWNCounts(10_000_000)
	var out strings.Builder
	fmt.Fprintln(&out, "# packet size distribution (24h-trace shape): size, count, fraction")
	fmt.Fprintf(&out, "# total %d packets, mean %.1f bytes\n", c.Total(), c.Mean())
	for _, s := range c.Sizes() {
		n := c.Get(s)
		if n == 0 {
			continue
		}
		fmt.Fprintf(&out, "%d\t%d\t%.6f\n", s, n, c.Fraction(s))
	}
	return out.String()
}

func runFig42(o Options) string {
	c := trace.MWNCounts(10_000_000)
	top, rest := c.TopShares(20)
	var out strings.Builder
	fmt.Fprintln(&out, "# top-20 packet sizes: size, fraction%, cumulative%")
	for _, e := range top {
		fmt.Fprintf(&out, "%d\t%6.2f\t%6.2f\n", e.Size, e.Fraction*100, e.Cumulative*100)
	}
	fmt.Fprintf(&out, "rest\t%6.2f\t100.00\n", rest*100)
	return out.String()
}

func runFig43(o Options) string {
	o = o.withDefaults()
	input := trace.MWNCounts(1_000_000)
	d, err := dist.Build(input, dist.DefaultParams())
	if err != nil {
		return "error: " + err.Error()
	}
	g := pktgen.New(o.Seed)
	g.LoadDistribution(d)
	g.Config.Count = o.Packets * 4
	var got dist.Counts
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		got.Add(len(p.Data)-14, 1) // back to IP length
	}
	var out strings.Builder
	fmt.Fprintln(&out, "# generator fidelity: size, input fraction%, generated fraction%")
	var worst float64
	var sizes []int
	for _, e := range d.Outliers {
		sizes = append(sizes, e.Size)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		in := input.Fraction(s) * 100
		gen := got.Fraction(s) * 100
		if dev := abs(in - gen); dev > worst {
			worst = dev
		}
		fmt.Fprintf(&out, "%d\t%7.3f\t%7.3f\n", s, in, gen)
	}
	fmt.Fprintf(&out, "# mean: input %.1f, generated %.1f; worst outlier deviation %.3f%%\n",
		input.Mean(), got.Mean(), worst)
	cmp := dist.Compare(input, &got)
	fmt.Fprintf(&out, "# distance: total variation %.4f, chi-square %.1f, max |Δp| %.4f @ %d B, |Δmean| %.2f B\n",
		cmp.TotalVariation, cmp.ChiSquare, cmp.MaxAbsDiff, cmp.MaxAbsDiffSize, cmp.MeanDiff)
	return out.String()
}

func runGenRate(o Options) string {
	o = o.withDefaults()
	var out strings.Builder
	fmt.Fprintln(&out, "# maximum generation rate by frame size: size, Mbit/s (wire), kpps")
	for _, size := range []int{64, 128, 256, 512, 760, 1024, 1280, 1500} {
		g := pktgen.New(o.Seed)
		g.Config.Count = o.Packets
		g.Config.PktSize = size
		for {
			if _, ok := g.Next(); !ok {
				break
			}
		}
		secs := g.LastTime.Seconds()
		fmt.Fprintf(&out, "%d\t%7.1f\t%7.1f\n", size,
			g.AchievedRate()/1e6, float64(g.Sent)/secs/1e3)
	}
	return out.String()
}

// --- other experiments ---------------------------------------------------

func runBonnie(o Options) string {
	var out strings.Builder
	fmt.Fprintln(&out, "# bonnie++: system, write MB/s, CPU%, line-speed demand 119 MB/s, header demand 13.6 MB/s")
	for _, cfg := range core.Sniffers() {
		r := capture.Bonnie(cfg)
		fmt.Fprintf(&out, "%s\t%6.1f\t%5.1f\n", r.System, r.WriteMBps, r.CPUPct)
	}
	return out.String()
}

// runSelfSimilar is the extension experiment motivated by §2.5: with the
// same average rate, self-similar (bursty) arrivals overflow a buffer that
// paced arrivals never touch.
func runSelfSimilar(o Options) string {
	o = o.withDefaults()
	var out strings.Builder
	fmt.Fprintln(&out, "# paced vs self-similar arrivals at equal average rate (swan, default buffers, 1 CPU)")
	fmt.Fprintln(&out, "# rate\tpaced-rate%\tbursty-rate%")
	for _, r := range []float64{200, 400, 600} {
		paced := runArrival(o, r, false)
		bursty := runArrival(o, r, true)
		fmt.Fprintf(&out, "%.0f\t%6.2f\t%6.2f\n", r, paced, bursty)
	}
	return out.String()
}

func runArrival(o Options, rateMbit float64, bursty bool) float64 {
	cfg := core.Prepare(single(core.Swan()), core.Workload{Packets: o.Packets})
	sys := capture.NewSystem(cfg)
	g := pktgen.New(o.Seed)
	g.LoadDistribution(mwnDist())
	g.Config.Count = o.Packets
	g.Config.TargetRate = rateMbit * 1e6
	if !bursty {
		return sys.Run(g).CaptureRate()
	}
	// Bursty: reshape the paced train with self-similar gaps of the same
	// mean.
	meanGap := 645.0 * 8 / (rateMbit * 1e6) * 1e9
	gaps := trace.SelfSimilarArrivals(o.Packets, meanGap, 16, 1.5, o.Seed)
	st := sys.RunWithArrivals(g, gaps)
	return st.CaptureRate()
}

var (
	mwnOnce   sync.Once
	mwnCached *dist.Distribution
)

func mwnDist() *dist.Distribution {
	mwnOnce.Do(func() {
		d, err := dist.Build(trace.MWNCounts(1_000_000), dist.DefaultParams())
		if err != nil {
			panic(err)
		}
		mwnCached = d
	})
	return mwnCached
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Spread reports the fairness criterion of §6.3.3 for a finished multi-app
// run: the thesis's "deviation of about five percent under FreeBSD".
// A run that generated nothing yields all-zero rates, not NaN from 0/0.
func Spread(st capture.Stats) stats.Summary {
	rates := make([]float64, len(st.AppCaptured))
	for i, c := range st.AppCaptured {
		rates[i] = stats.Percent(float64(c), float64(st.Generated))
	}
	return stats.Summarize(rates)
}
