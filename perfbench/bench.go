package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bpf"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/experiments"
)

// workload is one named input set. Every workload is a closed-loop batch
// job in one process with at most parallelism goroutines running cells at
// once. The seed reaches the simulator only as experiments.Options.Seed;
// nothing the program receives names the workload.
type workload struct {
	name     string
	why      string   // one line; BENCHMARK.json carries the same text
	ids      []string // experiments, run in this order
	packets  int      // simulated packets per cell
	reps     int      // repetitions of each rate-sweep point
	campaign bool     // journaled, dispatched and monitored
}

const parallelism = 2

var workloads = []workload{
	{
		name: "thesis-sweep",
		why:  "2005 Linux/BSD stacks, the BPF VM and per-app copies do the work; journal, monitor and dispatch are idle",
		ids:  []string{"fig6.2-smp", "fig6.6-smp", "fig6.8"}, packets: 10000, reps: 1,
	},
	{
		name: "modern-sweep",
		why:  "RSS, poll-mode and zero-copy stacks and packet-less idle polls dominate; bypasses the 2005 stacks and BPF",
		ids:  []string{"ext-modern"}, packets: 10000, reps: 1,
	},
	{
		name: "campaign",
		why:  "per-cell fixed costs dominate: lease round trip, journal append+fsync, event fan-out; the journal is written then replayed",
		ids:  []string{"fig6.2-smp", "fig6.4-smp", "fig6.7"}, packets: 2000, reps: 12, campaign: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the engine options of the workload at one seed.
func (w workload) options(seed uint64) experiments.Options {
	return experiments.Options{Packets: w.packets, Reps: w.reps, Seed: seed, Parallelism: parallelism}
}

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	packets   int // 0 = the workload's size; tests set other sizes
	reps      int // 0 = the workload's repetitions
	minPasses int
	golden    string // results file of `experiment -all` at its defaults (tests only)
	tmp       string // directory for campaign journals
	traceOut  string // span file of the traced run
}

const maxPasses = 64

func (c config) options(w workload) experiments.Options {
	o := w.options(c.seed)
	if c.packets > 0 {
		o.Packets = c.packets
	}
	if c.reps > 0 {
		o.Reps = c.reps
	}
	return o
}

// goldenApplies reports whether the run uses the options results_full.txt
// was rendered at (seed 1, 40000 packets, one repetition), so its tables
// must match that file byte for byte.
func goldenApplies(o experiments.Options) bool {
	return o.Seed == 1 && o.Packets == 40000 && o.Reps == 1
}

// pass is one untraced execution of the workload.
type pass struct {
	setup   time.Duration
	use     usage
	texts   map[string]string
	lags    []float64 // campaign: event lag samples, ms
	resume  time.Duration
	scraped int
}

// result is everything one run measured.
type result struct {
	w        workload
	o        experiments.Options
	chk      *checker
	cells    int
	pkts     uint64 // simulated packets offered per pass
	passes   []pass
	maxRSS   float64
	traced   *tracedRun
	e2e      map[string]float64
	layers   map[string]float64
	measured time.Duration
}

// space is a workload's enumerated cells.
type space struct {
	sets  []*experiments.CellSet
	cells int
}

// enumerate resolves the workload's experiments and their cells without
// running any: the sweep part of set-up.
func enumerate(ids []string, o experiments.Options) (space, error) {
	var s space
	for _, id := range ids {
		set, err := experiments.EnumerateCells(id, o)
		if err != nil {
			return s, err
		}
		s.sets = append(s.sets, set)
		s.cells += set.Len()
	}
	return s, nil
}

// runExperiments runs the experiments in order and returns their rendered
// tables. A traced run gets one experiment.run span per experiment, the
// parent of the layer spans recorded while it runs.
func runExperiments(ids []string, o experiments.Options, tr *tracer) (texts map[string]string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment panicked: %v", r)
		}
	}()
	texts = map[string]string{}
	for _, id := range ids {
		e, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			texts[id] = e.Run(o)
			continue
		}
		s := tr.start("experiment.run", id, 0)
		tr.root.Store(s.ID)
		texts[id] = e.Run(o)
		tr.root.Store(0)
		tr.finish(&s)
	}
	return texts, nil
}

// run executes one benchmark run: untraced passes for the measuring
// time, then one traced pass that feeds the correctness gate (and, with
// tracing on, the per-layer report).
func run(cfg config) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.minPasses < 1 {
		cfg.minPasses = 1
	}
	res := &result{w: w, o: cfg.options(w), chk: &checker{}}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(res.passes) < cfg.minPasses || (time.Now().Before(deadline) && len(res.passes) < maxPasses) {
		// Every pass starts from a collected heap, as a fresh process
		// would, rather than paying for the previous pass's garbage.
		runtime.GC()
		var p pass
		var err error
		if w.campaign {
			p, err = campaignPass(res, cfg.tmp)
		} else {
			p, err = sweepPass(res)
		}
		if err != nil {
			return nil, err
		}
		res.passes = append(res.passes, p)
	}
	res.measured = time.Since(start)
	res.maxRSS = maxRSSMiB()

	tr, err := tracedPass(res, cfg)
	if err != nil {
		return nil, err
	}
	res.traced = tr
	if err := res.gate(cfg); err != nil {
		return nil, err
	}
	res.e2e = res.endToEnd()
	if cfg.trace {
		if err := tr.attribute(res); err != nil {
			return nil, err
		}
		res.layers = res.perLayer()
		if cfg.traceOut != "" {
			if err := tr.tr.write(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return res, nil
}

// setupReps is how often a pass sets up; its set-up time is the median,
// since one set-up is too short to time steadily.
const setupReps = 5

func sweepPass(res *result) (pass, error) {
	var setups []float64
	var sp space
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if sp, err = enumerate(res.w.ids, res.o); err != nil {
			return pass{}, err
		}
		setups = append(setups, float64(time.Since(t0)))
	}
	p := pass{setup: time.Duration(median(setups))}
	res.cells = sp.cells
	s := takeSnap()
	var err error
	p.texts, err = runExperiments(res.w.ids, res.o, nil)
	p.use = since(s)
	return p, err
}

// campaignPass sets a campaign up setupReps times, closing all but the
// last rig unused, and runs the campaign on the last.
func campaignPass(res *result, tmp string) (pass, error) {
	var setups []float64
	var sp space
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if sp, err = enumerate(res.w.ids, res.o); err != nil {
			return pass{}, err
		}
		if r, err = newRig(tmp, res.o, nil); err != nil {
			return pass{}, fmt.Errorf("campaign set-up: %w", err)
		}
		setups = append(setups, float64(time.Since(t0)))
	}
	defer r.close()
	p := pass{setup: time.Duration(median(setups))}
	res.cells = sp.cells
	s := takeSnap()
	var err error
	p.texts, err = r.run(res.w.ids, nil)
	p.use = since(s)
	if err != nil {
		return p, err
	}
	if p.scraped, err = r.finish(); err != nil {
		return p, err
	}
	p.lags = r.lags
	resumed, d, err := r.resume(res.w.ids, res.o, nil)
	if err != nil {
		return p, fmt.Errorf("resume: %w", err)
	}
	p.resume = d
	res.checkCampaign(r, p, resumed)
	return p, nil
}

// checkCampaign is the campaign part of the gate, run after every pass:
// the books of every cell balance, every cell was published, the SSE
// client read every cell event, the final /metrics scrape counts every
// cell, and the resumed campaign renders byte-identically to the fresh
// distributed run.
func (res *result) checkCampaign(r *rig, p pass, resumed map[string]string) {
	for k, st := range r.front.stats {
		res.chk.conservation(keyTrace(k), st)
	}
	res.chk.check(len(r.front.stats) == res.cells, "campaign: %d cell events for %d cells", len(r.front.stats), res.cells)
	res.chk.check(p.scraped == res.cells, "campaign: /metrics repro_cells_completed_total %d, want %d", p.scraped, res.cells)
	res.chk.check(r.unmatched == 0, "campaign: %d SSE cell events without a published counterpart", r.unmatched)
	// A subscriber that falls behind loses its oldest events, which would
	// thin the event-lag sample without a word.
	var dropped uint64
	for _, n := range r.hub.Drops() {
		dropped += n
	}
	res.chk.check(len(r.lags) == r.front.cells && dropped == 0,
		"campaign: SSE client read %d of %d cell events, subscribers dropped %d events", len(r.lags), r.front.cells, dropped)
	for _, id := range res.w.ids {
		res.chk.sameText("campaign resume "+id, p.texts[id], resumed[id])
	}
}

// tracedRun is the traced pass and, with tracing on, what the per-layer
// attribution learned.
type tracedRun struct {
	tr     *tracer
	wall   time.Duration
	texts  map[string]string
	stats  map[core.CellKey]capture.Stats
	hits   uint64
	misses uint64

	// campaign only
	dispatch    dispatchCounts
	events      uint64
	dropped     uint64
	journalSize int64
	retries     atomic.Int64 // journal append repairs, counted by the journal's callback

	attr *attribution
}

type dispatchCounts struct {
	granted, expired, local, completed, empty uint64
}

func tracedPass(res *result, cfg config) (*tracedRun, error) {
	t := &tracedRun{tr: newTracer(), stats: map[core.CellKey]capture.Stats{}}
	o := res.o
	if !res.w.campaign {
		x := &tracedExecutor{tr: t.tr, workers: parallelism}
		o.Executor = x
		t0 := time.Now()
		texts, err := runExperiments(res.w.ids, o, t.tr)
		t.wall = time.Since(t0)
		if err != nil {
			return nil, err
		}
		t.texts = texts
		for _, r := range x.runs {
			t.stats[r.key] = r.stats
		}
		t.hits, t.misses = x.hits, x.misses
		return t, nil
	}
	r, err := newRig(cfg.tmp, o, t.tr)
	if err != nil {
		return nil, fmt.Errorf("campaign set-up: %w", err)
	}
	defer r.close()
	r.camp.OnAppendRetry(func(error, int) { t.retries.Add(1) })
	t0 := time.Now()
	texts, err := r.run(res.w.ids, t.tr)
	t.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t.texts = texts
	scraped, err := r.finish()
	if err != nil {
		return nil, err
	}
	st := r.coord.Stats()
	t.dispatch = dispatchCounts{granted: st.Granted, expired: st.Expired, local: st.LocalCells,
		completed: st.Completed, empty: r.rt.emptyLeases.Load()}
	t.events = r.hub.Published()
	for _, n := range r.hub.Drops() {
		t.dropped += n
	}
	if fi, err := os.Stat(filepath.Join(r.dir, experiments.JournalFile)); err == nil {
		t.journalSize = fi.Size()
	}
	resumed, _, err := r.resume(res.w.ids, o, t.tr)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	for k, st := range r.front.stats {
		t.stats[k] = *st
	}
	res.checkCampaign(r, pass{texts: texts, scraped: scraped}, resumed)
	return t, nil
}

// gate runs the checks that compare passes: each cell's books balance,
// the traced pass saw every enumerated cell, every untraced render equals
// the traced render of the same seed, the renders at seed 1 equal the
// stored references, and at results_full.txt's options the renders equal
// that file.
func (res *result) gate(cfg config) error {
	t := res.traced
	if !res.w.campaign {
		for k, st := range t.stats {
			res.chk.conservation(keyTrace(k), &st)
		}
		res.chk.check(len(t.stats) == res.cells, "traced pass ran %d cells, enumeration has %d", len(t.stats), res.cells)
	}
	res.pkts = 0
	for _, st := range t.stats {
		res.pkts += st.Generated
	}
	res.chk.check(res.pkts > 0, "no simulated packets offered")
	for i, p := range res.passes {
		for _, id := range res.w.ids {
			res.chk.sameText(fmt.Sprintf("pass %d %s vs traced", i+1, id), t.texts[id], p.texts[id])
		}
	}
	if goldenApplies(res.o) && !res.w.campaign {
		for _, id := range res.w.ids {
			want, err := goldenSection(cfg.golden, id)
			if !res.chk.check(err == nil, "golden: %v", err) {
				continue
			}
			res.chk.sameText("golden "+id, want, t.texts[id]+"\n")
		}
	}
	if res.o.Packets != res.w.packets || res.o.Reps != res.w.reps {
		return nil // a test's size: no stored reference
	}
	texts := t.texts
	if res.o.Seed != 1 {
		// One extra untimed pass renders the reference seed.
		var err error
		if texts, err = runExperiments(res.w.ids, res.w.options(1), nil); err != nil {
			return err
		}
	}
	res.checkReference(texts)
	return nil
}

// checkReference compares the workload's renders at seed 1 and its own
// size with the stored references (see reference).
func (res *result) checkReference(texts map[string]string) {
	for _, id := range res.w.ids {
		want, err := reference(res.w.name, id)
		if err != nil {
			res.chk.check(false, "reference: %v", err)
			continue
		}
		res.chk.sameText("reference "+res.w.name+" "+id, want, texts[id])
	}
}

// endToEnd computes the end-to-end metrics: medians over the untraced
// passes.
func (res *result) endToEnd() map[string]float64 {
	var pps, cps, cpu, allocs, bytes, setup, lag50, lag99, resume []float64
	for _, p := range res.passes {
		wall := p.use.wall.Seconds()
		pps = append(pps, ratio(float64(res.pkts), wall))
		cps = append(cps, ratio(float64(res.cells), wall))
		cpu = append(cpu, p.use.cpu.Seconds())
		allocs = append(allocs, ratio(float64(p.use.allocs), float64(res.pkts)))
		bytes = append(bytes, ratio(float64(p.use.bytes), float64(res.pkts)))
		setup = append(setup, p.setup.Seconds())
		if res.w.campaign {
			lag50 = append(lag50, percentile(p.lags, 0.5))
			lag99 = append(lag99, percentile(p.lags, 0.99))
			resume = append(resume, p.resume.Seconds())
		}
	}
	return map[string]float64{
		"sim_pkts_per_s":      median(pps),
		"cells_per_s":         median(cps),
		"cpu_s":               median(cpu),
		"allocs_per_pkt":      median(allocs),
		"alloc_bytes_per_pkt": median(bytes),
		"max_rss_mb":          res.maxRSS,
		"setup_s":             median(setup),
		"fail_frac":           res.chk.failFrac(),
		"event_lag_ms_p50":    median(lag50),
		"event_lag_ms_p99":    median(lag99),
		"resume_s":            median(resume),
	}
}

// attribution is the serial re-run of the workload's cells, one at a
// time through the engine, so that heap allocations (a process-wide
// counter) can be charged to the layer that made them. It also times the
// BPF filter over the recorded trains.
type attribution struct {
	pkNS, pkAllocs, pkPkts float64
	path                   map[string]*pathCost
	bpfNS, bpfInstr        float64
	bpfAccepted, bpfRuns   float64
	aggMS, renderMS        float64

	recorded map[*core.Feed]bool    // trains charged to pktgen
	filtered map[core.Workload]bool // trains the filter has run over
}

type pathCost struct {
	ns, steps, allocs, bytes, pkts float64
}

func (t *tracedRun) attribute(res *result) error {
	a := &attribution{path: map[string]*pathCost{}, recorded: map[*core.Feed]bool{}, filtered: map[core.Workload]bool{}}
	t.attr = a
	x := &tracedExecutor{tr: newTracer(), workers: 1, cost: a}
	o := res.o
	o.Executor = x
	texts, err := runExperiments(res.w.ids, o, nil)
	if err != nil {
		return err
	}
	for _, r := range x.runs {
		want, ok := t.stats[r.key]
		res.chk.check(ok && reflect.DeepEqual(want, r.stats), "serial re-run of %s differs from the traced pass", keyTrace(r.key))
	}
	for _, id := range res.w.ids {
		res.chk.sameText("serial re-run "+id+" vs traced", t.texts[id], texts[id])
	}
	return a.timeAggregation(res, t)
}

// feed charges one FeedCache.Get. The first Get that returns a train
// recorded it, so its cost is pktgen's; the first Get of a filtered
// workload also times the filter over the train.
func (a *attribution) feed(c core.Cell, f *core.Feed, u usage) {
	if !a.recorded[f] {
		a.recorded[f] = true
		a.pkNS += float64(u.wall.Nanoseconds())
		a.pkAllocs += float64(u.allocs)
		a.pkPkts += float64(len(f.Packets))
	}
	if c.Cfg.Filter != nil && !a.filtered[c.W] {
		a.filtered[c.W] = true
		a.runFilter(c.Cfg.Filter.Run, f)
	}
}

// run charges one cell's simulation to its receive path.
func (a *attribution) run(cfg capture.Config, steps uint64, st *capture.Stats, u usage) {
	pc := a.path[pathOf(cfg)]
	if pc == nil {
		pc = &pathCost{}
		a.path[pathOf(cfg)] = pc
	}
	pc.ns += float64(u.wall.Nanoseconds())
	pc.steps += float64(steps)
	pc.allocs += float64(u.allocs)
	pc.bytes += float64(u.bytes)
	pc.pkts += float64(st.Generated)
}

func (a *attribution) runFilter(run func([]byte) (bpf.Result, error), feed *core.Feed) {
	t0 := time.Now()
	for _, p := range feed.Packets {
		r, err := run(p.Data)
		a.bpfRuns++
		a.bpfInstr += float64(r.Instructions)
		if err == nil && r.Accept > 0 {
			a.bpfAccepted++
		}
	}
	a.bpfNS += float64(time.Since(t0).Nanoseconds())
}

// timeAggregation times the engine's own enumeration+aggregation
// (Experiment.Series) and rendering (Experiment.Run minus Series) with
// every cell completed at once from the traced pass's statistics, and
// checks the replayed render against the traced one.
func (a *attribution) timeAggregation(res *result, t *tracedRun) error {
	const reps = 5
	o := res.o
	o.Executor = replayExecutor(t.stats)
	for _, id := range res.w.ids {
		e, err := experiments.Find(id)
		if err != nil {
			return err
		}
		var agg, all []float64
		var text string
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			e.Series(o)
			t1 := time.Now()
			text = e.Run(o)
			agg = append(agg, float64(t1.Sub(t0))/1e6)
			all = append(all, float64(time.Since(t1))/1e6)
		}
		a.aggMS += median(agg)
		a.renderMS += median(all) - median(agg)
		res.chk.sameText("replayed "+id+" vs traced", t.texts[id], text)
	}
	return nil
}

// perLayer computes the per-layer metrics of a traced run. A layer the
// workload does not use reports 0.
func (res *result) perLayer() map[string]float64 {
	t := res.traced
	a := t.attr
	m := map[string]float64{}
	for _, spec := range perLayer {
		m[spec.name] = 0
	}
	var feedNS float64
	for _, d := range t.tr.durations("pktgen.feed", time.Nanosecond) {
		feedNS += d
	}
	m["pktgen.feed_ms"] = feedNS / 1e6
	m["pktgen.ns_per_pkt"] = ratio(a.pkNS, a.pkPkts)
	m["pktgen.allocs_per_pkt"] = ratio(a.pkAllocs, a.pkPkts)
	m["pktgen.trains"] = float64(t.misses)
	m["core.feed_hit_frac"] = ratio(float64(t.hits), float64(t.hits+t.misses))
	m["core.aggregate_ms"] = a.aggMS
	m["core.render_ms"] = a.renderMS
	var steps, pkts float64
	for name, pc := range a.path {
		steps += pc.steps
		pkts += pc.pkts
		m["capture."+name+".ns_per_pkt"] = ratio(pc.ns, pc.pkts)
		m["capture."+name+".ns_per_event"] = ratio(pc.ns, pc.steps)
		m["capture."+name+".events_per_pkt"] = ratio(pc.steps, pc.pkts)
		m["capture."+name+".allocs_per_pkt"] = ratio(pc.allocs, pc.pkts)
		m["capture."+name+".bytes_per_pkt"] = ratio(pc.bytes, pc.pkts)
	}
	m["sim.events"] = steps
	m["sim.events_per_pkt"] = ratio(steps, pkts)
	m["bpf.ns_per_run"] = ratio(a.bpfNS, a.bpfRuns)
	m["bpf.instr_per_run"] = ratio(a.bpfInstr, a.bpfRuns)
	m["bpf.accept_frac"] = ratio(a.bpfAccepted, a.bpfRuns)

	var gcs, gcFrac, pause []float64
	for _, p := range res.passes {
		gcs = append(gcs, float64(p.use.gcs))
		gcFrac = append(gcFrac, p.use.gcFrac)
		pause = append(pause, p.use.pauseMS)
	}
	m["runtime.gc_cycles"] = median(gcs)
	m["runtime.gc_cpu_frac"] = median(gcFrac)
	m["runtime.gc_pause_ms"] = median(pause)
	var walls []float64
	for _, p := range res.passes {
		walls = append(walls, float64(p.use.wall)/1e6)
	}
	m["trace.overhead_ms"] = float64(t.wall)/1e6 - median(walls)

	if !res.w.campaign {
		return m
	}
	appends := t.tr.durations("journal.record", time.Millisecond)
	m["journal.append_ms_p50"] = percentile(appends, 0.5)
	m["journal.append_ms_p99"] = percentile(appends, 0.99)
	m["journal.appends"] = float64(len(appends))
	m["journal.bytes_per_cell"] = ratio(float64(t.journalSize), float64(res.cells))
	m["journal.retries"] = float64(t.retries.Load())
	replay := t.tr.durations("journal.replay", time.Millisecond)
	if len(replay) > 0 {
		m["journal.replay_ms"] = replay[0]
	}
	m["journal.lookup_us_p50"] = percentile(t.tr.durations("journal.lookup", time.Microsecond), 0.5)
	pub := t.tr.durations("monitor.publish", time.Microsecond)
	m["monitor.publish_us_p50"] = percentile(pub, 0.5)
	m["monitor.publish_us_p99"] = percentile(pub, 0.99)
	m["monitor.events"] = float64(t.events)
	m["monitor.dropped"] = float64(t.dropped)
	lease := t.tr.durations("dispatch.lease", time.Millisecond)
	complete := t.tr.durations("dispatch.complete", time.Millisecond)
	m["dispatch.lease_ms_p50"] = percentile(lease, 0.5)
	m["dispatch.lease_ms_p99"] = percentile(lease, 0.99)
	m["dispatch.complete_ms_p50"] = percentile(complete, 0.5)
	m["dispatch.complete_ms_p99"] = percentile(complete, 0.99)
	m["dispatch.leases"] = float64(t.dispatch.granted)
	m["dispatch.empty_leases"] = float64(t.dispatch.empty)
	m["dispatch.cells_per_lease"] = ratio(float64(t.dispatch.completed), float64(t.dispatch.granted))
	m["dispatch.expired"] = float64(t.dispatch.expired)
	m["dispatch.local_cells"] = float64(t.dispatch.local)
	m["event_lag_ms_p50"] = res.e2e["event_lag_ms_p50"]
	m["event_lag_ms_p99"] = res.e2e["event_lag_ms_p99"]
	m["resume_s"] = res.e2e["resume_s"]
	return m
}
