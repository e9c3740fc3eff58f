// The cell pipeline. The testbed is embarrassingly parallel by
// construction: the splitter feeds the same train to all sniffers at once,
// and every (system, rate, repetition) point is an independent run with its
// own simulator. Run takes such cells through one pipeline:
//
//  1. replay: cells whose final outcome — accepted or quarantined — is in
//     the campaign journal are served from there without running;
//  2. execute: the rest run on the local worker pool, each train recorded
//     once and replayed (feed.go), or through a CellExecutor;
//  3. validate: under a fault plan every attempt is checked against the
//     switch's ground truth and retried with simulated backoff; a cell
//     that exhausts the budget is quarantined;
//  4. journal: a final outcome is recorded durably before it is used;
//  5. observe: EventCell/EventQuarantine publish it, and a sweep (sweep.go)
//     folds it into the deterministic point stream.
//
// Cancellation drains instead of abandoning: in-flight cells finish,
// nothing new starts, and unresolved cells carry the context's error and
// are never quarantined — so an interrupted campaign resumes exactly where
// it left off, and fault draws keyed by (plan seed, point, system, rep,
// attempt) reproduce the uninterrupted run bit for bit.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/capture"
	"repro/internal/faults"
)

// Cell is one independent measurement: one system fed one workload.
type Cell struct {
	Cfg capture.Config
	W   Workload
	// Wrap, when non-nil, wraps the replayed feed before the run — the
	// hook tests use to gate or break a cell's source. The recorded feed
	// itself stays shared and pristine.
	Wrap func(capture.Source) capture.Source
}

// CellID names a cell for the fault model and the campaign journal: the
// measurement point it belongs to (a stable fingerprint, e.g. the x
// value's bits) and the repetition index.
type CellID struct {
	Point uint64
	Rep   int
}

// CellKey identifies one measurement cell durably, across process
// restarts: the experiment it belongs to, the point fingerprint and
// repetition (CellID), and the system under test. It is the journal key
// of the campaign write-ahead log.
type CellKey struct {
	Experiment string `json:"experiment"`
	Point      uint64 `json:"point"`
	System     string `json:"system"`
	Rep        int    `json:"rep"`
}

// CellOutcome is the final result of one measurement cell. It is what the
// campaign journal stores per cell, so every field must — and does —
// round-trip exactly through JSON. Without a fault plan an outcome is
// always {Stats, OK: true, Attempts: 1}.
type CellOutcome struct {
	Stats capture.Stats
	// OK: a validated Stats was produced (possibly degraded). When false
	// the cell is quarantined and Stats holds the last failed attempt's
	// partial data (zero if the sniffer never returned statistics).
	OK bool
	// Degraded: the accepted run was offered fewer frames than the switch
	// counted (degraded splitter leg); the shortfall is booked in the
	// ledger under fault-splitter and Generated is normalized, so the
	// stats balance but the capturing rate reflects the impairment.
	Degraded bool
	// Quarantined: no attempt within the retry budget produced a valid
	// run.
	Quarantined bool
	// Attempts is the number of cycle attempts spent (1 = clean first
	// try).
	Attempts int
	// BackoffNS is the simulated control-host time spent backing off
	// between attempts.
	BackoffNS float64
	// Log is the cell's fault-and-retry history, oldest first.
	Log []string
}

// CellJournal is the durable campaign log the pipeline records final
// outcomes into (and replays them from). Implementations must be safe for
// concurrent Record calls: workers append as cells finish. The contract
// is write-ahead: Record must make the outcome durable before returning,
// and Lookup must only return outcomes Record accepted. Duplicate keys
// are last-write-wins.
type CellJournal interface {
	// Lookup returns the recorded final outcome of a completed cell.
	Lookup(k CellKey) (CellOutcome, bool)
	// Record durably appends the final outcome of a completed cell.
	Record(k CellKey, out CellOutcome) error
}

// CellExecutor runs measurement cells somewhere other than the local
// worker pool — the dispatch coordinator implements it by leasing cells
// to remote workers. The contract mirrors the local pool exactly:
// ExecuteCells must call done at most once per cell index (from any
// goroutine; slots are disjoint), passing the measured statistics and a
// worker label for event attribution, and must return one error slot per
// cell — nil for cells whose done call succeeded, the done error
// otherwise, and ctx.Err() for cells abandoned on cancellation. Replayed
// cells never reach an executor, so a resumed campaign re-dispatches only
// unfinished work.
type CellExecutor interface {
	ExecuteCells(ctx context.Context, experiment string, cells []Cell, ids []CellID,
		done func(i int, st *capture.Stats, worker string) error) []error
}

// RunOptions configure the cell pipeline. The zero value runs the cells
// serially, unjournaled and unobserved, with a private feed cache.
type RunOptions struct {
	// Workers is the local pool size, per the Workers convention.
	Workers int
	// Experiment namespaces the journal keys and the events of the run.
	Experiment string
	// Journal, when non-nil, makes the run durable: recorded cells are
	// replayed instead of run, and every new final outcome is recorded
	// before it is used.
	Journal CellJournal
	// Observer, when non-nil, receives the live event feed: EventCell per
	// accepted cell (replayed ones up front, in cell order) and, under a
	// fault plan, EventRetry, EventSnifferDead and EventQuarantine. A
	// runtime hook — it never changes an outcome.
	Observer Observer
	// Executor, when non-nil, runs the cells not replayed from the journal
	// instead of the local pool; its results feed the same journaling and
	// observation.
	Executor CellExecutor
	// Feeds is the recorded-train cache; a caller measuring successive
	// batches of one experiment shares one across calls. Nil allocates a
	// private default-sized cache.
	Feeds *FeedCache
	// Plan, when non-nil, supervises every cell under the seeded fault
	// model: per-attempt validation, bounded retry, quarantine, and — in
	// sweeps — outlier rejection and degradation marking. Fault injection
	// works through process-local hooks, so a plan cannot run through an
	// Executor (ErrPlanWithExecutor).
	Plan *faults.Plan
}

// Supervision constants of a fault-plan run.
const (
	// RetryBudget is the number of retries per cell beyond the first
	// attempt.
	RetryBudget = 3
	// BackoffNS is the simulated control-host backoff before the first
	// retry; it doubles per further retry. Rerunning a cycle in the real
	// testbed costs seconds; the backoff models the "wait and re-poll"
	// step without consuming wall-clock time.
	BackoffNS = 250e6
	// MADK is the outlier-rejection threshold: a surviving repetition is
	// rejected when its capturing rate deviates from the per-point median
	// by more than MADK × MAD.
	MADK = 3.5
	// MADFloor is the absolute deviation (percentage points) below which a
	// repetition is never rejected, guarding the MAD ≈ 0 case of
	// near-identical repetitions.
	MADFloor = 0.5
)

// repSeedStride separates the seeds of successive repetitions of one point
// (the thesis repeats each point with distinct packet trains).
const repSeedStride = 7919

// ErrPlanWithExecutor is every cell's error when Run is given both a fault
// plan and an executor: the plan's injections are process-local source
// wraps that cannot be dispatched.
var ErrPlanWithExecutor = errors.New("core: a fault plan cannot run through a cell executor")

// Workers resolves a parallelism knob to a worker count: 0 keeps the
// serial path, negative values use one worker per CPU, positive values are
// taken as-is.
func Workers(parallelism int) int {
	if parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// CellPanicError reports a measurement cell whose run panicked. The
// worker recovers it so one broken configuration cannot kill the whole
// sweep process or leave sibling workers blocked; under a fault plan it is
// a failed attempt and the cell is retried.
type CellPanicError struct {
	Index  int
	System string
	Value  any
	Stack  []byte
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("core: cell %d (%s) panicked: %v", e.Index, e.System, e.Value)
}

// IsCancel reports whether err is a context cancellation — an expected
// interruption, not a cell failure.
func IsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run takes the cells through the pipeline and returns their final
// outcomes and errors in cell order. ids parallel cells (nil names every
// cell CellID{}). Cells with an identical Workload share one recorded
// feed regardless of worker count, so a four-sniffer column generates its
// train exactly once — the splitter semantics of Figure 3.1.
//
// A cell's error is a *CellPanicError for a recovered panic (without a
// plan; with one the panic is a failed attempt), ctx.Err() for a cell
// left unresolved by cancellation, the executor's error, or a failed
// journal append — durability failures must not masquerade as
// measurements. A quarantined cell is an outcome, not an error.
func Run(ctx context.Context, cells []Cell, ids []CellID, o RunOptions) ([]CellOutcome, []error) {
	return newPipeline(ctx, cells, ids, o).run()
}

// pipeline is one Run: the cells, their outcome and error slots (each
// written only by the goroutine currently measuring that cell), and the
// per-attempt state of a supervised run.
type pipeline struct {
	ctx   context.Context
	cells []Cell
	ids   []CellID
	o     RunOptions
	outs  []CellOutcome
	errs  []error
	// settled, when set, is told about every cell whose final outcome has
	// been published — the hook of a sweep's point stream.
	settled func(i int)

	attempt int         // current attempt wave (supervised runs)
	inj     []injection // per-cell injections of the current attempt
}

func newPipeline(ctx context.Context, cells []Cell, ids []CellID, o RunOptions) *pipeline {
	if ids == nil {
		ids = make([]CellID, len(cells))
	}
	if len(ids) != len(cells) {
		panic(fmt.Sprintf("core: %d ids for %d cells", len(ids), len(cells)))
	}
	return &pipeline{ctx: ctx, cells: cells, ids: ids, o: o,
		outs: make([]CellOutcome, len(cells)), errs: make([]error, len(cells))}
}

func (p *pipeline) run() ([]CellOutcome, []error) {
	if p.o.Plan != nil && p.o.Executor != nil {
		for i := range p.errs {
			p.errs[i] = ErrPlanWithExecutor
		}
		return p.outs, p.errs
	}
	pending := p.replay()
	if p.o.Executor != nil {
		p.dispatch(pending)
		return p.outs, p.errs
	}
	if p.o.Feeds == nil {
		p.o.Feeds = NewFeedCache(DefaultFeedCacheSize)
	}
	if p.o.Plan != nil {
		p.supervise(pending)
	} else {
		p.pool(pending, p.measure)
	}
	return p.outs, p.errs
}

// replay is stage 1: it settles every cell with a recorded final outcome
// and returns the indices of the rest.
func (p *pipeline) replay() []int {
	pending := make([]int, 0, len(p.cells))
	for i := range p.cells {
		if p.o.Journal != nil {
			if out, ok := p.o.Journal.Lookup(p.key(i)); ok && (out.OK || out.Quarantined) {
				p.outs[i] = out
				ev := p.event(EventCell, i)
				ev.Replayed = true
				if !out.OK {
					ev.Kind, ev.Detail = EventQuarantine, "replayed quarantine verdict"
				}
				p.errs[i] = p.settle(i, ev)
				continue
			}
		}
		pending = append(pending, i)
	}
	return pending
}

// pool runs fn(i) for every cell index in idx on the resolved number of
// workers (in the caller's goroutine for 0 or 1) and returns once every
// started call has. On cancellation the dispatcher stops handing out
// cells, every worker finishes its in-flight cell and exits, and cells
// never started carry ctx.Err().
func (p *pipeline) pool(idx []int, fn func(i int)) {
	workers := min(Workers(p.o.Workers), len(idx))
	if workers <= 1 {
		for _, i := range idx {
			if err := p.ctx.Err(); err != nil {
				p.errs[i] = err
				continue
			}
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for n := 0; n < workers; n++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	k := 0
dispatch:
	for ; k < len(idx) && p.ctx.Err() == nil; k++ {
		select {
		case jobs <- idx[k]:
		case <-p.ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	for _, i := range idx[k:] {
		p.errs[i] = p.ctx.Err()
	}
	wg.Wait()
}

// measure is the plain worker body: one run, accepted as measured.
func (p *pipeline) measure(i int) {
	defer p.recoverCell(i, &p.errs[i])
	p.exec(i, nil)
	p.outs[i].OK, p.outs[i].Attempts = true, 1
	p.errs[i] = p.settle(i, p.event(EventCell, i))
}

// dispatch hands the pending cells to the executor; its done callback
// settles each cell exactly like the local pool would.
func (p *pipeline) dispatch(pending []int) {
	cells, ids := p.cells, p.ids
	if len(pending) < len(p.cells) {
		cells, ids = make([]Cell, len(pending)), make([]CellID, len(pending))
		for k, i := range pending {
			cells[k], ids[k] = p.cells[i], p.ids[i]
		}
	}
	errs := p.o.Executor.ExecuteCells(p.ctx, p.o.Experiment, cells, ids,
		func(k int, st *capture.Stats, worker string) error {
			i := pending[k]
			p.outs[i].Stats, p.outs[i].OK, p.outs[i].Attempts = *st, true, 1
			ev := p.event(EventCell, i)
			ev.Worker = worker
			return p.settle(i, ev)
		})
	for k, i := range pending {
		if k < len(errs) {
			p.errs[i] = errs[k]
		}
	}
}

// exec measures cell i once into its outcome slot: the recorded train,
// replayed through the cell's own wrap and then this attempt's injections
// (nil without a plan), into a freshly built system.
func (p *pipeline) exec(i int, in *injection) {
	c := &p.cells[i]
	src := p.o.Feeds.Get(c.W).Replay()
	if c.Wrap != nil {
		src = c.Wrap(src)
	}
	if in != nil {
		src = in.wrap(src, c.W.Packets)
	}
	p.outs[i].Stats = capture.NewSystem(Prepare(c.Cfg, c.W)).RunSource(src)
}

// recoverCell is deferred around a cell's measurement: a panic becomes a
// *CellPanicError in *err and the slot's statistics read zero.
func (p *pipeline) recoverCell(i int, err *error) {
	if r := recover(); r != nil {
		p.outs[i].Stats = capture.Stats{}
		buf := make([]byte, 16<<10)
		*err = &CellPanicError{Index: i, System: p.cells[i].Cfg.Name, Value: r,
			Stack: buf[:runtime.Stack(buf, false)]}
	}
}

// settle is stages 4 and 5 for a cell whose outcome is final: record it
// in the journal (unless it was replayed from there), then publish ev
// with private copies of the statistics — and, under a plan, of the whole
// outcome — and tell the point stream. A failed append is returned and
// nothing is published.
func (p *pipeline) settle(i int, ev Event) error {
	if p.o.Journal != nil && !ev.Replayed {
		if err := p.o.Journal.Record(p.key(i), p.outs[i]); err != nil {
			return fmt.Errorf("core: journal record %v: %w", p.key(i), err)
		}
	}
	if p.o.Observer != nil {
		st := p.outs[i].Stats
		ev.Stats = &st
		if p.o.Plan != nil {
			out := p.outs[i]
			ev.Outcome = &out
		}
		p.o.Observer.Observe(ev)
	}
	if p.settled != nil {
		p.settled(i)
	}
	return nil
}

func (p *pipeline) key(i int) CellKey {
	return CellKey{Experiment: p.o.Experiment, Point: p.ids[i].Point, System: p.cells[i].Cfg.Name, Rep: p.ids[i].Rep}
}

// event builds the cell-level event of cell i.
func (p *pipeline) event(kind EventKind, i int) Event {
	return Event{Kind: kind, Experiment: p.o.Experiment, System: p.cells[i].Cfg.Name,
		Point: p.ids[i].Point, X: p.cells[i].W.TargetRate / 1e6, Rep: p.ids[i].Rep}
}

// --- supervision under a fault plan -------------------------------------

// injection is one attempt's faults on one cell's source: a generator
// underrun or stall cuts the train to frac of its packets, a degraded
// splitter leg withholds a legLoss share. The wrapped sources keep the
// counts validation books.
type injection struct {
	stale   bool
	frac    float64
	legLoss float64
	legSeed uint64
	trunc   *faults.TruncatedSource
	lossy   *faults.LossySource
}

func (in *injection) wrap(src capture.Source, packets int) capture.Source {
	if in.frac > 0 && in.frac < 1 {
		in.trunc = faults.NewTruncatedSource(src, int(float64(packets)*in.frac))
		src = in.trunc
	}
	if in.legLoss > 0 {
		in.lossy = faults.NewLossySource(src, in.legSeed, in.legLoss)
		src = in.lossy
	}
	return src
}

// supervise runs attempt waves over the unresolved cells: each wave's
// faults are drawn here, in cell order; the cells whose sniffer answers
// run on the pool, are validated in the worker while their feed is hot,
// and settle there when they pass. The rest pay the doubling simulated
// backoff and go again until the budget is spent and they are
// quarantined — a final verdict, so never pronounced on cancellation.
func (p *pipeline) supervise(pending []int) {
	p.inj = make([]injection, len(p.cells))
	runs := make([]int, 0, len(pending))
	for p.attempt = 0; p.attempt <= RetryBudget && len(pending) > 0 && p.ctx.Err() == nil; p.attempt++ {
		if p.attempt > 0 {
			backoff := BackoffNS * float64(int(1)<<(p.attempt-1))
			for _, i := range pending {
				p.outs[i].BackoffNS += backoff
			}
		}
		runs = runs[:0]
		for _, i := range pending {
			p.outs[i].Attempts++
			if p.draw(i) {
				runs = append(runs, i)
			}
		}
		p.pool(runs, p.try)
		next := pending[:0]
		for _, i := range pending {
			if !p.outs[i].OK {
				next = append(next, i)
			}
		}
		pending = next
	}
	if err := p.ctx.Err(); err != nil {
		for _, i := range pending {
			p.errs[i] = err
		}
		return
	}
	for _, i := range pending {
		p.outs[i].Quarantined = true
		ev := p.event(EventQuarantine, i)
		ev.Attempt, ev.Detail = RetryBudget, "retry budget exhausted"
		p.errs[i] = p.settle(i, ev)
	}
}

// draw rolls cell i's faults for the current attempt. A hung, crashed or
// dead sniffer fails fast — no run, no statistics — and draw reports
// false; otherwise the attempt's injections are staged for the worker.
func (p *pipeline) draw(i int) bool {
	c, id, a, plan := &p.cells[i], p.ids[i], p.attempt, p.o.Plan
	sf := plan.Sniffer(c.Cfg.Name, id.Point, id.Rep, a)
	if sf.Failed() {
		ev := p.event(EventRetry, i)
		ev.Attempt = a
		fault := "sniffer-crash"
		switch {
		case sf.Dead:
			fault, ev.Kind, ev.Detail = "sniffer-dead", EventSnifferDead, "sniffer dead for this attempt"
		case sf.Hang:
			fault, ev.Detail = "sniffer-hang", "sniffer hang: no statistics"
		default:
			ev.Detail = "sniffer crash: no statistics"
		}
		p.logf(i, "rep%d.%d %s:%s", id.Rep, a, c.Cfg.Name, fault)
		observe(p.o.Observer, ev)
		return false
	}
	in := &p.inj[i]
	*in = injection{stale: plan.Stale(id.Point, id.Rep, a), legLoss: sf.LegLoss}
	if in.stale {
		p.logf(i, "rep%d.%d switch:snmp-stale", id.Rep, a)
	}
	frac, stall := plan.Gen(id.Point, id.Rep, a)
	if frac > 0 && frac < 1 {
		in.frac = frac
		fault := "gen-underrun"
		if stall {
			fault = "gen-stall"
		}
		p.logf(i, "rep%d.%d gen:%s(%.2g)", id.Rep, a, fault, frac)
	}
	if sf.LegLoss > 0 {
		in.legSeed = sf.LegSeed
		p.logf(i, "rep%d.%d %s:splitter-leg-loss(%.2g)", id.Rep, a, c.Cfg.Name, sf.LegLoss)
	}
	return true
}

// try is the supervised worker body: one attempt, settled if it
// validates. A failed attempt keeps its partial data so a quarantined
// cell is inspectable, with a generator shortfall booked so even the
// partial stats balance.
func (p *pipeline) try(i int) {
	in := &p.inj[i]
	if err := p.attemptCell(i, in); err != nil {
		id := p.ids[i]
		p.logf(i, "rep%d.%d %s:retry: %v", id.Rep, p.attempt, p.cells[i].Cfg.Name, err)
		ev := p.event(EventRetry, i)
		ev.Attempt, ev.Detail = p.attempt, err.Error()
		observe(p.o.Observer, ev)
		if t := in.trunc; t != nil && t.Cut > 0 {
			p.outs[i].Stats.BookFaultLoss(capture.CauseFaultGenerator, t.Cut, t.CutBytes, t.LastAt)
		}
		return
	}
	p.outs[i].OK = true
	p.outs[i].Degraded = in.lossy != nil && in.lossy.Lost > 0
	ev := p.event(EventCell, i)
	ev.Attempt = p.attempt
	p.errs[i] = p.settle(i, ev)
}

// attemptCell measures and validates one attempt (stage 3): a degraded
// splitter leg is an environmental loss, not a measurement error, so its
// withheld frames are booked before the run is checked against the
// switch's count and the conservation identity.
func (p *pipeline) attemptCell(i int, in *injection) (err error) {
	defer p.recoverCell(i, &err)
	p.exec(i, in)
	st := &p.outs[i].Stats
	if l := in.lossy; l != nil && l.Lost > 0 {
		st.BookFaultLoss(capture.CauseFaultSplitter, l.Lost, l.LostBytes, l.LastAt)
	}
	if in.stale {
		return errors.New("stale SNMP read: switch delta 0")
	}
	if expected := p.o.Feeds.Get(p.cells[i].W).Sent; st.Generated != expected {
		return fmt.Errorf("switch counted %d frames, sniffer was offered %d", expected, st.Generated)
	}
	return st.CheckConservation()
}

func (p *pipeline) logf(i int, format string, args ...any) {
	p.outs[i].Log = append(p.outs[i].Log, fmt.Sprintf(format, args...))
}
