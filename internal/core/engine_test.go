package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/faults"
)

// recorder is an Observer that keeps every event.
type recorder struct {
	mu  sync.Mutex
	evs []Event
}

func (r *recorder) Observe(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = append(r.evs, ev)
}

func (r *recorder) kind(k EventKind) []Event {
	var out []Event
	for _, ev := range r.evs {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// directExecutor measures every cell in the caller's goroutine with
// RunOnce and attributes it to one worker — the smallest CellExecutor.
type directExecutor struct{ calls, cells int }

func (x *directExecutor) ExecuteCells(ctx context.Context, experiment string, cells []Cell, ids []CellID,
	done func(int, *capture.Stats, string) error) []error {
	x.calls++
	x.cells += len(cells)
	errs := make([]error, len(cells))
	for i, c := range cells {
		st := RunOnce(c.Cfg, c.W)
		errs[i] = done(i, &st, "w1")
	}
	return errs
}

// TestRunRefusesPlanWithExecutor: a fault plan cannot be dispatched, so
// the combination is refused with a typed error in every cell's slot —
// before anything runs — instead of silently dropping either option.
func TestRunRefusesPlanWithExecutor(t *testing.T) {
	g := RateGrid([]capture.Config{Swan()}, []float64{300}, Workload{Packets: 1000, Seed: 1}, 2)
	x := &directExecutor{}
	outs, errs := Run(context.Background(), g.Cells, g.IDs, RunOptions{Executor: x, Plan: faults.DefaultPlan(1)})
	for i, err := range errs {
		if !errors.Is(err, ErrPlanWithExecutor) {
			t.Fatalf("cell %d: err %v, want ErrPlanWithExecutor", i, err)
		}
		if !reflect.DeepEqual(outs[i], CellOutcome{}) {
			t.Fatalf("cell %d has an outcome despite the refusal: %+v", i, outs[i])
		}
	}
	if x.calls != 0 {
		t.Fatalf("executor called %d times despite the refusal", x.calls)
	}
}

// TestRunPlainByteShapes pins what the plain path (no plan) writes and
// publishes, which journals and NDJSON consumers depend on: journal
// records are exactly {Stats, OK, Attempts: 1}, so old campaigns still
// resume; EventCell carries the statistics but no Outcome; sweep points
// carry no chaos bookkeeping. Under a plan, EventCell carries the
// supervised outcome.
func TestRunPlainByteShapes(t *testing.T) {
	g := RateGrid([]capture.Config{Swan(), Moorhen()}, []float64{400}, Workload{Packets: 1200, Seed: 2}, 2)
	j := newMemJournal()
	rec := &recorder{}
	series, outs := Sweep(context.Background(), g, RunOptions{Workers: 2, Experiment: "x", Journal: j, Observer: rec})
	for i := range g.Cells {
		got, ok := j.Lookup(CellKey{Experiment: "x", Point: g.IDs[i].Point, System: g.Cells[i].Cfg.Name, Rep: g.IDs[i].Rep})
		want := CellOutcome{Stats: RunOnce(g.Cells[i].Cfg, g.Cells[i].W), OK: true, Attempts: 1}
		if !ok || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("cell %d: journal record %+v (found %v), want {Stats, OK, Attempts: 1}", i, got, ok)
		}
	}
	cellEvs := rec.kind(EventCell)
	if len(cellEvs) != len(g.Cells) {
		t.Fatalf("%d cell events for %d cells", len(cellEvs), len(g.Cells))
	}
	for _, ev := range cellEvs {
		if ev.Stats == nil || ev.Outcome != nil || ev.Attempt != 0 {
			t.Fatalf("plain cell event has the wrong shape: %+v", ev)
		}
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Attempts != 0 || p.FaultLog != "" {
				t.Fatalf("plain point carries chaos bookkeeping: %+v", p)
			}
		}
	}

	sup := &recorder{}
	Run(context.Background(), g.Cells, g.IDs, RunOptions{Observer: sup, Plan: &faults.Plan{}})
	for _, ev := range sup.kind(EventCell) {
		if ev.Outcome == nil || !ev.Outcome.OK || ev.Outcome.Attempts != 1 {
			t.Fatalf("supervised cell event lacks its outcome: %+v", ev)
		}
	}
}

// TestSweepThroughExecutor: cells handed to an executor come back through
// the same settlement — journaled, observed with the executor's worker
// label — and the series are byte-identical to a local sweep. Replayed
// cells never reach the executor.
func TestSweepThroughExecutor(t *testing.T) {
	g := RateGrid(Sniffers()[:2], []float64{300, 700}, Workload{Packets: 1200, Seed: 3}, 2)
	local, _ := Sweep(context.Background(), g, RunOptions{Workers: 2})
	j := newMemJournal()
	rec := &recorder{}
	x := &directExecutor{}
	remote, _ := Sweep(context.Background(), g, RunOptions{Experiment: "x", Journal: j, Observer: rec, Executor: x})
	if !reflect.DeepEqual(local, remote) {
		t.Fatal("dispatched sweep differs from the local one")
	}
	for _, ev := range rec.kind(EventCell) {
		if ev.Worker != "w1" {
			t.Fatalf("dispatched cell event not attributed to its worker: %+v", ev)
		}
	}
	if len(j.m) != len(g.Cells) {
		t.Fatalf("journal holds %d records for %d cells", len(j.m), len(g.Cells))
	}
	if points := rec.kind(EventPoint); len(points) != 4 {
		t.Fatalf("%d point events, want 4", len(points))
	}

	again := &directExecutor{}
	resumed, _ := Sweep(context.Background(), g, RunOptions{Experiment: "x", Journal: j, Executor: again})
	if !reflect.DeepEqual(local, resumed) {
		t.Fatal("replayed sweep differs from the local one")
	}
	if again.cells != 0 {
		t.Fatalf("%d replayed cells reached the executor", again.cells)
	}
}

// TestRunJournalFailureIsCellError: a failed journal append surfaces as
// the cell's error — on the plain path and under a plan alike — and the
// outcome is not published; a sweep re-raises it once the pool drained.
func TestRunJournalFailureIsCellError(t *testing.T) {
	g := RateGrid([]capture.Config{Swan()}, []float64{300}, Workload{Packets: 1000, Seed: 4}, 2)
	boom := errors.New("disk full")
	for _, plan := range []*faults.Plan{nil, {}} {
		j := newMemJournal()
		j.fail = boom
		rec := &recorder{}
		_, errs := Run(context.Background(), g.Cells, g.IDs, RunOptions{Workers: 2, Journal: j, Observer: rec, Plan: plan})
		for i, err := range errs {
			if !errors.Is(err, boom) {
				t.Fatalf("plan %v, cell %d: err %v, want the journal failure", plan != nil, i, err)
			}
		}
		if n := len(rec.kind(EventCell)); n != 0 {
			t.Fatalf("plan %v: %d unrecorded cells published", plan != nil, n)
		}
	}

	defer func() {
		if err, _ := recover().(error); !errors.Is(err, boom) {
			t.Fatalf("Sweep re-raised %v, want the journal failure", err)
		}
	}()
	j := newMemJournal()
	j.fail = boom
	Sweep(context.Background(), g, RunOptions{Workers: 2, Journal: j})
}

// TestSweepPartialQuarantine: a cell that fails validation on every
// attempt is quarantined with its last attempt's partial statistics. A
// rate sweep leaves it out of its point (no data, Degraded); a Partial
// grid — the per-cell sweeps — plots what was measured, still Degraded
// and counted as quarantined.
func TestSweepPartialQuarantine(t *testing.T) {
	plan := &faults.Plan{Seed: 1, PStale: 1}
	g := RateGrid([]capture.Config{Moorhen()}, []float64{400}, Workload{Packets: 1500, Seed: 5}, 1)
	rate, outs := Sweep(context.Background(), g, RunOptions{Plan: plan})
	if !outs[0].Quarantined || outs[0].Stats.Generated == 0 {
		t.Fatalf("always-stale cell not quarantined with partial stats: %+v", outs[0])
	}
	g.Partial = true
	partial, _ := Sweep(context.Background(), g, RunOptions{Plan: plan})
	r, p := rate[0].Points[0], partial[0].Points[0]
	if r.Rate != 0 || r.Generated != 0 || !r.Degraded || r.Quarantined != 1 {
		t.Fatalf("rate-sweep point of a quarantined cell: %+v", r)
	}
	want := aggregatePoint("moorhen", 400, []*capture.Stats{&outs[0].Stats})
	if p.Rate != want.Rate || p.Generated != want.Generated || !p.Degraded || p.Quarantined != 1 ||
		p.Attempts != RetryBudget+1 {
		t.Fatalf("partial point = %+v, want the partial stats' rate %.2f", p, want.Rate)
	}
}
