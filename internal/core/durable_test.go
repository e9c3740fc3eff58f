package core

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/faults"
	"repro/internal/pktgen"
)

// memJournal is an in-memory CellJournal that deliberately round-trips
// every outcome through JSON, exactly like the on-disk campaign journal —
// so these tests also prove CellOutcome survives the encoding bit for bit.
type memJournal struct {
	mu   sync.Mutex
	m    map[CellKey][]byte
	fail error
}

func newMemJournal() *memJournal { return &memJournal{m: map[CellKey][]byte{}} }

func (j *memJournal) Lookup(k CellKey) (CellOutcome, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.m[k]
	if !ok {
		return CellOutcome{}, false
	}
	var out CellOutcome
	if err := json.Unmarshal(raw, &out); err != nil {
		panic(err)
	}
	return out, true
}

func (j *memJournal) Record(k CellKey, out CellOutcome) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return j.fail
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	j.m[k] = raw
	return nil
}

// subset returns a journal holding roughly half the records — the shape a
// crash mid-campaign leaves behind.
func (j *memJournal) subset() *memJournal {
	j.mu.Lock()
	defer j.mu.Unlock()
	part := newMemJournal()
	i := 0
	for k, v := range j.m {
		if i%2 == 0 {
			part.m[k] = v
		}
		i++
	}
	return part
}

// TestRunDurableReplay: once every cell is recorded, a re-run with the
// same journal replays everything — no cell executes — and the replayed
// results are identical to the originals (JSON round trip included, via
// memJournal).
func TestRunDurableReplay(t *testing.T) {
	g := RateGrid(Sniffers(), []float64{300, 700}, Workload{Packets: 1500, Seed: 6}, 2)
	cells, ids := g.Cells, g.IDs
	j := newMemJournal()
	ctx := context.Background()
	durable := func(experiment string) RunOptions {
		return RunOptions{Workers: 3, Experiment: experiment, Journal: j}
	}
	first, errs := Run(ctx, cells, ids, durable("rates"))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if len(j.m) != len(cells) {
		t.Fatalf("journal holds %d records for %d cells", len(j.m), len(cells))
	}

	// Tripwire: any cell that actually runs fails the test.
	for i := range cells {
		cells[i].Wrap = func(src capture.Source) capture.Source {
			t.Error("cell executed despite a recorded outcome")
			return src
		}
	}
	second, errs2 := Run(ctx, cells, ids, durable("rates"))
	for i, err := range errs2 {
		if err != nil {
			t.Fatalf("replayed cell %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replayed stats differ from the recorded run")
	}

	// A different experiment id is a different campaign namespace: nothing
	// replays (the tripwire must fire, so give the cells real wraps again).
	for i := range cells {
		cells[i].Wrap = nil
	}
	third, _ := Run(ctx, cells, ids, durable("buffers"))
	if !reflect.DeepEqual(first, third) {
		t.Fatal("same cells under another experiment id computed different stats")
	}
	if len(j.m) != 2*len(cells) {
		t.Fatalf("experiment namespaces collided: %d records", len(j.m))
	}
}

// TestSweepDurableResumeByteIdentical: a sweep resumed from a half-full
// journal produces series — and a formatted table — byte-identical to an
// uninterrupted, unjournaled sweep.
func TestSweepDurableResumeByteIdentical(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 1500, Seed: 6}
	rates := []float64{250, 750}
	ctx := context.Background()
	g := RateGrid(cfgs, rates, w, 2)
	clean, _ := Sweep(ctx, g, RunOptions{Workers: 2})

	full := newMemJournal()
	Sweep(ctx, g, RunOptions{Workers: 2, Experiment: "rates", Journal: full})
	resumed, _ := Sweep(ctx, g, RunOptions{Workers: 3, Experiment: "rates", Journal: full.subset()})
	if !reflect.DeepEqual(clean, resumed) {
		t.Fatal("resumed sweep differs from uninterrupted sweep")
	}
	if FormatTable("t", clean) != FormatTable("t", resumed) {
		t.Fatal("resumed table not byte-identical")
	}
}

// TestChaosDurableResumeIdentical: the same property under the fault
// plan — replayed final outcomes plus freshly measured cells reproduce the
// uninterrupted chaos sweep exactly, because fault draws are keyed by
// (seed, point, system, rep, attempt), not execution order.
func TestChaosDurableResumeIdentical(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 1500, Seed: 3}
	rates := []float64{300, 900}
	ctx := context.Background()
	g := RateGrid(cfgs, rates, w, 3)
	plan := faults.DefaultPlan(42)
	uninterrupted, _ := Sweep(ctx, g, RunOptions{Workers: 2, Plan: plan})

	full := newMemJournal()
	Sweep(ctx, g, RunOptions{Workers: 2, Experiment: "rates", Journal: full, Plan: plan})
	resumed, _ := Sweep(ctx, g, RunOptions{Workers: 4, Experiment: "rates", Journal: full.subset(), Plan: plan})
	if !reflect.DeepEqual(uninterrupted, resumed) {
		t.Fatal("resumed chaos sweep differs from uninterrupted one")
	}
}

// gateSource blocks a cell's first packet until released, so tests can
// hold cells in flight while they cancel the context.
type gateSource struct {
	src     capture.Source
	started chan<- struct{}
	release <-chan struct{}
	once    sync.Once
}

func (s *gateSource) Reset() { s.src.Reset() }
func (s *gateSource) Next() (pktgen.Packet, bool) {
	s.once.Do(func() {
		s.started <- struct{}{}
		<-s.release
	})
	return s.src.Next()
}

// waitGoroutines polls until the live goroutine count settles back at the
// baseline — the leak assertion of the cancellation tests.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	t.Fatalf("worker goroutines leaked after cancellation: %d live, baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// TestRunCancelDrainsNoLeak: cancelling mid-sweep lets in-flight cells
// finish, marks every undispatched cell with the context error, and leaves
// no worker goroutine behind.
func TestRunCancelDrainsNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	w := Workload{Packets: 800, Seed: 3, TargetRate: 6e8}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	var cells []Cell
	for i := 0; i < 8; i++ {
		cells = append(cells, Cell{Cfg: Swan(), W: w, Wrap: func(src capture.Source) capture.Source {
			return &gateSource{src: src, started: started, release: release}
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	var errs []error
	var outs []CellOutcome
	done := make(chan struct{})
	go func() {
		outs, errs = Run(ctx, cells, nil, RunOptions{Workers: 2})
		close(done)
	}()
	<-started
	<-started // both workers hold a cell in flight
	cancel()
	close(release)
	<-done

	want := RunOnce(Swan(), w)
	finished, cancelled := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			finished++
			if !reflect.DeepEqual(outs[i].Stats, want) {
				t.Fatalf("cell %d finished with wrong stats after cancel", i)
			}
		case IsCancel(err):
			cancelled++
		default:
			t.Fatalf("cell %d: unexpected error %v", i, err)
		}
	}
	if finished < 2 {
		t.Fatalf("in-flight cells did not finish: %d done", finished)
	}
	if cancelled == 0 {
		t.Fatal("no cell carries the cancellation error")
	}
	waitGoroutines(t, base)

	// A sweep must treat the cancellation as expected, not panic.
	Sweep(ctx, Grid{Systems: []string{"swan"}, X: []float64{600}, Cells: cells[:1]}, RunOptions{})
}

// TestRunSupervisedCancelLeavesUnresolved: an interrupt mid-campaign
// under a fault plan leaves unfinished cells neither accepted nor
// quarantined — so a resume measures them from scratch — with the
// context's error, records nothing spurious in the journal, and leaks no
// workers.
func TestRunSupervisedCancelLeavesUnresolved(t *testing.T) {
	base := runtime.NumGoroutine()
	w := Workload{Packets: 800, Seed: 3, TargetRate: 6e8}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	cells, ids := make([]Cell, 6), make([]CellID, 6)
	for i := range cells {
		cells[i] = Cell{Cfg: Swan(), W: w, Wrap: func(src capture.Source) capture.Source {
			return &gateSource{src: src, started: started, release: release}
		}}
		ids[i] = CellID{Point: 1, Rep: i}
	}
	j := newMemJournal()
	ctx, cancel := context.WithCancel(context.Background())
	var outs []CellOutcome
	var errs []error
	done := make(chan struct{})
	go func() {
		// The zero plan injects nothing but still supervises every cell.
		outs, errs = Run(ctx, cells, ids, RunOptions{Workers: 2, Experiment: "rates", Journal: j, Plan: &faults.Plan{}})
		close(done)
	}()
	<-started
	<-started
	cancel()
	close(release)
	<-done

	resolved, unresolved := 0, 0
	for i, o := range outs {
		switch {
		case o.OK:
			resolved++
		case o.Quarantined:
			t.Fatalf("cell %d quarantined by an interrupt, not by its retry budget", i)
		default:
			unresolved++
			if !IsCancel(errs[i]) {
				t.Fatalf("unresolved cell %d carries %v, want the context error", i, errs[i])
			}
		}
	}
	if resolved < 2 || unresolved == 0 {
		t.Fatalf("drain shape wrong: %d resolved, %d unresolved", resolved, unresolved)
	}
	if len(j.m) != resolved {
		t.Fatalf("journal holds %d records for %d resolved cells", len(j.m), resolved)
	}
	waitGoroutines(t, base)
}
