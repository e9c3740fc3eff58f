package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
)

// The traced run records spans in memory, from the benchmark's own code
// around public calls into each layer, and writes them out at the end. A
// span has a name, start, end and parent; the spans of one cell share a
// trace id, the cell's core.CellKey.

type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	root  atomic.Uint64 // the open experiment span: parent of layer spans
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name, trace string, parent uint64) span {
	return span{Name: name, Trace: trace, ID: t.ids.Add(1), Parent: parent,
		Start: time.Since(t.t0).Nanoseconds()}
}

func (t *tracer) finish(s *span) {
	s.End = time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name, in
// the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the time a span name accounts for, in total and net of the
// parts its child spans cover.
type selfTime struct {
	name  string
	count int
	total int64
	self  int64
}

// selfTimes aggregates self time by span name. Children may overlap each
// other (cells run on two workers), so a span's covered time is the union
// of its children's intervals, clipped to the span.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*selfTime{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			by[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s, kids[s.ID])
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

func keyTrace(k core.CellKey) string {
	return fmt.Sprintf("%s/%d/%s/%d", k.Experiment, k.Point, k.System, k.Rep)
}

// pathOf names the receive path a configuration simulates.
func pathOf(cfg capture.Config) string {
	switch cfg.Stack {
	case capture.StackRSS:
		return "rss"
	case capture.StackPoll:
		return "poll"
	case capture.StackZeroCopy:
		return "xdp"
	}
	if cfg.OS == capture.Linux {
		return "linux"
	}
	return "bsd"
}

var paths = []string{"linux", "bsd", "rss", "poll", "xdp"}

// cellRun is what the traced executor learned about one cell.
type cellRun struct {
	key   core.CellKey
	stats capture.Stats
}

// tracedExecutor is a core.CellExecutor that runs cells exactly as the
// engine's local pool does — feeds.Get(W).Replay(), then Wrap, then
// capture.NewSystem(core.Prepare(...)).RunSource — on the same number of
// workers, with a span around the feed and around the run. The engine
// keeps its own aggregation and rendering.
type tracedExecutor struct {
	tr      *tracer
	workers int
	// cost, when set, is charged the host time and heap allocations of
	// each feed lookup and each run; process-wide counters need workers = 1.
	cost *attribution

	mu           sync.Mutex
	runs         []cellRun
	hits, misses uint64
}

func (x *tracedExecutor) ExecuteCells(ctx context.Context, experiment string, cells []core.Cell, ids []core.CellID,
	done func(int, *capture.Stats, string) error) []error {
	exec := x.tr.start("core.execute", experiment, x.tr.root.Load())
	feeds := core.NewFeedCache(core.DefaultFeedCacheSize)
	runs := make([]cellRun, len(cells))
	errs := make([]error, len(cells))
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("cell %d (%s) panicked: %v", i, cells[i].Cfg.Name, r)
			}
		}()
		c := cells[i]
		key := core.CellKey{Experiment: experiment, Point: ids[i].Point, System: c.Cfg.Name, Rep: ids[i].Rep}
		trace := keyTrace(key)
		cs := x.tr.start("cell", trace, exec.ID)
		fs := x.tr.start("pktgen.feed", trace, cs.ID)
		var before snap
		if x.cost != nil {
			before = takeSnap()
		}
		feed := feeds.Get(c.W)
		if x.cost != nil {
			x.cost.feed(c, feed, since(before))
		}
		x.tr.finish(&fs)
		var src capture.Source = feed.Replay()
		if c.Wrap != nil {
			src = c.Wrap(src)
		}
		rs := x.tr.start("capture."+pathOf(c.Cfg)+".run", trace, cs.ID)
		if x.cost != nil {
			before = takeSnap()
		}
		sys := capture.NewSystem(core.Prepare(c.Cfg, c.W))
		st := sys.RunSource(src)
		if x.cost != nil {
			x.cost.run(c.Cfg, sys.Sim.Steps(), &st, since(before))
		}
		x.tr.finish(&rs)
		runs[i] = cellRun{key: key, stats: st}
		errs[i] = done(i, &st, "")
		x.tr.finish(&cs)
	}
	forEach(ctx, len(cells), x.workers, errs, runCell)
	x.tr.finish(&exec)
	h, m := feeds.Counters()
	x.mu.Lock()
	x.runs = append(x.runs, runs...)
	x.hits += h
	x.misses += m
	x.mu.Unlock()
	return errs
}

// forEach runs fn(0..n-1) on at most workers goroutines and returns once
// all calls have. Indices never started because ctx ended get ctx.Err().
func forEach(ctx context.Context, n, workers int, errs []error, fn func(i int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	i := 0
feed:
	for ; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	for ; i < n; i++ {
		errs[i] = ctx.Err()
	}
	wg.Wait()
}

// timedExecutor wraps another executor (the dispatch coordinator) in one
// span per batch of cells.
type timedExecutor struct {
	tr    *tracer
	inner core.CellExecutor
}

func (x timedExecutor) ExecuteCells(ctx context.Context, experiment string, cells []core.Cell, ids []core.CellID,
	done func(int, *capture.Stats, string) error) []error {
	parent := x.tr.root.Load()
	s := x.tr.start("dispatch.execute", experiment, parent)
	x.tr.root.Store(s.ID)
	defer func() {
		x.tr.root.Store(parent)
		x.tr.finish(&s)
	}()
	return x.inner.ExecuteCells(ctx, experiment, cells, ids, done)
}

// replayExecutor completes every cell at once from recorded statistics,
// so the engine's enumeration, aggregation and rendering can be timed
// without the simulation.
type replayExecutor map[core.CellKey]capture.Stats

func (r replayExecutor) ExecuteCells(ctx context.Context, experiment string, cells []core.Cell, ids []core.CellID,
	done func(int, *capture.Stats, string) error) []error {
	errs := make([]error, len(cells))
	for i, c := range cells {
		st, ok := r[core.CellKey{Experiment: experiment, Point: ids[i].Point, System: c.Cfg.Name, Rep: ids[i].Rep}]
		if !ok {
			errs[i] = fmt.Errorf("replay: no recorded cell %s/%d", c.Cfg.Name, ids[i].Point)
			continue
		}
		errs[i] = done(i, &st, "")
	}
	return errs
}

// tracedJournal is a core.CellJournal wrapper with a span around every
// lookup and record.
type tracedJournal struct {
	tr    *tracer
	inner core.CellJournal
}

func (j tracedJournal) Lookup(k core.CellKey) (core.CellOutcome, bool) {
	s := j.tr.start("journal.lookup", keyTrace(k), j.tr.root.Load())
	defer j.tr.finish(&s)
	return j.inner.Lookup(k)
}

func (j tracedJournal) Record(k core.CellKey, out core.CellOutcome) error {
	s := j.tr.start("journal.record", keyTrace(k), j.tr.root.Load())
	defer j.tr.finish(&s)
	return j.inner.Record(k, out)
}

// timingTransport is the dispatch worker's http.RoundTripper: one span per
// protocol call (dispatch.lease, dispatch.complete, dispatch.heartbeat),
// and a count of lease calls answered "nothing to lease".
type timingTransport struct {
	tr          *tracer
	worker      string
	base        http.RoundTripper
	emptyLeases atomic.Uint64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	verb := req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
	switch verb {
	case "lease", "complete", "heartbeat":
	default:
		verb = "discover"
	}
	s := t.tr.start("dispatch."+verb, t.worker, t.tr.root.Load())
	resp, err := t.base.RoundTrip(req)
	t.tr.finish(&s)
	if err == nil && verb == "lease" && resp.StatusCode == http.StatusNoContent {
		t.emptyLeases.Add(1)
	}
	return resp, err
}
