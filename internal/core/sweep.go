package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/capture"
	"repro/internal/stats"
)

// Grid is the cell layout of a sweep: every system measured at every x
// value, Reps times. Cells are x-major and column-major — cell (xi, rep,
// col) sits at Cells[(xi*Reps+rep)*len(Systems)+col] — so the systems of
// one (x, rep) column are adjacent: they replay the column's train while
// it is hot in the feed cache, and workers draining nearby indices share
// one recording.
type Grid struct {
	Systems []string  // system names, one per column
	X       []float64 // plotted x value of each point row
	Reps    int       // repetitions per point (≤0 means 1)
	Cells   []Cell
	IDs     []CellID // parallel to Cells
	// Partial plots a quarantined cell from its last failed attempt's
	// partial statistics instead of leaving it out of its point — the
	// per-cell sweeps (one cell per point) show what was measured.
	Partial bool
}

// RateGrid lays out the standard §3.4 rate sweep: each system at each
// data rate (Mbit/s), repeated reps times with distinct seeds.
func RateGrid(cfgs []capture.Config, ratesMbit []float64, w Workload, reps int) Grid {
	g := Grid{X: ratesMbit, Reps: max(reps, 1)}
	for _, cfg := range cfgs {
		g.Systems = append(g.Systems, cfg.Name)
	}
	n := len(ratesMbit) * g.Reps * len(cfgs)
	g.Cells, g.IDs = make([]Cell, 0, n), make([]CellID, 0, n)
	for _, r := range ratesMbit {
		for rep := 0; rep < g.Reps; rep++ {
			wl := w
			wl.TargetRate = r * 1e6
			wl.Seed = w.Seed + uint64(rep)*repSeedStride
			for _, cfg := range cfgs {
				g.Cells = append(g.Cells, Cell{Cfg: cfg, W: wl})
				g.IDs = append(g.IDs, CellID{Point: pointKey(r), Rep: rep})
			}
		}
	}
	return g
}

// pointKey fingerprints a sweep point for the fault model and the journal.
func pointKey(x float64) uint64 { return uint64(int64(x * 1e3)) }

// Sweep runs the grid's cells through the pipeline (Run) and folds each
// (system, x) point over its repetitions: one Series per system in column
// order, points in x order, byte-identical for any worker count, journal
// state or executor. With an Observer, each completed point is also
// published as an EventPoint, in the same layout order whichever cell
// finished first. The cells' final outcomes come back too, in grid order.
//
// A cell error other than cancellation is re-raised as a panic once the
// pool has drained. On cancellation the results are incomplete and must
// be discarded — callers check ctx.Err().
func Sweep(ctx context.Context, g Grid, o RunOptions) ([]Series, []CellOutcome) {
	l := layout{Grid: g, reps: max(g.Reps, 1), cols: len(g.Systems), supervised: o.Plan != nil}
	if len(g.Cells) != len(g.X)*l.reps*l.cols {
		panic(fmt.Sprintf("core: grid of %d cells is not %d x values × %d reps × %d systems",
			len(g.Cells), len(g.X), l.reps, l.cols))
	}
	p := newPipeline(ctx, g.Cells, g.IDs, o)
	if o.Observer != nil {
		kept := make([]*capture.Stats, 0, l.reps)
		seq := newPointSequencer(len(g.X)*l.cols, l.reps, func(pi int) {
			xi, col := pi/l.cols, pi%l.cols
			pt := l.point(p.outs, xi, col, kept)
			o.Observer.Observe(Event{Kind: EventPoint, Experiment: o.Experiment, System: pt.System,
				Point: p.ids[l.cell(xi, 0, col)].Point, X: pt.X, Agg: &pt})
		})
		p.settled = func(i int) { seq.done(i/(l.reps*l.cols)*l.cols + i%l.cols) }
	}
	outs, errs := p.run()
	for _, err := range errs {
		if err != nil && !IsCancel(err) {
			panic(err)
		}
	}

	series := make([]Series, l.cols)
	kept := make([]*capture.Stats, 0, l.reps)
	for col := range series {
		series[col].System = g.Systems[col]
		series[col].Points = make([]Point, 0, len(g.X))
		for xi := range g.X {
			series[col].Points = append(series[col].Points, l.point(outs, xi, col, kept))
		}
	}
	return series, outs
}

// layout resolves a grid's points from its cells' outcomes.
type layout struct {
	Grid
	reps, cols int
	supervised bool
}

func (l *layout) cell(xi, rep, col int) int { return (xi*l.reps+rep)*l.cols + col }

// point folds the repetitions of point (xi, col) into a plotted Point, in
// repetition order so floating-point sums are identical whichever worker
// finished first; kept is scratch space of capacity reps. The returned
// series and the EventPoint stream both resolve here.
//
// Without a plan every repetition aggregates. Under one, the accepted
// repetitions pass the thesis-style outlier rejection (median absolute
// deviation on the capturing rate), the survivors aggregate exactly like
// a clean point, and the chaos counters record what the supervisor had
// to do to get there. The point is Degraded when a survivor ran on a
// degraded leg or none survived (its rate fields are then not measured).
func (l *layout) point(outs []CellOutcome, xi, col int, kept []*capture.Stats) Point {
	kept = kept[:0]
	if !l.supervised {
		for rep := 0; rep < l.reps; rep++ {
			kept = append(kept, &outs[l.cell(xi, rep, col)].Stats)
		}
		return aggregatePoint(l.Systems[col], l.X[xi], kept)
	}
	var attempts, quarantined, rejected, survivors int
	var rates []float64
	var log []string
	for rep := 0; rep < l.reps; rep++ {
		o := &outs[l.cell(xi, rep, col)]
		attempts += o.Attempts
		if o.Quarantined {
			quarantined++
		} else {
			rates = append(rates, o.Stats.CaptureRate())
		}
		log = append(log, o.Log...)
	}
	reject := stats.MADOutliers(rates, MADK, MADFloor)
	degraded := false
	for rep, k := 0, 0; rep < l.reps; rep++ {
		o := &outs[l.cell(xi, rep, col)]
		if o.Quarantined {
			if l.Partial {
				kept = append(kept, &o.Stats)
			}
			continue
		}
		if reject[k] {
			rejected++
			log = append(log, fmt.Sprintf("%s:outlier-rejected(%.2f%%)", l.Systems[col], rates[k]))
		} else {
			survivors++
			kept = append(kept, &o.Stats)
			degraded = degraded || o.Degraded
		}
		k++
	}
	pt := aggregatePoint(l.Systems[col], l.X[xi], kept)
	pt.Attempts, pt.Quarantined, pt.Rejected = attempts, quarantined, rejected
	pt.Degraded = degraded || survivors == 0
	pt.FaultLog = strings.Join(log, "; ")
	return pt
}
