package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/faults"
)

// TestChaosNilPlanMatchesParallel: without a plan a sweep is the plain
// path — its points carry no chaos bookkeeping at all, so the NDJSON
// records keep their clean shape. A plan that injects nothing supervises
// every cell yet stays numerically identical to the plain path, its
// counters recording only one clean attempt per repetition.
func TestChaosNilPlanMatchesParallel(t *testing.T) {
	w := Workload{Packets: 2000, Seed: 5}
	reps := 2
	g := RateGrid(Sniffers(), []float64{200, 800}, w, reps)
	clean, _ := Sweep(context.Background(), g, RunOptions{Workers: 2})
	chaos, _ := Sweep(context.Background(), g, RunOptions{Workers: 2, Plan: &faults.Plan{}})
	for si := range chaos {
		for pi := range chaos[si].Points {
			p, c := chaos[si].Points[pi], clean[si].Points[pi]
			if c.Attempts != 0 || c.Quarantined != 0 || c.Rejected != 0 || c.Degraded || c.FaultLog != "" {
				t.Fatalf("%s x=%g: plain point carries chaos bookkeeping: %+v", chaos[si].System, c.X, c)
			}
			if p.Attempts != reps || p.Quarantined != 0 || p.Rejected != 0 || p.Degraded || p.FaultLog != "" {
				t.Fatalf("%s x=%g: fault-free plan counters dirty: %+v", chaos[si].System, p.X, p)
			}
			p.Attempts = 0
			if !reflect.DeepEqual(p, c) {
				t.Fatalf("%s x=%g: fault-free point differs from the plain path:\n%+v\nvs\n%+v",
					chaos[si].System, p.X, p, c)
			}
		}
	}
}

// TestChaosDeterministic: a chaos sweep is a pure function of (plan seed,
// workload) — independent of worker count and repeatable bit for bit.
func TestChaosDeterministic(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 1500, Seed: 3}
	rates := []float64{300, 900}
	g := RateGrid(cfgs, rates, w, 3)
	plan := faults.DefaultPlan(42)
	a, _ := Sweep(context.Background(), g, RunOptions{Plan: plan})
	b, _ := Sweep(context.Background(), g, RunOptions{Workers: 4, Plan: plan})
	c, _ := Sweep(context.Background(), g, RunOptions{Workers: 4, Plan: plan})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("chaos sweep differs between serial and 4 workers")
	}
	if !reflect.DeepEqual(b, c) {
		t.Fatal("chaos sweep differs between two identical runs")
	}
}

// TestChaosConvergesToCleanRates is the tentpole invariant: under the
// default fault mix, the accepted per-point rates converge to the clean
// run's (same workload seeds, faults on vs. off) within the rejection
// tolerance. Non-faulted repetitions replay the identical recorded train,
// so the only drift comes from repetitions the supervisor quarantined,
// rejected, or accepted as leg-degraded.
func TestChaosConvergesToCleanRates(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 2000, Seed: 7}
	rates := []float64{200, 600, 1000}
	reps := 4
	plan := faults.DefaultPlan(11)
	g := RateGrid(cfgs, rates, w, reps)
	clean, _ := Sweep(context.Background(), g, RunOptions{Workers: 4})
	chaos, _ := Sweep(context.Background(), g, RunOptions{Workers: 4, Plan: plan})

	quarantined := 0
	for si := range chaos {
		for pi := range chaos[si].Points {
			cp, cl := chaos[si].Points[pi], clean[si].Points[pi]
			if cp.Attempts < reps {
				t.Fatalf("%s x=%g: %d attempts for %d reps — silently dropped work",
					chaos[si].System, cp.X, cp.Attempts, reps)
			}
			quarantined += cp.Quarantined
			if cp.Quarantined == reps {
				if !cp.Degraded {
					t.Fatalf("%s x=%g: fully quarantined point not marked Degraded", chaos[si].System, cp.X)
				}
				continue // nothing accepted; no rate to compare
			}
			// Tolerance: the clean repetition spread, the MAD floor, and the
			// worst-case pull of an accepted leg-degraded repetition.
			tol := (cl.RateMax - cl.RateMin) + 0.5 + plan.LegLossRatio*100
			if diff := cp.Rate - cl.Rate; diff > tol || diff < -tol {
				t.Errorf("%s x=%g: chaos rate %.2f vs clean %.2f (tol %.2f)\nlog: %s",
					chaos[si].System, cp.X, cp.Rate, cl.Rate, tol, cp.FaultLog)
			}
		}
	}
	// The default mix must actually exercise the machinery.
	attempts, _, _, _ := ChaosTotals(chaos)
	if attempts <= len(rates)*reps*len(cfgs) {
		t.Fatalf("default plan injected nothing: %d attempts for %d cells",
			attempts, len(rates)*reps*len(cfgs))
	}
	if quarantined == len(rates)*reps*len(cfgs) {
		t.Fatal("every repetition quarantined — plan too hostile for convergence test")
	}
}

// TestFaultRetryRecoversPanic: a cell whose run panics on the first
// attempt is retried by the supervisor and accepted on the second — the
// panic is contained as a failed attempt, not a crashed process. The zero
// plan injects nothing, so the panic is the only fault.
func TestFaultRetryRecoversPanic(t *testing.T) {
	w := Workload{Packets: 1200, Seed: 4, TargetRate: 6e8}
	tries := 0
	cells := []Cell{{Cfg: Swan(), W: w, Wrap: func(src capture.Source) capture.Source {
		tries++
		if tries == 1 {
			return &panicSource{src: src, after: 5}
		}
		return src
	}}}
	outs, errs := Run(context.Background(), cells, []CellID{{Point: 1, Rep: 0}}, RunOptions{Plan: &faults.Plan{}})
	o := outs[0]
	if errs[0] != nil {
		t.Fatalf("recovered cell carries an error: %v", errs[0])
	}
	if !o.OK || o.Quarantined {
		t.Fatalf("panicking cell not recovered: %+v", o)
	}
	if o.Attempts != 2 {
		t.Fatalf("want 2 attempts (panic, then clean), got %d", o.Attempts)
	}
	if o.BackoffNS != BackoffNS {
		t.Fatalf("one retry paid %g ns of simulated backoff, want %g", o.BackoffNS, float64(BackoffNS))
	}
	if len(o.Log) == 0 || !strings.Contains(o.Log[0], "panicked") {
		t.Fatalf("panic not logged: %q", o.Log)
	}
	want := RunOnce(Swan(), w)
	if !reflect.DeepEqual(o.Stats, want) {
		t.Fatal("recovered run differs from a direct clean run")
	}
}

// TestChaosQuarantineAfterBudget: a sniffer that hangs on every attempt
// exhausts the retry budget and is quarantined; the sweep completes with
// the point marked Degraded instead of deadlocking or aborting.
func TestChaosQuarantineAfterBudget(t *testing.T) {
	plan := &faults.Plan{Seed: 1, PHang: 1}
	w := Workload{Packets: 1000, Seed: 2}
	outs, errs := Run(
		context.Background(), []Cell{{Cfg: Swan(), W: w}}, []CellID{{Point: 9, Rep: 0}}, RunOptions{Plan: plan})
	o := outs[0]
	if o.OK || !o.Quarantined || errs[0] != nil {
		t.Fatalf("always-hanging cell not quarantined: %+v (err %v)", o, errs[0])
	}
	if o.Attempts != RetryBudget+1 {
		t.Fatalf("want budget+1 = %d attempts, got %d", RetryBudget+1, o.Attempts)
	}
	if want := BackoffNS * float64(int(1)<<RetryBudget-1); o.BackoffNS != want {
		t.Fatalf("backoff %g ns over the budget, want %g (doubling per retry)", o.BackoffNS, want)
	}
	if o.Stats.Generated != 0 {
		t.Fatalf("hung sniffer returned statistics: %+v", o.Stats)
	}

	// The dead-sniffer case at sweep level: the other three systems keep
	// measuring, the hung one's points are Degraded with zero rate.
	series, _ := Sweep(context.Background(), RateGrid([]capture.Config{Swan(), Moorhen()}, []float64{400}, w, 2),
		RunOptions{Workers: 2, Plan: plan})
	for _, s := range series {
		p := s.Points[0]
		if !p.Degraded || p.Quarantined != 2 || p.Rate != 0 || p.Attempts != 2*(RetryBudget+1) {
			t.Fatalf("%s: all-hang point = %+v", s.System, p)
		}
	}
}

// TestChaosDegradedLegBooksFaultLoss: a persistently degraded splitter leg
// is accepted after the retry budget with the withheld frames booked under
// fault-splitter, so packet conservation against the switch's ground truth
// still holds.
func TestChaosDegradedLegBooksFaultLoss(t *testing.T) {
	plan := &faults.Plan{Seed: 6, PLegLoss: 1, LegLossRatio: 0.05}
	w := Workload{Packets: 2000, Seed: 8, TargetRate: 4e8}
	outs, _ := Run(
		context.Background(), []Cell{{Cfg: Moorhen(), W: w}}, []CellID{{Point: 4, Rep: 1}}, RunOptions{Plan: plan})
	o := outs[0]
	if !o.OK || !o.Degraded {
		t.Fatalf("lossy-leg cell not accepted as degraded: %+v", o)
	}
	booked := o.Stats.Ledger.Drops[capture.CauseFaultSplitter]
	if booked.Packets == 0 {
		t.Fatal("no frames booked under fault-splitter")
	}
	if err := o.Stats.CheckConservation(); err != nil {
		t.Fatalf("conservation broken on degraded leg: %v", err)
	}
	// Generated must be normalized back to the switch's count.
	clean := RunOnce(Moorhen(), w)
	if o.Stats.Generated != clean.Generated {
		t.Fatalf("degraded Generated %d != switch count %d", o.Stats.Generated, clean.Generated)
	}
}

// TestChaosFormat: the -chaos companion table renders the bookkeeping.
func TestChaosFormat(t *testing.T) {
	series := []Series{{System: "swan", Points: []Point{{
		X: 200, Attempts: 5, Quarantined: 1, Rejected: 1, Degraded: true,
		FaultLog: "rep0.0 swan:sniffer-hang",
	}}}}
	out := FormatChaos(series)
	for _, want := range []string{"swan", "DEGRADED", "sniffer-hang", "5\t1\t1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatChaos missing %q:\n%s", want, out)
		}
	}
	a, q, r, d := ChaosTotals(series)
	if a != 5 || q != 1 || r != 1 || d != 1 {
		t.Fatalf("ChaosTotals = %d %d %d %d", a, q, r, d)
	}
}
