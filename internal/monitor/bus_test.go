package monitor

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestHubFanoutOrder: every subscriber sees every event, in publication
// order, with monotonically increasing sequence numbers.
func TestHubFanoutOrder(t *testing.T) {
	h := NewHub()
	a := h.Subscribe("a", 64)
	b := h.Subscribe("b", 64)
	for i := 0; i < 50; i++ {
		h.Observe(core.Event{Kind: core.EventCell, Rep: i})
	}
	for _, sub := range []*Subscriber{a, b} {
		evs := sub.Events()
		if len(evs) != 50 {
			t.Fatalf("%s: got %d events, want 50", sub.label, len(evs))
		}
		for i, ev := range evs {
			if ev.Rep != i {
				t.Fatalf("%s: event %d has rep %d: reordered", sub.label, i, ev.Rep)
			}
			if ev.Seq != uint64(i+1) {
				t.Fatalf("%s: event %d has seq %d", sub.label, i, ev.Seq)
			}
		}
		if sub.Dropped() != 0 {
			t.Fatalf("%s: dropped %d events from an undersubscribed ring", sub.label, sub.Dropped())
		}
	}
	if h.Published() != 50 {
		t.Fatalf("published = %d", h.Published())
	}
}

// TestHubBackpressure is the bus's central guarantee: a stalled
// subscriber loses events to its bounded ring — oldest first, counted —
// while publishing never blocks and healthy subscribers see everything.
func TestHubBackpressure(t *testing.T) {
	h := NewHub()
	stalled := h.Subscribe("stalled", 8) // never drained
	healthy := h.Subscribe("healthy", 2048)

	const n = 1000
	for i := 0; i < n; i++ {
		h.Observe(core.Event{Kind: core.EventCell, Rep: i})
	}

	if got := len(healthy.Events()); got != n {
		t.Fatalf("healthy subscriber got %d events, want %d", got, n)
	}
	if d := stalled.Dropped(); d != n-8 {
		t.Fatalf("stalled subscriber dropped %d events, want %d", d, n-8)
	}
	// The ring kept the newest events.
	evs := stalled.Events()
	if len(evs) != 8 || evs[0].Rep != n-8 || evs[7].Rep != n-1 {
		t.Fatalf("stalled ring = %d events, first rep %d: want the 8 newest", len(evs), evs[0].Rep)
	}
	// The hub's drop ledger sees it, and keeps it after unsubscribe.
	if d := h.Drops()["stalled"]; d != n-8 {
		t.Fatalf("hub ledger: stalled=%d, want %d", d, n-8)
	}
	h.Unsubscribe(stalled)
	if d := h.Drops()["stalled"]; d != n-8 {
		t.Fatalf("hub ledger after unsubscribe: stalled=%d, want %d", d, n-8)
	}
	if h.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", h.Subscribers())
	}
}

// TestSweepUnaffectedByStalledSubscriber: a parallel sweep with a
// stalled subscriber on the bus completes and produces byte-identical
// results to the same sweep with no observer at all; the lost events
// are counted in the hub's ledger.
func TestSweepUnaffectedByStalledSubscriber(t *testing.T) {
	cfgs := core.Sniffers()[:2]
	rates := []float64{200, 600}
	w := core.Workload{Packets: 2000, Seed: 1}
	ctx := context.Background()

	g := core.RateGrid(cfgs, rates, w, 2)
	plain, _ := core.Sweep(ctx, g, core.RunOptions{Workers: 4, Experiment: "x"})
	want := core.FormatTable("t", plain)

	h := NewHub()
	reg := NewRegistry()
	reg.Attach(h)
	stalled := h.Subscribe("stalled", 2) // never drained
	// A healthy subscriber draining concurrently, as the SSE path does.
	healthy := h.Subscribe("healthy", 64)
	var drained int
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-healthy.Notify():
				drained += len(healthy.Events())
			case <-done:
				drained += len(healthy.Events())
				return
			}
		}
	}()

	observed, _ := core.Sweep(ctx, g, core.RunOptions{Workers: 4, Experiment: "x", Observer: h})
	got := core.FormatTable("t", observed)
	close(done)
	wg.Wait()

	if got != want {
		t.Fatalf("observed sweep diverged from unobserved sweep:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if stalled.Dropped() == 0 {
		t.Fatal("stalled subscriber dropped nothing: ring unbounded?")
	}
	// cells(2 sys × 2 rates × 2 reps) + points(2×2) = 12 events.
	if h.Published() != 12 {
		t.Fatalf("published = %d, want 12", h.Published())
	}
	if drained != 12 {
		t.Fatalf("healthy subscriber drained %d events, want 12", drained)
	}
	c := reg.Counters()
	if c.Cells != 8 || c.Points != 4 {
		t.Fatalf("counters = %+v, want 8 cells / 4 points", c)
	}
}

// TestSweepPointEventsDeterministic: the EventPoint stream is identical
// for serial and parallel execution — the ordering promise behind the
// streaming -json writer.
func TestSweepPointEventsDeterministic(t *testing.T) {
	cfgs := core.Sniffers()
	rates := []float64{100, 500, 900}
	w := core.Workload{Packets: 1500, Seed: 3}

	run := func(workers int) []string {
		var mu sync.Mutex
		var got []string
		obs := core.ObserverFunc(func(ev core.Event) {
			if ev.Kind != core.EventPoint {
				return
			}
			mu.Lock()
			got = append(got, strings.Join([]string{ev.System, formatX(ev.X)}, "@"))
			mu.Unlock()
		})
		core.Sweep(context.Background(), core.RateGrid(cfgs, rates, w, 2),
			core.RunOptions{Workers: workers, Experiment: "x", Observer: obs})
		return got
	}

	serial := run(0)
	parallel := run(8)
	if len(serial) != len(rates)*len(cfgs) {
		t.Fatalf("serial emitted %d points, want %d", len(serial), len(rates)*len(cfgs))
	}
	if strings.Join(serial, " ") != strings.Join(parallel, " ") {
		t.Fatalf("point order differs:\nserial:   %v\nparallel: %v", serial, parallel)
	}
	// Canonical layout: x-major, system order within each x.
	if serial[0] != "swan@100" || serial[1] != "snipe@100" || serial[4] != "swan@500" {
		t.Fatalf("unexpected canonical order: %v", serial)
	}
}

func formatX(x float64) string {
	return fmt.Sprintf("%g", x)
}
