package experiments

import (
	"strings"
	"testing"
)

// fast options keep the full experiment suite testable.
func fast() Options {
	return Options{Packets: 4000, Reps: 1, Seed: 1, Rates: []float64{300, 900}}
}

func TestAllExperimentsRun(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("incomplete experiment definition: %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			out := e.Run(fast())
			if len(out) == 0 {
				t.Fatal("empty output")
			}
			if !strings.Contains(out, "\n") {
				t.Fatalf("output is not a table: %q", out)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("fig6.3-smp"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestExperimentIndexCoversPaper pins that every evaluation figure of the
// thesis has an experiment.
func TestExperimentIndexCoversPaper(t *testing.T) {
	want := []string{
		"Figure 4.1", "Figure 4.2", "Figure 6.2", "Figure 6.3", "Figure 6.4",
		"Figure 6.6", "Figure 6.7", "Figure 6.8", "Figure 6.9", "Figure 6.10",
		"Figure 6.11", "Figure 6.12", "Figure 6.13", "Figure 6.14",
		"Figure 6.15", "Figure 6.16", "Figure B.1", "Figure B.2", "Figure B.3",
	}
	var all strings.Builder
	for _, e := range All() {
		all.WriteString(e.Paper + "\n")
	}
	for _, w := range want {
		if !strings.Contains(all.String(), w) {
			t.Errorf("no experiment covers %s", w)
		}
	}
}

// TestParallelSweepDeterminism pins the engine's hard invariant at the
// experiment level: a representative sweep renders byte-identical output
// for Parallelism 0 (serial), 1, 4 and 8.
func TestParallelSweepDeterminism(t *testing.T) {
	for _, id := range []string{"fig6.2-smp", "fig6.7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Packets: 2000, Reps: 2, Seed: 1, Rates: []float64{200, 600, 950}}
			var want string
			for _, p := range []int{0, 1, 4, 8} {
				o.Parallelism = p
				got := e.Run(o)
				if p == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("Parallelism=%d output differs from serial:\n%s\nvs\n%s", p, got, want)
				}
			}
		})
	}
}

// TestModernSweepDeterminism pins the modern-stack sweep's determinism
// across parallelism levels, and that the sweep still produces points in
// every cell under -chaos (fault supervision validates conservation,
// including the new rss-ring / poll-budget / umem-fill / pcie-bus causes).
func TestModernSweepDeterminism(t *testing.T) {
	e, err := Find("ext-modern")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Packets: 2000, Reps: 1, Seed: 1, Rings: []int{2}}
	var want string
	for _, p := range []int{0, 3} {
		o.Parallelism = p
		got := e.Run(o)
		if p == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Parallelism=%d output differs from serial:\n%s\nvs\n%s", p, got, want)
		}
	}

	for _, chaos := range []uint64{0, 7} {
		o.Chaos = chaos
		o.Parallelism = 0
		for _, s := range e.Series(o) {
			for _, pt := range s.Points {
				if pt.Generated == 0 {
					t.Fatalf("chaos=%d %s@%g: no packets", chaos, s.System, pt.X)
				}
			}
		}
	}
}
