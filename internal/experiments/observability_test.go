package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
)

// TestWhyFlagAppendsCauses checks the -why plumbing: with Why off the
// output is unchanged; with Why on, the drop-cause table is appended.
func TestWhyFlagAppendsCauses(t *testing.T) {
	for _, id := range []string{"fig6.2-nosmp", "fig6.4-nosmp", "fig6.7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			plain := e.Run(fast())
			o := fast()
			o.Why = true
			withWhy := e.Run(o)
			if !strings.HasPrefix(withWhy, plain) {
				t.Fatalf("-why must only append, not alter the table:\n%s", withWhy)
			}
			if !strings.Contains(withWhy, "# why: drop causes per point") {
				t.Fatalf("-why output missing the cause table:\n%s", withWhy)
			}
		})
	}
}

// TestRecordsConserve checks the -json records: every series experiment
// yields one record per (x, system) point, and dropped+captured packets
// reconcile with the generated count for single-repetition runs.
func TestRecordsConserve(t *testing.T) {
	e, err := Find("fig6.2-nosmp")
	if err != nil {
		t.Fatal(err)
	}
	recs := Records(e, fast())
	if len(recs) != 2*4 { // 2 rates × 4 systems
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for _, r := range recs {
		if r.Experiment != e.ID || r.System == "" || r.Generated == 0 {
			t.Fatalf("malformed record: %+v", r)
		}
		var perApp, shared uint64
		for c := capture.Cause(0); c < capture.NumCauses; c++ {
			if c.Shared() {
				shared += r.Drops.Drops[c].Packets
			} else {
				perApp += r.Drops.Drops[c].Packets
			}
		}
		captured := uint64(r.RatePct / 100 * float64(r.Generated))
		total := captured + perApp + shared
		if diff := int64(total) - int64(r.Generated); diff > 1 || diff < -1 {
			t.Fatalf("record does not conserve (captured %d + drops %d+%d vs generated %d): %+v",
				captured, perApp, shared, r.Generated, r)
		}
		if _, err := json.Marshal(r); err != nil {
			t.Fatalf("record not marshalable: %v", err)
		}
	}
}

// TestRecordsNilForTextOnly: experiments without a series form yield no
// records (the -json mode skips them).
func TestRecordsNilForTextOnly(t *testing.T) {
	e, err := Find("fig4.1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Series != nil {
		t.Fatal("fig4.1 should have no series form")
	}
	if recs := Records(e, fast()); recs != nil {
		t.Fatalf("text-only experiment produced %d records", len(recs))
	}
}

// TestWhyAndJSONGolden locks the -why table and the NDJSON record stream
// of a small deterministic sweep against golden files.
func TestWhyAndJSONGolden(t *testing.T) {
	e, err := Find("fig6.2-nosmp")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Packets: 3000, Reps: 1, Seed: 1, Rates: []float64{300, 900}, Why: true}

	var jsonOut strings.Builder
	enc := json.NewEncoder(&jsonOut)
	for _, r := range Records(e, o) {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range map[string]string{
		"why.golden":  e.Run(o),
		"json.golden": jsonOut.String(),
	} {
		golden := filepath.Join("testdata", name)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if got != string(want) {
			t.Fatalf("%s drifted:\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

// TestChaosGolden locks the -chaos output of the three sweep shapes (rate
// sweep, buffer sweep, multi-app) against a golden file: the rendered
// table with its chaos bookkeeping, the buffered NDJSON records, and the
// streamed NDJSON rows the -json writer builds from EventPoint events.
// The run is parallel, so the point stream's head-of-line sequencing is
// part of what is pinned.
func TestChaosGolden(t *testing.T) {
	var got strings.Builder
	for _, id := range []string{"fig6.2-nosmp", "fig6.4-nosmp", "fig6.7"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Chaos: 7, Packets: 2000, Reps: 3, Parallelism: 2}
		got.WriteString("==== " + id + " table ====\n")
		got.WriteString(e.Run(o))

		var stream strings.Builder
		streamEnc := json.NewEncoder(&stream)
		var mu sync.Mutex
		o.Observer = core.ObserverFunc(func(ev core.Event) {
			if ev.Kind != core.EventPoint || ev.Agg == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if err := streamEnc.Encode(PointRecord(ev.Experiment, *ev.Agg)); err != nil {
				t.Error(err)
			}
		})
		got.WriteString("==== " + id + " records ====\n")
		enc := json.NewEncoder(&got)
		for _, r := range Records(e, o) {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		got.WriteString("==== " + id + " stream ====\n")
		got.WriteString(stream.String())
	}

	golden := filepath.Join("testdata", "chaos.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("chaos.golden drifted:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
