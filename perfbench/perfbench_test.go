package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
)

// tiny runs a workload at a small size: one untraced pass and the traced
// pass, with the per-layer attribution.
func tiny(t *testing.T, name string) *tinyResult {
	t.Helper()
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.ndjson")
	res, err := run(config{
		workload: name, seed: 3, packets: 1000, reps: 1, minPasses: 1, trace: true,
		golden: "../results_full.txt", tmp: dir, traceOut: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &tinyResult{res, spans}
}

type tinyResult struct {
	*result
	spanFile string
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := tiny(t, w.name)
			attempted, failed := res.chk.counts()
			if attempted == 0 || failed != 0 || res.chk.failFrac() != 0 {
				t.Fatalf("gate: %d of %d checks failed: %v", failed, attempted, res.chk.notes)
			}
			for traced, specs := range map[bool][]metricSpec{false: endToEnd, true: perLayer} {
				line, err := res.jsonLine(traced)
				if err != nil {
					t.Fatal(err)
				}
				var jr jsonResult
				if err := json.Unmarshal([]byte(line), &jr); err != nil {
					t.Fatal(err)
				}
				if !jr.Correct || jr.Attempted != attempted || jr.Failed != 0 {
					t.Errorf("result line %+v", jr)
				}
				if len(jr.Metrics) != len(specs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(jr.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := jr.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
			}
			var report strings.Builder
			res.report(&report, config{trace: true})
			for _, s := range append(append(append([]metricSpec(nil), endToEnd...), reportOnly...), perLayer...) {
				if !strings.Contains(report.String(), s.name+" ") {
					t.Errorf("report lacks %s", s.name)
				}
			}
			if fi, err := os.Stat(res.spanFile); err != nil || fi.Size() == 0 {
				t.Errorf("span file %s: %v", res.spanFile, err)
			}
		})
	}
}

func TestSpanFileAndLayers(t *testing.T) {
	res := tiny(t, "campaign")
	m := res.layers
	for _, name := range []string{"journal.appends", "monitor.events", "dispatch.leases", "capture.linux.ns_per_pkt", "capture.bsd.ns_per_pkt"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v on campaign, want > 0", name, m[name])
		}
	}
	if m["journal.appends"] != float64(res.cells) {
		t.Errorf("journal.appends = %v, want one per cell (%d)", m["journal.appends"], res.cells)
	}
	for _, name := range []string{"capture.poll.ns_per_pkt", "bpf.ns_per_run"} {
		if m[name] != 0 {
			t.Errorf("%s = %v on campaign, want 0 (layer unused)", name, m[name])
		}
	}
	names := map[string]bool{}
	for _, s := range res.traced.tr.spans {
		if s.End < s.Start || s.ID == 0 {
			t.Fatalf("bad span %+v", s)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"experiment.run", "dispatch.execute", "dispatch.lease", "dispatch.complete",
		"journal.record", "journal.lookup", "journal.replay", "monitor.publish"} {
		if !names[want] {
			t.Errorf("no %s span", want)
		}
	}
}

func TestSweepSpans(t *testing.T) {
	res := tiny(t, "thesis-sweep")
	names := map[string]int{}
	for _, s := range res.traced.tr.spans {
		names[s.Name]++
	}
	if names["cell"] != res.cells || names["pktgen.feed"] != res.cells {
		t.Errorf("spans %v for %d cells", names, res.cells)
	}
	if names["capture.linux.run"]+names["capture.bsd.run"] != res.cells {
		t.Errorf("capture spans %v for %d cells", names, res.cells)
	}
	if res.layers["bpf.ns_per_run"] <= 0 || res.layers["bpf.instr_per_run"] <= 0 {
		t.Errorf("bpf layer unmeasured: %v %v", res.layers["bpf.ns_per_run"], res.layers["bpf.instr_per_run"])
	}
	if res.layers["capture.rss.ns_per_pkt"] != 0 {
		t.Errorf("rss path measured on the 2005 sweep")
	}
}

// cellStats is one real cell's statistics, whose books balance.
func cellStats(t *testing.T) capture.Stats {
	t.Helper()
	st := core.RunOnce(core.Swan(), core.Workload{Packets: 2000, Seed: 1, TargetRate: 900e6})
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestConservationViolationIsCounted(t *testing.T) {
	st := cellStats(t)
	var c checker
	c.conservation("balanced", &st)
	if c.failFrac() != 0 {
		t.Fatalf("balanced books counted as failed: %v", c.notes)
	}
	st.Ledger.Drops[capture.CauseRcvbuf].Packets++
	c.conservation("off by one", &st)
	attempted, failed := c.counts()
	if attempted != 2 || failed != 1 || c.failFrac() != 0.5 {
		t.Fatalf("attempted %d failed %d fail_frac %v, want 2 1 0.5", attempted, failed, c.failFrac())
	}
}

func TestRenderMismatchIsCounted(t *testing.T) {
	want := "# x\tswan:rate%\n50\t 99.99\n"
	got := []byte(want)
	got[len(got)-2] = '8'
	var c checker
	c.sameText("same", want, want)
	c.sameText("one byte", want, string(got))
	attempted, failed := c.counts()
	if attempted != 2 || failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 1", attempted, failed)
	}
	if !strings.Contains(c.notes[0], "at byte 23 ") {
		t.Errorf("note %q does not locate the differing byte", c.notes[0])
	}
}

func TestGoldenSection(t *testing.T) {
	sec, err := goldenSection("../results_full.txt", "fig6.2-smp")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sec, "# capturing rate and CPU usage vs data rate") || !strings.HasSuffix(sec, "\n\n") {
		t.Errorf("section %q", sec)
	}
	if _, err := goldenSection("../results_full.txt", "no-such-id"); err == nil {
		t.Error("missing section not reported")
	}
}

var update = flag.Bool("update", false, "rewrite the stored reference renders in testdata")

// TestReferenceRenders renders each workload at seed 1 and its own size
// through the plain engine and compares the tables with the stored
// references the gate uses. With -update it rewrites them instead; do
// that only for a change that is meant to alter simulated results.
func TestReferenceRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweeps")
	}
	for _, w := range workloads {
		texts, err := runExperiments(w.ids, w.options(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			for _, id := range w.ids {
				path := referencePath(w.name, id)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(texts[id]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		res := &result{w: w, chk: &checker{}}
		res.checkReference(texts)
		if attempted, failed := res.chk.counts(); attempted != len(w.ids) || failed != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, failed, attempted, res.chk.notes)
		}
	}
}

// TestReferenceMismatchIsCounted shows the reference check is live: a
// render one byte off its stored reference counts as a failure.
func TestReferenceMismatchIsCounted(t *testing.T) {
	w := workloads[0]
	texts := map[string]string{}
	for _, id := range w.ids {
		ref, err := reference(w.name, id)
		if err != nil {
			t.Fatal(err)
		}
		texts[id] = ref
	}
	b := []byte(texts[w.ids[0]])
	b[len(b)/2] ^= 1
	texts[w.ids[0]] = string(b)
	res := &result{w: w, chk: &checker{}}
	res.checkReference(texts)
	if attempted, failed := res.chk.counts(); attempted != len(w.ids) || failed != 1 {
		t.Fatalf("attempted %d failed %d, want %d 1", attempted, failed, len(w.ids))
	}
}

// TestGoldenOptions runs the sweeps at results_full.txt's own options, so
// the gate compares their tables with that file byte for byte.
func TestGoldenOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweeps")
	}
	for _, name := range []string{"thesis-sweep", "modern-sweep"} {
		res, err := run(config{workload: name, seed: 1, packets: 40000, minPasses: 1,
			golden: "../results_full.txt", tmp: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !goldenApplies(res.o) {
			t.Fatalf("%s: options %+v are not results_full.txt's", name, res.o)
		}
		if attempted, failed := res.chk.counts(); failed != 0 {
			t.Fatalf("%s: %d of %d checks failed: %v", name, failed, attempted, res.chk.notes)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's definitions of
// workloads and metrics in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, code has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, s := range want {
			if got[i].Name != s.name || got[i].Unit != s.unit || got[i].Better != s.better {
				t.Errorf("%s %d: %+v, code has %+v", kind, i, got[i], s)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errs strings.Builder
	if code := realMain([]string{"--workload", "nope"}, &out, &errs); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
