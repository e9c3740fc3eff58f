// Command perfbench is the repository benchmark. It runs one named
// workload of the capture simulator for a fixed measuring time, checks
// that the simulator's outputs are still correct, prints every metric by
// name and unit, and ends with one JSON result line. See README.md.
//
//	perfbench --workload thesis-sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceN int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed (experiments.Options.Seed)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measuring time in seconds")
	fs.IntVar(&traceN, "trace", 0, "1 = print the per-layer metrics of the traced run and write its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceN != 0
	cfg.minPasses = 3
	cfg.tmp = ".bench_build/tmp"
	if cfg.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	if _, ok := findWorkload(cfg.workload); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.trace {
		cfg.traceOut = ".bench_build/perfbench-trace-" + cfg.workload + ".ndjson"
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := bufio.NewWriter(stdout)
	res.report(out, cfg)
	line, err := res.jsonLine(cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, line)
	if err := out.Flush(); err != nil {
		return 1
	}
	attempted, failed := res.chk.counts()
	if failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d checks failed\n", failed, attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonLine is the result line: the end-to-end metrics, or with tracing on
// the per-layer metrics.
func (res *result) jsonLine(traced bool) (string, error) {
	attempted, failed := res.chk.counts()
	jr := jsonResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	specs, values := endToEnd, res.e2e
	if traced {
		specs, values = perLayer, res.layers
	}
	for _, s := range specs {
		jr.Metrics[s.name] = jsonMetric{Value: values[s.name], Unit: s.unit}
	}
	b, err := json.Marshal(jr)
	return string(b), err
}

// report prints the human-readable account of a run.
func (res *result) report(w io.Writer, cfg config) {
	attempted, failed := res.chk.counts()
	fmt.Fprintf(w, "== %s: seed %d, %d packets/cell, %d cells/pass, %d simulated packets/pass, %d untraced passes in %.1f s\n",
		res.w.name, res.o.Seed, res.o.Packets, res.cells, res.pkts, len(res.passes), res.measured.Seconds())
	fmt.Fprintf(w, "   why: %s\n", res.w.why)
	fmt.Fprintln(w, "   end-to-end (median over untraced passes):")
	for _, s := range append(append([]metricSpec(nil), endToEnd...), reportOnly...) {
		v, basis := fmt.Sprintf("%.6g", res.e2e[s.name]), s.basis
		switch {
		case s.name == "fail_frac":
			basis += fmt.Sprintf(" (%d failed / %d checks)", failed, attempted)
		case !res.w.campaign && strings.Contains(s.basis, "campaign only"):
			v = "n/a"
		}
		fmt.Fprintf(w, "   %-22s %-16s %-12s %s\n", s.name, v, s.unit, basis)
	}
	for _, n := range res.chk.notes {
		fmt.Fprintf(w, "   FAILED: %s\n", n)
	}
	t := res.traced
	// A cell that hits the simulation's safety cap runs hundreds of
	// simulated seconds of events, so it can dominate a run's host time;
	// say how many did.
	truncated := 0
	for _, st := range t.stats {
		if st.Truncated {
			truncated++
		}
	}
	fmt.Fprintf(w, "   cells truncated at the simulation safety cap: %d of %d\n", truncated, len(t.stats))
	var walls []float64
	for _, p := range res.passes {
		walls = append(walls, p.use.wall.Seconds())
	}
	fmt.Fprintf(w, "   untraced pass walls, s: %.3f\n", walls)
	fmt.Fprintf(w, "   tracing overhead: traced pass %.3f s − untraced median %.3f s = %+.3f s\n",
		t.wall.Seconds(), median(walls), t.wall.Seconds()-median(walls))
	if !cfg.trace {
		return
	}
	fmt.Fprintln(w, "   per-layer (traced run; 0 = layer unused by this workload):")
	for _, s := range perLayer {
		extra := ""
		switch s.name {
		case "core.feed_hit_frac":
			extra = fmt.Sprintf(" (%d hits / %d Gets)", t.hits, t.hits+t.misses)
		case "bpf.accept_frac":
			extra = fmt.Sprintf(" (%.0f accepted / %.0f runs)", t.attr.bpfAccepted, t.attr.bpfRuns)
		case "dispatch.cells_per_lease":
			extra = fmt.Sprintf(" (%d cells / %d leases)", t.dispatch.completed, t.dispatch.granted)
		}
		fmt.Fprintf(w, "   %-32s %-14.6g %-12s %s%s\n", s.name, res.layers[s.name], s.unit, s.basis, extra)
	}
	fmt.Fprintf(w, "   self time by span of the traced pass (wall %.3f s):\n", t.wall.Seconds())
	fmt.Fprintf(w, "   %-24s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, st := range t.tr.selfTimes() {
		fmt.Fprintf(w, "   %-24s %8d %12.1f %12.1f\n", st.name, st.count, float64(st.total)/1e6, float64(st.self)/1e6)
	}
	if cfg.traceOut != "" {
		fmt.Fprintf(w, "   spans written to %s\n", cfg.traceOut)
	}
}

// runAll runs every workload, each in a child process of its own so that
// peak memory does not carry over from one workload to the next, and ends
// with one JSON line whose metrics are prefixed by the workload name.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	all := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range workloads {
		child := exec.Command(self, append(withoutWorkload(args), "--workload", w.name)...)
		child.Stderr = stderr
		pipe, err := child.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := child.Start(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if last != "" {
				fmt.Fprintln(stdout, last)
			}
			last = sc.Text()
		}
		werr := child.Wait()
		var jr jsonResult
		if err := json.Unmarshal([]byte(last), &jr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: no result (%v)\n", w.name, errors.Join(werr, err))
			return 1
		}
		all.Correct = all.Correct && jr.Correct && werr == nil
		all.Attempted += jr.Attempted
		all.Failed += jr.Failed
		for k, v := range jr.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !all.Correct {
		return 1
	}
	return 0
}

// withoutWorkload drops the --workload flag (either spelling, with its
// value) from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == "workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "workload=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}
