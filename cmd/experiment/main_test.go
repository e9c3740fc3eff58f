package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func runBG(args []string, out, errb *bytes.Buffer) int {
	return run(context.Background(), args, out, errb)
}

// TestRunExitCodes pins the documented exit-code contract of run():
// 0 success, 1 runtime failure, 2 usage error, 3 interrupted.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"list", []string{"-list"}, 0},
		{"no mode", nil, 2},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"unknown id", []string{"-id", "nope"}, 1},
		{"json without series", []string{"-id", "fig4.1", "-json"}, 1},
		{"resume without journal", []string{"-id", "fig4.2", "-resume"}, 2},
		{"resume missing journal", []string{"-id", "fig4.2", "-journal", filepath.Join(t.TempDir(), "void"), "-resume"}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if got := runBG(c.args, &out, &errb); got != c.code {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", c.args, got, c.code, errb.String())
			}
		})
	}
}

// TestRunRatesValidation pins the -rates contract: every value must be a
// positive, finite Mbit/s number; anything else is a usage error (exit 2)
// with a diagnostic naming the offending value.
func TestRunRatesValidation(t *testing.T) {
	cases := []struct {
		name  string
		rates string
		code  int
	}{
		{"valid", "300,900", 0},
		{"valid with spaces", " 50 , 950 ", 0},
		{"fractional", "0.5,1.5", 0},
		{"empty element", "300,,900", 2},
		{"non-numeric", "abc", 2},
		{"zero", "0", 2},
		{"negative", "-100", 2},
		{"NaN", "NaN", 2},
		{"plus inf", "Inf", 2},
		{"minus inf", "-Inf", 2},
		{"exponent inf", "1e999", 2},
		{"trailing junk", "300x", 2},
		{"valid then bad", "300,0,900", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := []string{"-id", "fig6.2-smp", "-packets", "500", "-rates", c.rates}
			got := runBG(args, &out, &errb)
			if got != c.code {
				t.Fatalf("-rates %q: exit %d, want %d\nstderr: %s", c.rates, got, c.code, errb.String())
			}
			if c.code == 2 && !strings.Contains(errb.String(), "bad rate") {
				t.Fatalf("-rates %q: missing diagnostic:\n%s", c.rates, errb.String())
			}
		})
	}
}

// TestRunFlushesBufferedOutput: the table must reach the writer even
// though stdout is buffered — the deferred flush is the point of the
// single-exit-point design.
func TestRunFlushesBufferedOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := runBG([]string{"-id", "fig4.2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "top-20 packet sizes") {
		t.Fatalf("table not flushed to stdout:\n%s", out.String())
	}
}

// TestRunUsageDocumentsExitCodes: -h must describe the exit codes.
func TestRunUsageDocumentsExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runBG([]string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("-h exit = %d, want 2", code)
	}
	usage := errb.String()
	for _, want := range []string{
		"Exit codes:", "0  success", "1  runtime failure", "2  usage error",
		"3  interrupted", "-chaos", "-journal", "-resume",
	} {
		if !strings.Contains(usage, want) {
			t.Fatalf("usage missing %q:\n%s", want, usage)
		}
	}
}

// TestRunChaosFlag: -chaos threads through to the experiments layer and
// surfaces the bookkeeping table.
func TestRunChaosFlag(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-id", "fig6.2-nosmp", "-packets", "2000", "-rates", "300,700", "-chaos", "42"}
	if code := runBG(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "# chaos: attempts / quarantined / rejected repetitions per point") {
		t.Fatalf("chaos table missing:\n%s", out.String())
	}
}

// TestRunInterrupted: a cancelled context exits with code 3, emits no
// partial tables, and points at -resume when a journal is in play.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	args := []string{"-id", "fig6.2-smp", "-packets", "2000", "-rates", "300,900"}
	if code := run(ctx, args, &out, &errb); code != exitInterrupted {
		t.Fatalf("cancelled run exit = %d, want %d", code, exitInterrupted)
	}
	if out.Len() != 0 {
		t.Fatalf("interrupted run emitted partial output:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Fatalf("no interrupt notice on stderr:\n%s", errb.String())
	}

	dir := t.TempDir()
	out.Reset()
	errb.Reset()
	if code := run(ctx, append(args, "-journal", dir), &out, &errb); code != exitInterrupted {
		t.Fatalf("cancelled journaled run exit = %d, want %d", code, exitInterrupted)
	}
	if !strings.Contains(errb.String(), "-resume") {
		t.Fatalf("interrupt notice does not point at -resume:\n%s", errb.String())
	}
}

// TestRunJournalResumeByteIdentical is the CLI-level kill-and-resume
// check: a journaled campaign whose journal is torn mid-file (the crash
// shape) resumes to output byte-identical to a clean, unjournaled run —
// with and without chaos.
func TestRunJournalResumeByteIdentical(t *testing.T) {
	for _, chaos := range []string{"0", "7"} {
		args := []string{"-id", "fig6.2-smp", "-packets", "2000", "-reps", "2",
			"-rates", "300,900", "-parallel", "2", "-chaos", chaos}

		var clean, errb bytes.Buffer
		if code := runBG(args, &clean, &errb); code != 0 {
			t.Fatalf("clean run exit %d: %s", code, errb.String())
		}

		dir := t.TempDir()
		var journaled bytes.Buffer
		errb.Reset()
		if code := runBG(append(args, "-journal", dir), &journaled, &errb); code != 0 {
			t.Fatalf("journaled run exit %d: %s", code, errb.String())
		}
		if journaled.String() != clean.String() {
			t.Fatalf("chaos=%s: journaled output differs from clean output", chaos)
		}

		// Crash simulation: tear the journal mid-file.
		path := filepath.Join(dir, "campaign.journal")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}

		var resumed bytes.Buffer
		errb.Reset()
		if code := runBG(append(args, "-journal", dir, "-resume"), &resumed, &errb); code != 0 {
			t.Fatalf("resumed run exit %d: %s", code, errb.String())
		}
		if !strings.Contains(errb.String(), "resuming campaign") {
			t.Fatalf("no resume notice:\n%s", errb.String())
		}
		if !strings.Contains(errb.String(), "torn tail") {
			t.Fatalf("torn tail not reported:\n%s", errb.String())
		}
		if resumed.String() != clean.String() {
			t.Fatalf("chaos=%s: resumed output not byte-identical to clean run", chaos)
		}
	}
}

// TestRunJSONDeterministicAcrossParallelism: the streaming -json writer
// rides the head-of-line-sequenced EventPoint feed, so its NDJSON output
// is byte-identical for any -parallel value — and arrives in the
// canonical x-major order.
func TestRunJSONDeterministicAcrossParallelism(t *testing.T) {
	args := func(workers int) []string {
		return []string{"-id", "fig6.2-smp", "-packets", "2000", "-reps", "2",
			"-rates", "200,600,900", "-parallel", fmt.Sprint(workers), "-json"}
	}
	var serial, par, errb bytes.Buffer
	if code := runBG(args(0), &serial, &errb); code != 0 {
		t.Fatalf("serial exit %d: %s", code, errb.String())
	}
	if code := runBG(args(4), &par, &errb); code != 0 {
		t.Fatalf("parallel exit %d: %s", code, errb.String())
	}
	if serial.String() != par.String() {
		t.Fatalf("-json output differs across -parallel:\n--- serial\n%s\n--- parallel\n%s",
			serial.String(), par.String())
	}
	// Every line is a record; the stream is x-major (all systems at
	// x=200, then 600, then 900).
	var xs []float64
	for _, line := range strings.Split(strings.TrimSpace(serial.String()), "\n") {
		var rec struct {
			X float64 `json:"x"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		xs = append(xs, rec.X)
	}
	nsys := len(xs) / 3
	if nsys == 0 || len(xs) != nsys*3 {
		t.Fatalf("unexpected record count %d", len(xs))
	}
	for i, x := range xs {
		want := []float64{200, 600, 900}[i/nsys]
		if x != want {
			t.Fatalf("record %d has x=%v, want %v: stream not x-major", i, x, want)
		}
	}
}

// syncBuffer is a Writer safe to read while another goroutine writes —
// run() writes stderr from the serve goroutine while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serveURL extracts the monitoring base URL from run's stderr notice,
// polling until the listener is up.
func serveURL(t *testing.T, errb *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := errb.String()
		if i := strings.Index(s, "monitoring at "); i >= 0 {
			rest := s[i+len("monitoring at "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return strings.TrimSpace(rest[:j])
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no monitoring address on stderr:\n%s", errb.String())
	return ""
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestRunServeLifecycle: -serve answers the API while and after a run,
// keeps the process alive once the run completes, and exits 3 on the
// first signal (context cancellation).
func TestRunServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	var errb syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-id", "fig6.2-smp", "-packets", "2000",
			"-rates", "300", "-serve", "127.0.0.1:0"}, &out, &errb)
	}()
	base := serveURL(t, &errb)

	if st, body := httpGet(t, base+"/healthz"); st != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", st, body)
	}
	// Wait for the run to finish; the process keeps serving.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(errb.String(), "still serving") {
		if time.Now().After(deadline) {
			t.Fatalf("run did not reach the serving wait:\n%s", errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, body := httpGet(t, base+"/api/campaigns")
	if !strings.Contains(body, `"id": "live"`) || !strings.Contains(body, `"finished": true`) ||
		!strings.Contains(body, `"fingerprint"`) {
		t.Fatalf("campaign listing after run:\n%s", body)
	}
	if _, m := httpGet(t, base+"/metrics"); !strings.Contains(m, "repro_points_completed_total") ||
		strings.Contains(m, "repro_points_completed_total 0") {
		t.Fatalf("metrics after run:\n%s", m)
	}
	if !strings.Contains(out.String(), "====") {
		t.Fatalf("table not flushed before the serving wait:\n%s", out.String())
	}

	cancel()
	select {
	case c := <-code:
		if c != exitInterrupted {
			t.Fatalf("serve exit = %d, want %d", c, exitInterrupted)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

// TestRunServeStandalone: -serve with no run mode serves a journal
// directory read-only (no truncation of the campaign journal!) until
// interrupted.
func TestRunServeStandalone(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	var errb syncBuffer
	args := []string{"-id", "fig6.2-smp", "-packets", "2000", "-rates", "300", "-journal", dir}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("recording run exit %d: %s", code, errb.String())
	}
	journalPath := filepath.Join(dir, "campaign.journal")
	before, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var serveErr syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-serve", "127.0.0.1:0", "-journal", dir}, io.Discard, &serveErr)
	}()
	base := serveURL(t, &serveErr)

	id := filepath.Base(dir)
	_, body := httpGet(t, base+"/api/campaigns")
	if !strings.Contains(body, `"id": "`+id+`"`) || !strings.Contains(body, `"source": "journal"`) {
		t.Fatalf("standalone campaign listing:\n%s", body)
	}
	if st, cells := httpGet(t, base+"/api/campaigns/"+id+"/cells"); st != 200 || !strings.Contains(cells, `"system"`) {
		t.Fatalf("standalone cells = %d:\n%s", st, cells)
	}

	cancel()
	select {
	case c := <-code:
		if c != exitInterrupted {
			t.Fatalf("standalone serve exit = %d, want %d", c, exitInterrupted)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standalone serve did not exit after cancellation")
	}
	after, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("standalone -serve modified the campaign journal")
	}
}

// TestRunGnuplotAtomic: -gp writes the artifacts atomically and leaves no
// temp files behind.
func TestRunGnuplotAtomic(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-id", "fig6.2-smp", "-packets", "1000", "-rates", "300", "-gp", dir}
	if code := runBG(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("want exactly .dat and .gp, got %v", names)
	}
	for _, want := range []string{"fig6.2-smp.dat", "fig6.2-smp.gp"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing artifact %s (have %v)", want, names)
		}
	}
}

// TestRunProfilingFlags pins the -cpuprofile/-memprofile contract: both
// artifacts exist after the run, are non-empty, parse as gzipped pprof
// protos, and no temp file is left behind (the write is temp + rename).
func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	args := []string{"-id", "fig6.2-smp", "-packets", "2000", "-cpuprofile", cpu, "-memprofile", mem}
	if code := runBG(args, &out, &errb); code != exitOK {
		t.Fatalf("run(%v) = %d, want 0\nstderr: %s", args, code, errb.String())
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: not a gzipped pprof profile (got % x...)", path, data[:min(4, len(data))])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("profile dir has %d entries, want 2 (no temp files left behind): %v", len(entries), entries)
	}
}

// TestRunDistributedFlagConflicts pins the CLI surface of distributed
// mode: every nonsensical flag combination is a usage error (exit 2)
// with a diagnostic naming the conflict, before anything runs.
func TestRunDistributedFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"worker with id", []string{"-worker", "127.0.0.1:1", "-id", "fig6.2-smp"},
			"-worker is exclusive with -list/-all/-id"},
		{"worker with journal", []string{"-worker", "127.0.0.1:1", "-journal", dir},
			"the coordinator owns the -journal"},
		{"worker with serve", []string{"-worker", "127.0.0.1:1", "-serve", "127.0.0.1:0"},
			"-worker cannot also serve"},
		{"worker with coordinator", []string{"-worker", "127.0.0.1:1", "-coordinator", "127.0.0.1:0"},
			"-worker cannot also serve"},
		{"worker with json", []string{"-worker", "127.0.0.1:1", "-json"},
			"-worker produces no output"},
		{"worker with chaos", []string{"-worker", "127.0.0.1:1", "-chaos", "3"},
			"cannot be distributed"},
		{"workers without coordinator", []string{"-id", "fig6.2-smp", "-workers", "2"},
			"-workers requires -coordinator"},
		{"coordinator without journal", []string{"-coordinator", "127.0.0.1:0", "-id", "fig6.2-smp"},
			"-coordinator requires -journal"},
		{"coordinator without mode", []string{"-coordinator", "127.0.0.1:0", "-journal", dir},
			"requires a run mode"},
		{"coordinator with chaos", []string{"-coordinator", "127.0.0.1:0", "-journal", dir,
			"-id", "fig6.2-smp", "-chaos", "3"}, "cannot be distributed"},
		{"coordinator with serve", []string{"-coordinator", "127.0.0.1:0", "-journal", dir,
			"-id", "fig6.2-smp", "-serve", "127.0.0.1:0"}, "drop -serve"},
		{"negative workers", []string{"-coordinator", "127.0.0.1:0", "-journal", dir,
			"-id", "fig6.2-smp", "-workers", "-1"}, "-workers must not be negative"},
		{"netchaos without dispatch", []string{"-id", "fig6.2-smp", "-netchaos", "7"},
			"requires -coordinator or -worker"},
		{"diskchaos without journal", []string{"-id", "fig6.2-smp", "-diskchaos", "9"},
			"requires -journal"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if got := runBG(c.args, &out, &errb); got != exitUsage {
				t.Fatalf("run(%v) = %d, want 2\nstderr: %s", c.args, got, errb.String())
			}
			if !strings.Contains(errb.String(), c.want) {
				t.Fatalf("run(%v): diagnostic missing %q:\n%s", c.args, c.want, errb.String())
			}
		})
	}
}

// TestRunDistributedByteIdentical is the CLI-level distribution check:
// a campaign sharded across an in-process worker pool renders output
// byte-identical to the same campaign run undistributed, and a -resume
// of the finished campaign replays every cell without granting leases.
func TestRunDistributedByteIdentical(t *testing.T) {
	args := []string{"-id", "fig6.2-smp", "-packets", "2000", "-reps", "2",
		"-rates", "300,900", "-parallel", "2"}

	var plain, perrb bytes.Buffer
	if code := runBG(args, &plain, &perrb); code != 0 {
		t.Fatalf("plain run exit %d: %s", code, perrb.String())
	}

	dir := t.TempDir()
	dist := append(args, "-journal", dir, "-coordinator", "127.0.0.1:0", "-workers", "2")
	var out bytes.Buffer
	var errb syncBuffer
	if code := run(context.Background(), dist, &out, &errb); code != 0 {
		t.Fatalf("distributed run exit %d: %s", code, errb.String())
	}
	if out.String() != plain.String() {
		t.Fatalf("distributed output differs from undistributed run:\n--- plain\n%s\n--- distributed\n%s",
			plain.String(), out.String())
	}
	if !strings.Contains(errb.String(), "coordinating at ") {
		t.Fatalf("no coordinator notice on stderr:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "leases granted") {
		t.Fatalf("no dispatch summary on stderr:\n%s", errb.String())
	}

	// Resuming the completed campaign replays everything from the journal:
	// same bytes out, zero leases granted.
	out.Reset()
	var rerrb syncBuffer
	if code := run(context.Background(), append(dist, "-resume"), &out, &rerrb); code != 0 {
		t.Fatalf("resumed distributed run exit %d: %s", code, rerrb.String())
	}
	if out.String() != plain.String() {
		t.Fatal("resumed distributed output not byte-identical to undistributed run")
	}
	if !strings.Contains(rerrb.String(), "resuming campaign") {
		t.Fatalf("no resume notice:\n%s", rerrb.String())
	}
	if strings.Contains(rerrb.String(), "leases granted") {
		t.Fatalf("fully replayed campaign still granted leases:\n%s", rerrb.String())
	}
}

// TestRunChaosByteIdentical: a distributed campaign under seeded network
// AND storage fault injection still produces output byte-identical to a
// plain undistributed run. Chaos only delays, drops, re-dispatches, and
// repairs — it never changes a recorded result. The chaos summary line
// must prove faults were actually injected, or the test is vacuous.
func TestRunChaosByteIdentical(t *testing.T) {
	args := []string{"-id", "fig6.2-smp", "-packets", "2000", "-reps", "2",
		"-rates", "300,900", "-parallel", "2"}

	var plain, perrb bytes.Buffer
	if code := runBG(args, &plain, &perrb); code != 0 {
		t.Fatalf("plain run exit %d: %s", code, perrb.String())
	}

	dir := t.TempDir()
	dist := append(args, "-journal", dir, "-coordinator", "127.0.0.1:0",
		"-workers", "3", "-netchaos", "7", "-diskchaos", "8")
	var out bytes.Buffer
	var errb syncBuffer
	if code := run(context.Background(), dist, &out, &errb); code != 0 {
		t.Fatalf("chaos run exit %d: %s", code, errb.String())
	}
	if out.String() != plain.String() {
		t.Fatalf("chaos-run output differs from undistributed run:\n--- plain\n%s\n--- chaos\n%s",
			plain.String(), out.String())
	}
	var netFaults, fsFaults, repairs int
	for _, line := range strings.Split(errb.String(), "\n") {
		if _, rest, ok := strings.Cut(line, "experiment: chaos: "); ok {
			if n, _ := fmt.Sscanf(rest, "%d network faults injected, %d storage faults injected, %d journal appends repaired",
				&netFaults, &fsFaults, &repairs); n == 3 {
				break
			}
		}
	}
	if netFaults == 0 {
		t.Fatalf("seed 7 injected no network faults — the chaos run proved nothing:\n%s", errb.String())
	}
	if fsFaults == 0 {
		t.Fatalf("seed 8 injected no storage faults — the chaos run proved nothing:\n%s", errb.String())
	}

	// The journal a chaos run leaves behind is a healthy campaign: a
	// chaos-free resume replays every cell and emits the same bytes.
	out.Reset()
	resumeArgs := append(args, "-journal", dir, "-resume")
	var rerrb bytes.Buffer
	if code := runBG(resumeArgs, &out, &rerrb); code != 0 {
		t.Fatalf("post-chaos resume exit %d: %s", code, rerrb.String())
	}
	if out.String() != plain.String() {
		t.Fatal("post-chaos resumed output not byte-identical to undistributed run")
	}
}
