package cpuprof

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/pktgen"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runSampled(t *testing.T, os capture.OS) (*Sampler, capture.Stats) {
	t.Helper()
	cfg := capture.Config{
		Name: "t", Arch: arch.Opteron244(), OS: os,
		NumCPUs: 2, BufferBytes: 4 << 20,
	}
	cfg.Costs = capture.DefaultCosts()
	cfg.Costs.HousekeepNS = 0
	sys := capture.NewSystem(cfg)
	sp := Attach(sys, 5*sim.Millisecond)
	d, err := dist.Build(trace.MWNCounts(100000), dist.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g := pktgen.New(1)
	g.Config.Count = 20000
	g.Config.TargetRate = 600e6
	g.LoadDistribution(d)
	st := sys.Run(g)
	return sp, st
}

func TestSamplerCollectsPlausibleSamples(t *testing.T) {
	sp, st := runSampled(t, capture.FreeBSD)
	if len(sp.Samples) < 10 {
		t.Fatalf("only %d samples", len(sp.Samples))
	}
	for _, s := range sp.Samples {
		total := s.User + s.Sys + s.Soft + s.Intr + s.Idle
		if total < 99.0 || total > 101.0 {
			t.Fatalf("sample does not sum to 100: %+v", s)
		}
		if s.Idle < -0.01 || s.User < -0.01 || s.Intr < -0.01 {
			t.Fatalf("negative state: %+v", s)
		}
	}
	// The sampler's busy average must agree with the run's CPU usage.
	if got, want := Busy(Trim(sp.Samples, 99.9)), st.CPUUsage(); math.Abs(got-want) > 12 {
		t.Fatalf("sampled busy %.1f%% vs stats %.1f%%", got, want)
	}
	// FreeBSD does its capture work in interrupt context.
	sum := Summarize(sp.Samples)
	if sum.Avg.Intr <= 0 {
		t.Fatal("no interrupt time sampled on FreeBSD")
	}
}

func TestLinuxShowsSoftirqTime(t *testing.T) {
	sp, _ := runSampled(t, capture.Linux)
	sum := Summarize(sp.Samples)
	if sum.Avg.Soft <= 0 {
		t.Fatal("no softirq time sampled on Linux")
	}
	if sum.Avg.User <= 0 {
		t.Fatal("no user time sampled")
	}
}

// TestPollModeCoresStayPegged: a poll-mode system's PMD cores spin in
// softirq for as long as the run lasts, drained or not. The one sample
// here spans the whole run, including the idle tail after the system is
// quiescent, and must still show every PMD core pegged: this is what
// `cpusage -system osprey` reports.
func TestPollModeCoresStayPegged(t *testing.T) {
	w := core.Workload{Packets: 2000, TargetRate: 2e9, Seed: 1,
		Flows: 256, LineRate: 100e9, GenCostNS: 20}
	sys := capture.NewSystem(core.Prepare(core.Osprey(), w))
	sp := Attach(sys, 100*sim.Millisecond)
	st := sys.Run(w.Generator())
	if len(sp.Samples) != 1 || sp.Samples[0].At <= st.WallTime {
		t.Fatalf("want one sample reaching past generation (%v), got %+v", st.WallTime, sp.Samples)
	}
	pegged := 100 * float64(sys.RXRings) / float64(st.CPUCount)
	if got := sp.Samples[0].Soft; math.Abs(got-pegged) > 0.1 {
		t.Fatalf("softirq share %.2f%%, want the %d PMD cores of %d pegged (%.2f%%)",
			got, sys.RXRings, st.CPUCount, pegged)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	samples := []Sample{
		{User: 10.5, Sys: 5.1, Soft: 2.0, Intr: 12.4, Idle: 70.0},
		{User: 50.0, Sys: 10.0, Soft: 5.0, Intr: 20.0, Idle: 15.0},
	}
	for _, os := range []capture.OS{capture.Linux, capture.FreeBSD} {
		var buf bytes.Buffer
		if err := Write(&buf, samples, os, true); err != nil {
			t.Fatal(err)
		}
		got, gotOS, err := Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotOS != os {
			t.Fatalf("parsed OS = %v, want %v", gotOS, os)
		}
		if len(got) != len(samples) {
			t.Fatalf("parsed %d samples", len(got))
		}
		for i := range got {
			if math.Abs(got[i].User-samples[i].User) > 0.05 ||
				math.Abs(got[i].Intr-samples[i].Intr) > 0.05 ||
				math.Abs(got[i].Idle-samples[i].Idle) > 0.05 {
				t.Fatalf("sample %d: %+v != %+v", i, got[i], samples[i])
			}
			if os == capture.Linux && math.Abs(got[i].Soft-samples[i].Soft) > 0.05 {
				t.Fatalf("softirq lost: %+v", got[i])
			}
		}
	}
}

func TestParseIgnoresDecorations(t *testing.T) {
	in := "---\nMin ignored\n10.0:0.0:5.0:60.0:0.0:15.0:10.0\nAvg ignored\n"
	got, os, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if os != capture.Linux || len(got) != 1 {
		t.Fatalf("parse = %v, %d samples", os, len(got))
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := Parse(strings.NewReader("1:2:3\n")); err == nil {
		t.Fatal("3-field line accepted")
	}
	if _, _, err := Parse(strings.NewReader("a:b:c:d:e\n")); err == nil {
		t.Fatal("non-numeric line accepted")
	}
}

func TestTrimFindsLongestBusyRun(t *testing.T) {
	mk := func(idles ...float64) []Sample {
		out := make([]Sample, len(idles))
		for i, v := range idles {
			out[i] = Sample{Idle: v, User: 100 - v}
		}
		return out
	}
	samples := mk(99, 99, 50, 40, 99, 30, 20, 10, 99, 99)
	got := Trim(samples, 95)
	if len(got) != 3 || got[0].Idle != 30 {
		t.Fatalf("trim = %+v, want the 30/20/10 run", got)
	}
	// All idle: empty result.
	if got := Trim(mk(99, 99), 95); len(got) != 0 {
		t.Fatalf("trim of idle log = %d samples", len(got))
	}
	// All busy: everything.
	if got := Trim(mk(10, 20, 30), 95); len(got) != 3 {
		t.Fatalf("trim of busy log = %d samples", len(got))
	}
}

// Property: Trim returns a contiguous subsequence whose every idle value is
// under the limit, and no longer qualifying run exists.
func TestTrimProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		samples := make([]Sample, len(raw))
		for i, v := range raw {
			samples[i] = Sample{Idle: float64(v % 101)}
		}
		const limit = 95
		got := Trim(samples, limit)
		for _, s := range got {
			if s.Idle >= limit {
				return false
			}
		}
		// Verify maximality by scanning.
		best := 0
		cur := 0
		for _, s := range samples {
			if s.Idle < limit {
				cur++
				if cur > best {
					best = cur
				}
			} else {
				cur = 0
			}
		}
		return len(got) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]Sample{
		{User: 10, Idle: 90},
		{User: 30, Idle: 70},
	})
	if s.Min.User != 10 || s.Max.User != 30 || s.Avg.User != 20 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Avg.Idle != 80 {
		t.Fatalf("avg idle = %v", s.Avg.Idle)
	}
	empty := Summarize(nil)
	if empty.Avg.User != 0 {
		t.Fatal("empty summary should be zero")
	}
}
