package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/capture"
)

func TestSnifferRoster(t *testing.T) {
	s := Sniffers()
	if len(s) != 4 {
		t.Fatalf("%d sniffers, want 4", len(s))
	}
	want := map[string]struct {
		os   capture.OS
		arch string
	}{
		"swan":     {capture.Linux, "AMD Opteron 244"},
		"snipe":    {capture.Linux, "Intel Xeon 3.06"},
		"moorhen":  {capture.FreeBSD, "AMD Opteron 244"},
		"flamingo": {capture.FreeBSD, "Intel Xeon 3.06"},
	}
	for _, cfg := range s {
		w, ok := want[cfg.Name]
		if !ok {
			t.Fatalf("unexpected sniffer %q", cfg.Name)
		}
		if cfg.OS != w.os || cfg.Arch.Name != w.arch {
			t.Fatalf("%s = %v/%s, want %v/%s", cfg.Name, cfg.OS, cfg.Arch.Name, w.os, w.arch)
		}
	}
}

func TestPrepareScaling(t *testing.T) {
	w := Workload{Packets: 100_000} // scale 0.1
	cfg := Swan()
	cfg.BufferBytes = capture.BigLinuxRcvbuf
	p := Prepare(cfg, w)
	if p.BufferBytes != capture.BigLinuxRcvbuf/10 {
		t.Fatalf("buffer = %d, want %d", p.BufferBytes, capture.BigLinuxRcvbuf/10)
	}
	if p.Costs.HousekeepNS != capture.DefaultCosts().HousekeepNS/10 {
		t.Fatalf("housekeeping not scaled: %v", p.Costs.HousekeepNS)
	}
	// Never below the 4 kB floor, never above the 1M-packet original.
	tiny := Prepare(cfg, Workload{Packets: 10})
	if tiny.BufferBytes < 4096 {
		t.Fatalf("buffer scaled below floor: %d", tiny.BufferBytes)
	}
	full := Prepare(cfg, Workload{Packets: 5_000_000})
	if full.BufferBytes != capture.BigLinuxRcvbuf {
		t.Fatalf("oversized run rescaled the buffer: %d", full.BufferBytes)
	}
}

func TestWorkloadGenerator(t *testing.T) {
	g := Workload{Packets: 10, FixedSize: 500, Seed: 3}.Generator()
	p, ok := g.Next()
	if !ok || len(p.Data) != 500 {
		t.Fatalf("fixed-size generator produced %d bytes", len(p.Data))
	}
	g2 := Workload{Packets: 10, Seed: 3}.Generator()
	if !g2.SizeReal() {
		t.Fatal("distribution workload should have PKTSIZE_REAL active")
	}
}

// TestHeadlineOrdering pins the thesis's headline result: "the combination
// of AMD Opterons with FreeBSD outperforms all others, independently of
// running in single or multi processor mode", with flamingo losing the most
// among the FreeBSD systems.
func TestHeadlineOrdering(t *testing.T) {
	w := Workload{Packets: 20000, Seed: 1, TargetRate: 950e6}
	rates := map[string]float64{}
	for _, ncpu := range []int{1, 2} {
		for _, base := range Sniffers() {
			cfg := base
			cfg.NumCPUs = ncpu
			if cfg.OS == capture.Linux {
				cfg.BufferBytes = capture.BigLinuxRcvbuf
			} else {
				cfg.BufferBytes = capture.BigBSDBuffer
			}
			st := RunOnce(cfg, w)
			rates[cfg.Name] = st.CaptureRate()
		}
		if rates["moorhen"] < 98.5 {
			t.Errorf("ncpu=%d: moorhen = %.2f%%, want ≈100%%", ncpu, rates["moorhen"])
		}
		for _, other := range []string{"swan", "snipe", "flamingo"} {
			if rates["moorhen"] < rates[other]-0.5 {
				t.Errorf("ncpu=%d: moorhen (%.2f%%) beaten by %s (%.2f%%)",
					ncpu, rates["moorhen"], other, rates[other])
			}
		}
		if ncpu == 1 && rates["flamingo"] > rates["moorhen"]-5 {
			t.Errorf("single CPU: flamingo (%.2f%%) should lose clearly against moorhen (%.2f%%)",
				rates["flamingo"], rates["moorhen"])
		}
	}
}

// TestBigBuffersHelpLinux pins §6.3.1: larger buffers move the Linux drop
// onset to higher rates ("the data rate where packet drops begin ... can be
// raised from about 225 Mbit/s to about 650 Mbit/s").
func TestBigBuffersHelpLinux(t *testing.T) {
	w := Workload{Packets: 20000, Seed: 1, TargetRate: 450e6}
	def := Swan()
	def.NumCPUs = 1
	stDef := RunOnce(def, w)
	big := def
	big.BufferBytes = capture.BigLinuxRcvbuf
	stBig := RunOnce(big, w)
	if stDef.CaptureRate() >= 99.9 {
		t.Fatalf("default buffers lose nothing at 450 Mbit/s (%.2f%%); onset too late", stDef.CaptureRate())
	}
	if stBig.CaptureRate() < 99.5 {
		t.Fatalf("big buffers still lose at 450 Mbit/s (%.2f%%)", stBig.CaptureRate())
	}
}

// TestDefaultOnsetRegion pins the order of magnitude of the default-buffer
// drop onset (≈225 Mbit/s in the thesis): clearly dropping at 300, still
// nearly complete at 100.
func TestDefaultOnsetRegion(t *testing.T) {
	cfg := Swan()
	cfg.NumCPUs = 1
	lo := RunOnce(cfg, Workload{Packets: 20000, Seed: 1, TargetRate: 100e6})
	hi := RunOnce(cfg, Workload{Packets: 20000, Seed: 1, TargetRate: 300e6})
	if lo.CaptureRate() < 99.5 {
		t.Errorf("default buffers already lose %.2f%% at 100 Mbit/s", 100-lo.CaptureRate())
	}
	if hi.CaptureRate() > 99.5 {
		t.Errorf("default buffers lose nothing at 300 Mbit/s (%.2f%%)", hi.CaptureRate())
	}
}

func TestSweepTableAndDeterminism(t *testing.T) {
	g := RateGrid([]capture.Config{Swan()}, []float64{100, 500}, Workload{Packets: 3000, Seed: 9}, 2)
	s1, _ := Sweep(context.Background(), g, RunOptions{})
	s2, _ := Sweep(context.Background(), g, RunOptions{})
	if len(s1) != 1 || len(s1[0].Points) != 2 {
		t.Fatalf("series shape: %+v", s1)
	}
	for i := range s1[0].Points {
		if s1[0].Points[i] != s2[0].Points[i] {
			t.Fatal("sweep not deterministic")
		}
	}
	p := s1[0].Points[0]
	if p.RateMin > p.Rate || p.Rate > p.RateMax {
		t.Fatalf("aggregation broken: %+v", p)
	}
	tbl := FormatTable("test", s1)
	if !strings.Contains(tbl, "swan:rate%") || !strings.Contains(tbl, "\n100\t") {
		t.Fatalf("table format:\n%s", tbl)
	}
}
