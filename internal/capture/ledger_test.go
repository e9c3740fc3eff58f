package capture

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/filter"
	"repro/internal/pktgen"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestLedgerConservationMatrix checks, for every system under test crossed
// with the thesis's load shapes, that the drop-cause ledger balances the
// books: napps × Generated == Σ Captured + per-app drops + napps × shared
// drops, and that the ledger agrees with the legacy aggregate counters.
func TestLedgerConservationMatrix(t *testing.T) {
	loads := []struct {
		name string
		mod  func(cfg Config) Config
	}{
		{"plain", func(c Config) Config { return c }},
		{"filter", func(c Config) Config { c.Filter = filter.MustCompile("tcp", 1515); return c }},
		{"multiapp", func(c Config) Config { c.NumApps = 3; return c }},
		{"disk", func(c Config) Config { c.Load.WriteFull = true; return c }},
		{"pipe", func(c Config) Config { c.Load.PipeGzip = 3; return c }},
		{"workers", func(c Config) Config { c.Load.Workers = 2; c.Load.ZlibLevel = 3; return c }},
	}
	systems := []Config{
		{Name: "swan", Arch: arch.Opteron244(), OS: Linux},
		{Name: "snipe", Arch: arch.Xeon306(), OS: Linux},
		{Name: "moorhen", Arch: arch.Opteron244(), OS: FreeBSD},
		{Name: "flamingo", Arch: arch.Xeon306(), OS: FreeBSD, KernelCostFactor: 1.9},
	}
	for _, base := range systems {
		for _, ld := range loads {
			for _, ncpu := range []int{1, 2} {
				base, ld, ncpu := base, ld, ncpu
				t.Run(fmt.Sprintf("%s-%s-%dcpu", base.Name, ld.name, ncpu), func(t *testing.T) {
					t.Parallel()
					cfg := ld.mod(base)
					cfg.NumCPUs = ncpu
					sys := NewSystem(scaled(cfg, 6000))
					st := sys.Run(newGen(6000, 900, 11))
					if err := st.CheckConservation(); err != nil {
						t.Fatal(err)
					}
					if st.Truncated {
						t.Fatal("run unexpectedly truncated")
					}
				})
			}
		}
	}
}

// TestFilterRejectionLedger pins that packets a kernel filter rejects are
// booked under the filter cause, not silently vanished.
func TestFilterRejectionLedger(t *testing.T) {
	cfg := moorhenCfg()
	cfg.Filter = filter.MustCompile("tcp", 1515) // generator sends UDP only
	sys := NewSystem(scaled(cfg, 3000))
	st := sys.Run(newGen(3000, 400, 2))
	if st.CapturedTotal() != 0 {
		t.Fatalf("captured %d packets through a rejecting filter", st.CapturedTotal())
	}
	rej := st.Ledger.Drops[CauseFilter]
	if rej.Packets == 0 {
		t.Fatal("no filter rejections in the ledger")
	}
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestModerationDropCause pins that ring overflows during an interrupt-
// moderation window are attributed to moderation, distinct from plain ring
// overflow, and that together they equal the legacy NICDrops counter.
func TestModerationDropCause(t *testing.T) {
	cfg := scaled(moorhenCfg(), 8000)
	cfg.Costs.ModerationDelayNS = 2e6 // 2 ms windows ≫ 256-slot ring @ 900 Mbit/s
	sys := NewSystem(cfg)
	st := sys.Run(newGen(8000, 900, 4))
	mod := st.Ledger.Drops[CauseModeration].Packets
	ring := st.Ledger.Drops[CauseNICRing].Packets
	if mod == 0 {
		t.Fatal("no moderation-window drops despite a 2ms coalescing delay")
	}
	if mod+ring != st.NICDrops {
		t.Fatalf("moderation %d + nic-ring %d != NICDrops %d", mod, ring, st.NICDrops)
	}
	var nicGauge *GaugeStat
	for i := range st.Gauges {
		if st.Gauges[i].Name == "nic-ring" {
			nicGauge = &st.Gauges[i]
		}
	}
	if nicGauge == nil || nicGauge.Episodes == 0 {
		t.Fatalf("nic-ring gauge missing or saw no overflow episode: %+v", st.Gauges)
	}
	if nicGauge.HighWater > nicGauge.Capacity {
		t.Fatalf("nic-ring high water %d above capacity %d", nicGauge.HighWater, nicGauge.Capacity)
	}
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedRunBooksAbandoned is the regression test for the silent
// 600-second safety cap: a livelocked configuration must be flagged as
// truncated, with the packets still in flight booked under 'abandoned' so
// conservation holds, instead of disappearing without trace.
func TestTruncatedRunBooksAbandoned(t *testing.T) {
	cfg := swanCfg()
	cfg.NumCPUs = 1
	cfg = scaled(cfg, 200)
	cfg.Costs.AppPerPktNS = 5e12 // 5000 s per packet: guaranteed livelock
	cfg.Costs.HousekeepNS = 0
	sys := NewSystem(cfg)
	st := sys.Run(newGen(200, 900, 6))
	if !st.Truncated {
		t.Fatal("livelocked run not flagged as truncated")
	}
	ab := st.Ledger.Drops[CauseAbandoned]
	if ab.Packets == 0 {
		t.Fatal("truncated run booked no abandoned packets")
	}
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := st.Explain(); !strings.Contains(got, "TRUNCATED") || !strings.Contains(got, "abandoned") {
		t.Fatalf("Explain does not surface the truncation:\n%s", got)
	}
}

// TestFaultLossConservation pins that injected fault losses booked via
// BookFaultLoss keep the conservation check balanced against the
// ground-truth train length: a run that was offered fewer packets than the
// switch counted must book the difference under a fault-* cause and then
// balance as if the full train had been offered.
func TestFaultLossConservation(t *testing.T) {
	cfg := moorhenCfg()
	cfg.NumApps = 2
	sys := NewSystem(scaled(cfg, 3000))
	st := sys.Run(newGen(2900, 400, 3)) // 100 frames short of the "switch count"
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	st.BookFaultLoss(CauseFaultSplitter, 100, 64000, 12345)
	if st.Generated != 3000 {
		t.Fatalf("Generated = %d after booking, want 3000", st.Generated)
	}
	if !CauseFaultSplitter.Shared() || !CauseFaultGenerator.Shared() {
		t.Fatal("fault causes must be shared (lost before the per-app fan-out)")
	}
	if err := st.CheckConservation(); err != nil {
		t.Fatalf("conservation with booked fault loss: %v", err)
	}
	if d := st.Ledger.Drops[CauseFaultSplitter]; d.Packets != 100 || d.Bytes != 64000 {
		t.Fatalf("fault-splitter record = %+v", d)
	}
	if got := CauseFaultSplitter.String(); got != "fault-splitter" {
		t.Fatalf("cause name = %q", got)
	}
	if got := CauseFaultGenerator.String(); got != "fault-generator" {
		t.Fatalf("cause name = %q", got)
	}
}

// TestSystemReuseIdentical is the regression test for stale per-run state
// (accumulated busy counters and the RunWithArrivals gap index): a reused
// System fed the identical train must report identical Stats. Every
// receive path keeps its pipeline-stage tasks and buffers across runs, so
// the check covers each named system, the ring variants of the Linux
// stack and multi-app fan-out, and a truncated run — packets abandoned in
// every stage, then booked by recordRemnants — followed by a normal one.
func TestSystemReuseIdentical(t *testing.T) {
	cfg := scaled(swanCfg(), 5000)
	gaps := trace.SelfSimilarArrivals(5000, 6000, 16, 1.5, 9)

	fresh := NewSystem(cfg)
	want := fresh.RunWithArrivals(newGen(5000, 800, 7), gaps)

	reused := NewSystem(cfg)
	first := reused.RunWithArrivals(newGen(5000, 800, 7), gaps)
	second := reused.RunWithArrivals(newGen(5000, 800, 7), gaps)

	if !reflect.DeepEqual(want, first) {
		t.Fatalf("first run on reused system differs from fresh system:\n%+v\nvs\n%+v", first, want)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second run on the same System diverged:\n%+v\nvs\n%+v", second, first)
	}
	if err := second.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	legacy := func(packets int) *pktgen.Generator { return newGen(packets, 900, 5) }
	modern := func(packets int) *pktgen.Generator { return newModernGen(packets, 40000, 5) }
	fourApps := swanCfg()
	fourApps.NumApps = 4
	mmap, pfring := swanCfg(), swanCfg()
	mmap.MmapPatch = true
	pfring.PFRing = true
	osprey := modernCfg("osprey", StackPoll, 1)
	osprey.Costs = DefaultCosts()
	// A coarse spin grain keeps the 600 s the truncated run idles through
	// to a few thousand polls.
	osprey.Costs.PollIdleNS = 1e7
	kite4 := modernCfg("kite", StackZeroCopy, 4)
	cases := []struct {
		cfg   Config
		train func(packets int) *pktgen.Generator
	}{
		{Config{Name: "swan", Arch: arch.Opteron244(), OS: Linux}, legacy},
		{Config{Name: "snipe", Arch: arch.Xeon306(), OS: Linux}, legacy},
		{Config{Name: "moorhen", Arch: arch.Opteron244(), OS: FreeBSD}, legacy},
		{Config{Name: "flamingo", Arch: arch.Xeon306(), OS: FreeBSD, KernelCostFactor: 1.9}, legacy},
		{modernCfg("heron", StackRSS, 1), modern},
		{osprey, modern},
		{modernCfg("kite", StackZeroCopy, 1), modern},
		{withName(mmap, "swan-mmap"), legacy},
		{withName(pfring, "swan-pfring"), legacy},
		{withName(fourApps, "swan-4apps"), legacy},
		{withName(kite4, "kite-4apps"), modern},
	}
	for _, c := range cases {
		t.Run(c.cfg.Name, func(t *testing.T) {
			t.Parallel()
			const packets = 3000
			cfg := scaled(c.cfg, packets)
			want := NewSystem(cfg).Run(c.train(packets))

			sys := NewSystem(cfg)
			// A livelocking per-packet load strands packets in every
			// stage until the safety cap truncates the run; housekeeping
			// is off so the capped 600 s stay cheap to simulate.
			sys.Costs.AppPerPktNS = 5e12
			sys.Costs.HousekeepNS = 0
			trunc := sys.Run(c.train(400))
			sys.Costs = cfg.Costs
			if !trunc.Truncated || trunc.Ledger.Drops[CauseAbandoned].Packets == 0 {
				t.Fatalf("livelocked run not truncated with abandoned packets: %+v", trunc.Ledger.Drops[CauseAbandoned])
			}
			if err := trunc.CheckConservation(); err != nil {
				t.Fatalf("truncated run: %v", err)
			}
			for i := 0; i < 2; i++ {
				got := sys.Run(c.train(packets))
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("run %d after the truncated run differs from a fresh system:\n%+v\nvs\n%+v", i+1, got, want)
				}
			}
		})
	}
}

func withName(cfg Config, name string) Config {
	cfg.Name = name
	return cfg
}

// TestExplainGolden locks the Explain() rendering of a deterministic lossy
// run against a golden file.
func TestExplainGolden(t *testing.T) {
	cfg := swanCfg()
	cfg.NumCPUs = 1
	sys := NewSystem(scaled(cfg, 8000))
	st := sys.Run(newGen(8000, 900, 11))
	got := st.Explain()

	golden := filepath.Join("testdata", "explain.golden")
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
		t.Fatalf("Explain drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLedgerJSONRoundTrip: the cause-keyed MarshalJSON form must decode
// back into the identical ledger — the campaign journal replays recorded
// cells through this path and promises byte-identical aggregation.
func TestLedgerJSONRoundTrip(t *testing.T) {
	var l Ledger
	for c := Cause(0); c < NumCauses; c++ {
		l.RecordN(c, int(c)+3, uint64(c)*1000+17, sim.Time(int64(c)*7919+1))
		l.RecordN(c, 1, 40, sim.Time(int64(c)*7919+900))
	}
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	var got Ledger
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != l {
		t.Fatalf("ledger changed across JSON round trip:\n%+v\nvs\n%+v", got, l)
	}

	// A real run's full Stats must round-trip too (ledger, gauges,
	// per-CPU busy arrays — everything aggregation reads).
	sys := NewSystem(scaled(swanCfg(), 6000))
	st := sys.Run(newGen(6000, 900, 3))
	sb, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 Stats
	if err := json.Unmarshal(sb, &st2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("Stats changed across JSON round trip:\n%+v\nvs\n%+v", st, st2)
	}

	// Unknown causes must fail loudly, not silently drop packets.
	if err := json.Unmarshal([]byte(`{"no-such-cause":{"packets":1}}`), &got); err == nil {
		t.Fatal("unknown cause accepted")
	}
}
