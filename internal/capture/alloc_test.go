package capture_test

import (
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
)

// receivePaths pairs each receive path with its named system and a
// recorded train that loads it: the 2005 stacks at 900 Mbit/s on GigE,
// the modern ones at 40 Gbit/s of 256 flows on a 100G link. Every system
// runs 4 applications, so the per-application fan-out is on the path.
func receivePaths(packets int) []struct {
	name string
	cfg  capture.Config
	feed *core.Feed
} {
	legacy := core.RecordFeed(core.Workload{Packets: packets, TargetRate: 900e6, Seed: 3})
	modern := core.RecordFeed(core.Workload{Packets: packets, TargetRate: 40e9, Seed: 3,
		Flows: 256, LineRate: 100e9, GenCostNS: 20})
	paths := []struct {
		name string
		cfg  capture.Config
		feed *core.Feed
	}{
		{"linux", core.Swan(), legacy},
		{"bsd", core.Moorhen(), legacy},
		{"rss", core.Heron(), modern},
		{"poll", core.Osprey(), modern},
		{"xdp", core.Kite(), modern},
	}
	for i := range paths {
		paths[i].cfg.NumApps = 4
		paths[i].cfg = core.Prepare(paths[i].cfg, paths[i].feed.Workload)
	}
	return paths
}

// TestSteadyStateAllocsPerPacket is the allocation budget of the capture
// path: a reused System replaying a recorded train allocates at most one
// heap object per packet on every receive path. Each pipeline stage owns
// its task and buffers, so what remains is per-run bookkeeping (the Stats
// a run returns); a per-packet closure, task or batch slice anywhere on
// the path would blow the budget by an order of magnitude. The count is
// machine-independent.
func TestSteadyStateAllocsPerPacket(t *testing.T) {
	const packets = 4000
	for _, p := range receivePaths(packets) {
		sys := capture.NewSystem(p.cfg)
		src := p.feed.Replay()
		allocs := testing.AllocsPerRun(3, func() {
			if st := sys.RunSource(src); st.Generated != packets {
				t.Fatalf("%s: generated %d of %d", p.name, st.Generated, packets)
			}
		})
		perPkt := allocs / packets
		t.Logf("%s: %.0f allocs per run, %.4f per packet", p.name, allocs, perPkt)
		if perPkt > 1 {
			t.Errorf("%s: %.2f heap objects per packet, budget 1", p.name, perPkt)
		}
	}
}

// BenchmarkCaptureRun times one run of each receive path over a fixed
// recorded train on a reused System — the per-layer rung of the bench
// ladder for the capture stacks, with the train's generation out of the
// loop. One untimed run first sizes the stage buffers and pools, so
// allocs/op counts steady-state runs, not the first run's set-up.
func BenchmarkCaptureRun(b *testing.B) {
	for _, p := range receivePaths(5000) {
		b.Run(p.name, func(b *testing.B) {
			sys := capture.NewSystem(p.cfg)
			src := p.feed.Replay()
			sys.RunSource(src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunSource(src)
			}
		})
	}
}

// TestPollModeEventsPerPacket is the host-cost budget of the poll-mode
// stack: once the system is quiescent after generation, the idle spins
// left until the run's window boundary run as one task per PMD core, so
// on the modern train osprey fires at most twice the simulator events per
// packet of the interrupt-driven heron. Spinning through that tail one
// PollIdleNS at a time costs tens of events per packet.
func TestPollModeEventsPerPacket(t *testing.T) {
	const packets = 5000
	perPkt := map[string]float64{}
	for _, p := range receivePaths(packets) {
		if p.name != "rss" && p.name != "poll" {
			continue
		}
		sys := capture.NewSystem(p.cfg)
		before := sys.Sim.Steps()
		if st := sys.RunSource(p.feed.Replay()); st.Generated != packets {
			t.Fatalf("%s: generated %d of %d", p.name, st.Generated, packets)
		}
		perPkt[p.name] = float64(sys.Sim.Steps()-before) / packets
	}
	t.Logf("events per packet: rss %.2f, poll %.2f", perPkt["rss"], perPkt["poll"])
	if perPkt["poll"] > 2*perPkt["rss"] {
		t.Errorf("poll mode fires %.2f events per packet, budget 2 × rss (%.2f)",
			perPkt["poll"], 2*perPkt["rss"])
	}
}
