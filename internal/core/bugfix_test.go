package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/capture"
)

// TestPrepareIdempotent is the regression test for double time-compression:
// preparing an already prepared config must return it unchanged instead of
// scaling the buffers and time constants a second time.
func TestPrepareIdempotent(t *testing.T) {
	w := Workload{Packets: 40000}
	once := Prepare(Swan(), w)
	twice := Prepare(once, w)
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("Prepare is not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
	if !once.Prepared {
		t.Fatal("Prepare did not mark the config as prepared")
	}
}

// TestPrepareKeepsZeroBytes is the regression test for the scaling floor
// promoting a deliberately-zero capacity to 4096 bytes: zero means the
// feature is unset/disabled and must survive scaling as zero.
func TestPrepareKeepsZeroBytes(t *testing.T) {
	cfg := Swan()
	cfg.Costs = capture.DefaultCosts()
	cfg.Costs.PipeBufBytes = 0
	got := Prepare(cfg, Workload{Packets: 40000})
	if got.Costs.PipeBufBytes != 0 {
		t.Fatalf("zero PipeBufBytes scaled to %d, want 0 preserved", got.Costs.PipeBufBytes)
	}
	if got.Costs.WorkerQueueBytes == 0 {
		t.Fatal("nonzero WorkerQueueBytes lost in scaling")
	}
}

// TestFormatTableRagged is the regression test for the index panic on
// series of unequal length: missing cells must render as blanks.
func TestFormatTableRagged(t *testing.T) {
	series := []Series{
		{System: "a", Points: []Point{{X: 100, Rate: 99, CPU: 10}, {X: 200, Rate: 98, CPU: 20}}},
		{System: "b", Points: []Point{{X: 100, Rate: 97, CPU: 30}}},
	}
	out := FormatTable("ragged", series)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want title + header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "\t     -\t     -") {
		t.Fatalf("missing cell not rendered as blanks: %q", lines[3])
	}
	// Equal-length series must render exactly as before the guard.
	equal := []Series{
		{System: "a", Points: []Point{{X: 100, Rate: 99, CPU: 10}}},
		{System: "b", Points: []Point{{X: 100, Rate: 97, CPU: 30}}},
	}
	want := "# t\n# x\ta:rate%\ta:cpu%\tb:rate%\tb:cpu%\n100\t 99.00\t 10.00\t 97.00\t 30.00\n"
	if got := FormatTable("t", equal); got != want {
		t.Fatalf("equal-length rendering drifted:\ngot  %q\nwant %q", got, want)
	}
}

// TestFormatWhy checks the drop-cause table rendering: per-cause counts in
// declaration order, "-" for lossless points, truncation flagged.
func TestFormatWhy(t *testing.T) {
	var lossy capture.Ledger
	lossy.RecordN(capture.CauseRcvbuf, 5, 300, 10)
	lossy.RecordN(capture.CauseBacklog, 2, 120, 20)
	series := []Series{{System: "a", Points: []Point{
		{X: 100},
		{X: 200, Drops: lossy, Truncated: 1},
	}}}
	out := FormatWhy(series)
	if !strings.Contains(out, "100\ta\t0\t-") {
		t.Fatalf("lossless point not rendered with '-':\n%s", out)
	}
	if !strings.Contains(out, "200\ta\t7\tbacklog=2 rcvbuf=5 [truncated x1]") {
		t.Fatalf("lossy point rendering wrong:\n%s", out)
	}
}

// TestAggregatePointMergesLedger checks that per-repetition ledgers and
// truncation flags fold into the plotted point.
func TestAggregatePointMergesLedger(t *testing.T) {
	var l1, l2 capture.Ledger
	l1.RecordN(capture.CauseNICRing, 3, 100, 5)
	l2.RecordN(capture.CauseNICRing, 4, 200, 7)
	runs := []capture.Stats{
		{Generated: 10, AppCaptured: []uint64{7}, Ledger: l1},
		{Generated: 10, AppCaptured: []uint64{6}, Ledger: l2, Truncated: true},
	}
	pt := aggregatePoint("a", 300, []*capture.Stats{&runs[0], &runs[1]})
	if pt.X != 300 || pt.System != "a" {
		t.Fatalf("point identity wrong: %+v", pt)
	}
	if got := pt.Drops.Drops[capture.CauseNICRing].Packets; got != 7 {
		t.Fatalf("merged ledger has %d nic-ring drops, want 7", got)
	}
	if pt.Truncated != 1 {
		t.Fatalf("truncated reps = %d, want 1", pt.Truncated)
	}
}

// TestFormatRate pins the multi-gigabit x-axis rendering: sub-gigabit
// rates keep the historical plain-integer form, whole gigabits compress
// to NG labels, and everything else prints at full precision.
func TestFormatRate(t *testing.T) {
	cases := []struct {
		x    float64
		want string
	}{
		{100, "100"},
		{950, "950"},
		{999, "999"},
		{1000, "1G"},
		{2000, "2G"},
		{10000, "10G"},
		{40000, "40G"},
		{100000, "100G"},
		{2500, "2500"},
		{1024, "1024"},
		{62.5, "62.5"},
	}
	for _, c := range cases {
		if got := FormatRate(c.x); got != c.want {
			t.Errorf("FormatRate(%g) = %q, want %q", c.x, got, c.want)
		}
	}
}

// TestFormatTableMultiGig checks that a 10/40/100G sweep renders without
// precision loss or ragged columns.
func TestFormatTableMultiGig(t *testing.T) {
	series := []Series{
		{System: "heron", Points: []Point{
			{X: 10000, Rate: 100, CPU: 12.5},
			{X: 40000, Rate: 96.2, CPU: 50},
			{X: 100000, Rate: 61.31, CPU: 88},
		}},
	}
	want := "# t\n# x\theron:rate%\theron:cpu%\n" +
		"10G\t100.00\t 12.50\n40G\t 96.20\t 50.00\n100G\t 61.31\t 88.00\n"
	if got := FormatTable("t", series); got != want {
		t.Fatalf("multi-gig rendering:\ngot  %q\nwant %q", got, want)
	}
}

// TestBSDReadTimeoutKeepsArmedWhilePacketInFlight is the regression test
// for a stranded FreeBSD reader: when the generator finished while the
// last packet was still in the NIC ring or the interrupt path, the read
// timeout parked the reader for good, the packet landed in STORE with no
// one left to read it, and the run spun to the simulation safety cap
// (Truncated, the packet abandoned).
func TestBSDReadTimeoutKeepsArmedWhilePacketInFlight(t *testing.T) {
	cfg := Flamingo()
	cfg.NumCPUs = 2
	st := RunOnce(cfg, Workload{Packets: 2000, Seed: 37, TargetRate: 50e6})
	if st.Truncated {
		t.Fatal("run hit the simulation safety cap: reader stranded with a packet in STORE")
	}
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
