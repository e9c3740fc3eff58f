package capture

import "repro/internal/sim"

// This file implements the three post-2005 receive disciplines on top of
// the RSS multi-queue NIC (nic_rss.go):
//
//   - rssStack: RSS + NAPI. Each ring takes a hardware interrupt, then is
//     drained in polled softirq passes of NapiBudget packets on its own
//     CPU; delivery into per-socket receive buffers and a per-packet copy
//     to user space — the multi-queue evolution of the stock Linux path.
//   - pollStack: a DPDK-style poll-mode driver. One busy-spinning core per
//     ring, no interrupts at all, burst polls of PollBurst packets, and a
//     zero-copy hand-off into per-application rings.
//   - xdpStack: AF_XDP-style zero copy. IRQ-driven XDP passes redirect
//     frames from a shared UMEM pool into per-socket rings; applications
//     are woken once per WakeupBatch packets and read descriptors without
//     copying; frames return to the pool via the completion ring when the
//     read finishes.
//
// All three implement the same `stack` seam as the legacy stacks, so
// applications, policies, chaos, the journal and the monitor compose
// unchanged. Per-application overflows are booked under CauseRcvbuf
// (whatever the ring flavor, it is the application's receive buffer), so
// the conservation cross-check against Stats.AppDrops holds for every
// stack generation.

// msock is one modern per-application receive queue: the PF_PACKET
// socket, poll-mode app ring, or XSK ring feeding application a.
type msock struct {
	app   *App
	queue fifo[kpkt]
	bytes int // rssStack only: rcvbuf byte accounting
	// frames parallels queue for the zero-copy stack: the UMEM frame
	// backing each queued descriptor; reading holds the frames of the read
	// in flight until it completes.
	frames    fifo[int32]
	reading   []int32
	sinceWake int // xdp: packets enqueued since the last wakeup
	gauge     *Gauge
	Drops     uint64
	Enqueued  uint64
}

// mdelivery is one (socket, packet) pair accepted by a filter.
type mdelivery struct {
	sk *msock
	p  kpkt
}

// ringCPU maps RSS ring r onto its servicing CPU.
func (s *System) ringCPU(r int) *sim.CPU {
	return s.Machine.CPUs[r%len(s.Machine.CPUs)]
}

// ringStage is the per-RX-ring pipeline of a modern stack. At most one of
// its two tasks is in flight at a time: kick (the ring's rx-irq, or a
// poll-mode idle spin) or pass (a NAPI, XDP or PMD service pass). batch is
// the pass's packets, still in flight until the pass completes; delivers
// and the reject tally are what the pass applies then.
type ringStage struct {
	r           int
	on          bool // IRQ taken or polled passes scheduled (rss, xdp)
	kick        sim.Task
	pass        sim.Task
	batch       []kpkt
	delivers    []mdelivery
	rejects     int
	rejectBytes uint64
}

// newRingStages builds one stage per ring with the given task names; the
// caller binds the OnDone callbacks.
func newRingStages(nrings int, kick, pass string, kickPrio sim.Prio) []*ringStage {
	rs := make([]*ringStage, nrings)
	for r := range rs {
		rs[r] = &ringStage{r: r,
			kick: sim.Task{Name: kick, Prio: kickPrio},
			pass: sim.Task{Name: pass, Prio: sim.PrioSoftIRQ},
		}
	}
	return rs
}

func resetRingStages(rs []*ringStage) {
	for _, g := range rs {
		g.on = false
		g.batch = g.batch[:0]
	}
}

func ringsPending(rs []*ringStage) bool {
	for _, g := range rs {
		if len(g.batch) > 0 || g.on {
			return true
		}
	}
	return false
}

func ringRemnants(rs []*ringStage) (shared []kpkt) {
	for _, g := range rs {
		shared = append(shared, g.batch...)
	}
	return shared
}

// startPass takes up to max packets off the stage's ring for a service
// pass and clears the pass's delivery buffers; it reports whether the
// ring had any packet.
func (g *ringStage) startPass(s *System, max int) bool {
	g.batch = s.rss.popBurst(g.r, max, g.batch[:0])
	g.delivers = g.delivers[:0]
	g.rejects, g.rejectBytes = 0, 0
	return len(g.batch) > 0
}

// submitPass prices and submits the stage's service pass.
func (g *ringStage) submitPass(s *System, fixed float64) {
	g.pass.FixedNS = s.kfixed(fixed)
	s.ringCPU(g.r).Submit(&g.pass)
}

// ---------------------------------------------------------------------------
// RSS + NAPI

type rssStack struct {
	sys   *System
	rings []*ringStage
	socks []*msock
}

func newRSSStack(s *System, nrings int) *rssStack {
	st := &rssStack{sys: s, rings: newRingStages(nrings, "rx-irq", "napi-poll", sim.PrioHardIRQ)}
	for _, g := range st.rings {
		g.kick.FixedNS = s.kfixed(s.Costs.IRQEntryNS)
		g.kick.OnDone = func() { st.servicePass(g) }
		g.pass.OnDone = func() { st.passDone(g) }
	}
	for i, a := range s.apps {
		st.socks = append(st.socks, &msock{app: a, gauge: s.newGauge("rcvbuf", i, s.BufferBytes)})
		a.read.OnDone = func() {
			a.completeRead()
			st.appStart(a)
		}
	}
	return st
}

func (st *rssStack) reset() {
	resetRingStages(st.rings)
	resetSocks(st.socks)
}

func resetSocks(socks []*msock) {
	for _, sk := range socks {
		sk.queue.reset()
		sk.frames.reset()
		sk.reading = sk.reading[:0]
		sk.bytes = 0
		sk.sinceWake = 0
		sk.Drops, sk.Enqueued = 0, 0
	}
}

// ringKick: the NIC raised the IRQ for ring r. The handler only acks and
// schedules NAPI; all per-packet work happens in the polled passes.
func (st *rssStack) ringKick(r int) {
	g := st.rings[r]
	if g.on {
		return // NAPI already polling this ring: no further interrupts
	}
	g.on = true
	st.sys.ringCPU(r).Submit(&g.kick)
}

// servicePass drains up to NapiBudget packets from the ring in one
// softirq pass on the ring's CPU, delivering into the per-socket buffers.
func (st *rssStack) servicePass(g *ringStage) {
	c := &st.sys.Costs
	if !g.startPass(st.sys, c.NapiBudget) {
		g.on = false
		return
	}
	var fixed float64
	for _, p := range g.batch {
		fixed += c.DriverRxNS + c.NapiPollNS
		for _, sk := range st.socks {
			caplen, fcost := st.sys.runFilter(p.data)
			fixed += fcost
			if caplen == 0 {
				g.rejects++
				g.rejectBytes += uint64(len(p.data))
				continue
			}
			fixed += c.SockEnqNS
			if sk.app.state == stIdle {
				fixed += c.WakeupNS
			}
			g.delivers = append(g.delivers, mdelivery{sk, kpkt{data: p.data, caplen: caplen, arrival: p.arrival}})
		}
	}
	g.submitPass(st.sys, fixed)
}

// passDone applies a completed NAPI pass and polls the ring again.
func (st *rssStack) passDone(g *ringStage) {
	g.batch = g.batch[:0]
	st.sys.ledger.RecordN(CauseFilter, g.rejects, g.rejectBytes,
		st.sys.Sim.Now()-st.sys.runStart)
	for _, dv := range g.delivers {
		overhead := dv.p.caplen + st.sys.Costs.SkbOverhead
		if dv.sk.bytes+overhead > st.sys.BufferBytes {
			dv.sk.Drops++
			st.sys.recordDrop(CauseRcvbuf, dv.p.caplen)
			dv.sk.gauge.overflow()
			continue
		}
		dv.sk.queue.push(dv.p)
		dv.sk.bytes += overhead
		dv.sk.gauge.observe(dv.sk.bytes)
		dv.sk.Enqueued++
		if dv.sk.app.state == stIdle {
			st.appStart(dv.sk.app)
		}
	}
	st.servicePass(g)
}

// startRead is the common head of a modern application read: it returns
// the app's socket with up to AppBatch packets moved into a.batch and the
// app marked running, or nil when there is nothing to read or the app is
// blocked.
func startRead(a *App, socks []*msock) *msock {
	if a.state == stRunning || a.state == stBlockedDisk ||
		a.state == stBlockedPipe || a.state == stBlockedWorkers {
		return nil
	}
	sk := socks[a.idx]
	if sk.queue.len() == 0 {
		a.state = stIdle
		return nil
	}
	if a.blockedOnBackpressure() {
		return nil
	}
	a.state = stRunning
	n := sk.queue.len()
	if n > a.sys.Costs.AppBatch {
		n = a.sys.Costs.AppBatch
	}
	a.batch = sk.queue.popN(a.batch[:0], n)
	a.inflightPkts = n
	return sk
}

// appStart: the classic per-packet recvfrom read loop (RSS spreads the
// kernel side across cores, but the application still pays a syscall and
// a copy per packet).
func (st *rssStack) appStart(a *App) {
	sk := startRead(a, st.socks)
	if sk == nil {
		return
	}
	c := &st.sys.Costs
	occ := a.occupancy(float64(sk.bytes) / float64(st.sys.BufferBytes))

	var fixed, mem float64
	for _, p := range a.batch {
		sk.bytes -= p.caplen + c.SkbOverhead
		fixed += st.sys.ufixed(c.RecvSyscallNS)
		mem += float64(p.caplen)
		a.inflightBytes += uint64(p.caplen)
	}
	a.submitRead("recv", a.batch, occ, fixed, mem, 1.0)
}

func (st *rssStack) pending() bool {
	return ringsPending(st.rings) || socksPending(st.socks)
}

func socksPending(socks []*msock) bool {
	for _, sk := range socks {
		if sk.queue.len() > 0 {
			return true
		}
	}
	return false
}

func (st *rssStack) dropStats() ([]uint64, uint64) { return sockDrops(st.socks), 0 }

func sockDrops(socks []*msock) []uint64 {
	per := make([]uint64, len(socks))
	for i, sk := range socks {
		per[i] = sk.Drops
	}
	return per
}

func (st *rssStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	return ringRemnants(st.rings), sockRemnants(st.socks)
}

func sockRemnants(socks []*msock) [][]kpkt {
	perApp := make([][]kpkt, len(socks))
	for i, sk := range socks {
		perApp[i] = sk.queue.items()
	}
	return perApp
}

// ---------------------------------------------------------------------------
// Poll mode (DPDK-style PMD)

type pollStack struct {
	sys   *System
	rings []*ringStage
	socks []*msock
}

func newPollStack(s *System, nrings int) *pollStack {
	// PollIdleNS is the spin grain, a simulation artifact: it is not
	// scaled by kfixed so the event count of an idle core stays bounded,
	// and the busy accounting is exact either way.
	st := &pollStack{sys: s, rings: newRingStages(nrings, "pmd-idle", "pmd-burst", sim.PrioSoftIRQ)}
	for _, g := range st.rings {
		g.kick.FixedNS = s.Costs.PollIdleNS
		g.kick.OnDone = func() { st.poll(g) }
		g.pass.OnDone = func() { st.burstDone(g) }
	}
	// The PMD cores are dedicated: user work must never be placed on a
	// busy-spinning CPU (it would starve behind the spin forever).
	for r := 0; r < nrings; r++ {
		s.Machine.Reserve(r % len(s.Machine.CPUs))
	}
	for i, a := range s.apps {
		st.socks = append(st.socks, &msock{app: a, gauge: s.newGauge("app-ring", i, s.Costs.AppRingSlots)})
		a.read.OnDone = func() {
			a.completeRead()
			st.appStart(a)
		}
	}
	return st
}

func (st *pollStack) reset() {
	resetRingStages(st.rings)
	resetSocks(st.socks)
}

// start launches the PMD loops, one per ring on its own core. Called by
// System.run after s.running is set; the loops die with the run.
func (st *pollStack) start() {
	for _, g := range st.rings {
		st.poll(g)
	}
}

// poll runs one PMD loop iteration on the ring's core: an empty poll is a
// busy spin of PollIdleNS (the core is 100% busy whether or not traffic
// flows — the defining cost trade of poll mode, visible in cpusage as a
// pegged softintr class); a non-empty poll processes up to PollBurst
// packets and hands them into the per-application rings without copying.
//
// Once the system is quiescent after generation, no packet can reach a
// ring again and the run ends at the current window boundary. The spins
// the loop would still make up to then are merged into one task that ends
// where the last of them would: the core's busy time, the lower-priority
// work it keeps waiting and the run's end stay those of the spin chain,
// at one simulator event instead of one per PollIdleNS.
func (st *pollStack) poll(g *ringStage) {
	s := st.sys
	if !s.running {
		return // run over: the spin loop winds down
	}
	c := &s.Costs
	if !g.startPass(s, c.PollBurst) {
		g.kick.FixedNS = c.PollIdleNS
		if s.genDone && s.quiescent() {
			grain := sim.Time(c.PollIdleNS + 0.5)
			spins := (s.windowEnd-s.Sim.Now())/grain + 1
			g.kick.FixedNS = float64(spins * grain)
		}
		s.ringCPU(g.r).Submit(&g.kick)
		return
	}
	var fixed float64
	for _, p := range g.batch {
		fixed += c.PollPerPktNS
		for _, sk := range st.socks {
			caplen, fcost := st.sys.runFilter(p.data)
			fixed += fcost
			if caplen == 0 {
				g.rejects++
				g.rejectBytes += uint64(len(p.data))
				continue
			}
			fixed += c.RingInsertNS
			if sk.app.state == stIdle {
				fixed += c.WakeupNS
			}
			g.delivers = append(g.delivers, mdelivery{sk, kpkt{data: p.data, caplen: caplen, arrival: p.arrival}})
		}
	}
	g.submitPass(st.sys, fixed)
}

// burstDone applies a completed PMD burst and polls the ring again.
func (st *pollStack) burstDone(g *ringStage) {
	g.batch = g.batch[:0]
	st.sys.ledger.RecordN(CauseFilter, g.rejects, g.rejectBytes,
		st.sys.Sim.Now()-st.sys.runStart)
	for _, dv := range g.delivers {
		if dv.sk.queue.len() >= st.sys.Costs.AppRingSlots {
			dv.sk.Drops++
			st.sys.recordDrop(CauseRcvbuf, dv.p.caplen)
			dv.sk.gauge.overflow()
			continue
		}
		dv.sk.queue.push(dv.p)
		dv.sk.gauge.observe(dv.sk.queue.len())
		dv.sk.Enqueued++
		if dv.sk.app.state == stIdle {
			st.appStart(dv.sk.app)
		}
	}
	st.poll(g)
}

// appStart: the reader maps the ring frames in place — no syscall, no
// copy; only the cheap per-frame hand-off plus the configured load.
func (st *pollStack) appStart(a *App) {
	sk := startRead(a, st.socks)
	if sk == nil {
		return
	}
	c := &st.sys.Costs
	occ := a.occupancy(float64(sk.queue.len()+len(a.batch)) / float64(c.AppRingSlots))

	var fixed float64
	for _, p := range a.batch {
		fixed += st.sys.ufixed(c.MmapPerPktNS)
		a.inflightBytes += uint64(p.caplen)
	}
	a.submitRead("ring-read", a.batch, occ, fixed, 0, 1.0)
}

func (st *pollStack) pending() bool {
	return ringsPending(st.rings) || socksPending(st.socks)
}

func (st *pollStack) dropStats() ([]uint64, uint64) { return sockDrops(st.socks), 0 }

func (st *pollStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	return ringRemnants(st.rings), sockRemnants(st.socks)
}

// ---------------------------------------------------------------------------
// AF_XDP-style zero copy

// xdpStack's UMEM is a pool of frame IDs: refs[id] counts the sockets
// holding frame id, free lists the released IDs for reuse, and umemFree
// is the number of frames a packet can still take (IDs are minted on
// first use, so the pool costs nothing until the traffic needs it).
type xdpStack struct {
	sys      *System
	rings    []*ringStage
	socks    []*msock
	umemFree int
	refs     []int32
	free     []int32
	gUmem    *Gauge
}

func newXDPStack(s *System, nrings int) *xdpStack {
	st := &xdpStack{
		sys:      s,
		rings:    newRingStages(nrings, "rx-irq", "xdp-rx", sim.PrioHardIRQ),
		umemFree: s.Costs.UmemFrames,
	}
	for _, g := range st.rings {
		g.kick.FixedNS = s.kfixed(s.Costs.IRQEntryNS)
		g.kick.OnDone = func() { st.xdpPass(g) }
		g.pass.OnDone = func() { st.passDone(g) }
	}
	st.gUmem = s.newGauge("umem", -1, s.Costs.UmemFrames)
	for i, a := range s.apps {
		sk := &msock{app: a, gauge: s.newGauge("xsk-ring", i, s.Costs.AppRingSlots)}
		st.socks = append(st.socks, sk)
		a.read.OnDone = func() {
			// The read is done with its descriptors: the frames go back
			// to the UMEM pool through the completion ring.
			for _, f := range sk.reading {
				st.release(f)
			}
			a.completeRead()
			st.appStart(a)
		}
	}
	return st
}

func (st *xdpStack) reset() {
	resetRingStages(st.rings)
	st.umemFree = st.sys.Costs.UmemFrames
	st.refs, st.free = st.refs[:0], st.free[:0]
	resetSocks(st.socks)
}

func (st *xdpStack) ringKick(r int) {
	g := st.rings[r]
	if g.on {
		return
	}
	g.on = true
	st.sys.ringCPU(r).Submit(&g.kick)
}

// takeFrame hands out a free UMEM frame; the caller has checked umemFree.
func (st *xdpStack) takeFrame() int32 {
	st.umemFree--
	if n := len(st.free); n > 0 {
		f := st.free[n-1]
		st.free = st.free[:n-1]
		return f
	}
	st.refs = append(st.refs, 0)
	return int32(len(st.refs) - 1)
}

// release returns one socket's reference on a frame, freeing it to the
// UMEM pool when the last holder is done (the completion ring).
func (st *xdpStack) release(f int32) {
	st.refs[f]--
	if st.refs[f] == 0 {
		st.umemFree++
		st.free = append(st.free, f)
	}
}

// xdpPass drains up to NapiBudget packets from the ring: each packet
// needs a UMEM frame (fill-ring exhaustion is the umem-fill drop, before
// any socket sees the packet), is filtered per socket, and lands by
// reference in the accepting sockets' XSK rings. Wakeups are batched: an
// idle application is woken only once WakeupBatch packets have
// accumulated, or when the driver goes idle (the need_wakeup flush, which
// also guarantees tails drain and the run terminates).
func (st *xdpStack) xdpPass(g *ringStage) {
	c := &st.sys.Costs
	if !g.startPass(st.sys, c.NapiBudget) {
		g.on = false
		return
	}
	var fixed float64
	for _, p := range g.batch {
		fixed += c.DriverRxNS + c.XdpRxNS
		for range st.socks {
			_, fcost := st.sys.runFilter(p.data)
			fixed += fcost
			fixed += c.RingInsertNS
		}
	}
	g.submitPass(st.sys, fixed)
}

// passDone applies a completed XDP pass: frames are taken and the packets
// redirected into the XSK rings only now, when the pass has run.
func (st *xdpStack) passDone(g *ringStage) {
	now := st.sys.Sim.Now() - st.sys.runStart
	rejects := 0
	var rejectBytes uint64
	for _, p := range g.batch {
		if st.umemFree == 0 {
			// No frame for the DMA'd packet: dropped before the
			// per-socket fan-out, shared by every application.
			st.sys.ledger.Record(CauseUmemFill, len(p.data), now)
			st.gUmem.overflow()
			continue
		}
		f := st.takeFrame()
		st.gUmem.observe(st.sys.Costs.UmemFrames - st.umemFree)
		for _, sk := range st.socks {
			caplen, _ := st.sys.runFilter(p.data)
			if caplen == 0 {
				rejects++
				rejectBytes += uint64(len(p.data))
				continue
			}
			if sk.queue.len() >= st.sys.Costs.AppRingSlots {
				sk.Drops++
				st.sys.recordDrop(CauseRcvbuf, caplen)
				sk.gauge.overflow()
				continue
			}
			st.refs[f]++
			sk.queue.push(kpkt{data: p.data, caplen: caplen, arrival: p.arrival})
			sk.frames.push(f)
			sk.gauge.observe(sk.queue.len())
			sk.Enqueued++
			sk.sinceWake++
		}
		if st.refs[f] == 0 {
			// Every socket rejected or overflowed: the frame goes
			// straight back to the pool.
			st.umemFree++
			st.free = append(st.free, f)
		}
	}
	g.batch = g.batch[:0]
	st.sys.ledger.RecordN(CauseFilter, rejects, rejectBytes, now)
	flush := st.sys.rss.depth(g.r) == 0
	for _, sk := range st.socks {
		if sk.queue.len() == 0 || sk.app.state != stIdle {
			continue
		}
		if sk.sinceWake >= st.sys.Costs.WakeupBatch || flush {
			sk.sinceWake = 0
			st.appStart(sk.app)
		}
	}
	st.xdpPass(g)
}

// appStart: one batched wakeup syscall, then per-frame descriptor
// handling — no copy; frames return to the UMEM pool when the read
// completes.
func (st *xdpStack) appStart(a *App) {
	sk := startRead(a, st.socks)
	if sk == nil {
		return
	}
	c := &st.sys.Costs
	n := len(a.batch)
	sk.reading = sk.frames.popN(sk.reading[:0], n)

	occ := a.occupancy(float64(sk.queue.len()+n) / float64(c.AppRingSlots))

	fixed := st.sys.ufixed(c.RecvSyscallNS) // one poll()/recvmsg per wakeup
	for _, p := range a.batch {
		fixed += st.sys.ufixed(c.XdpPerPktNS)
		a.inflightBytes += uint64(p.caplen)
	}
	a.submitRead("xsk-read", a.batch, occ, fixed, 0, 1.0)
}

func (st *xdpStack) pending() bool {
	return ringsPending(st.rings) || socksPending(st.socks)
}

func (st *xdpStack) dropStats() ([]uint64, uint64) { return sockDrops(st.socks), 0 }

func (st *xdpStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	return ringRemnants(st.rings), sockRemnants(st.socks)
}
