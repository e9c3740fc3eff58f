package capture

import "repro/internal/sim"

// linuxStack models the Linux 2.6 capturing stack (§2.1.2): the interrupt
// handler allocates an skb and appends a pointer to the per-CPU input
// queue; a NET_RX softirq later walks the queue and hands each packet to
// every PF_PACKET socket whose LSF filter accepts it; the application
// copies each packet separately to user space via recvfrom (or reads it
// in place with the PACKET_MMAP patch of §6.3.6).
type linuxStack struct {
	sys *System

	backlog      fifo[kpkt]
	backlogDrops uint64
	softirqOn    bool
	gBacklog     *Gauge

	// The softirq stage: one NET_RX pass in flight at most. inflight is
	// the batch the scheduled pass is processing; delivers and the reject
	// tally are what the pass applies when it completes.
	softirq     sim.Task
	inflight    []kpkt
	delivers    []delivery
	rejects     int
	rejectBytes uint64

	socks []*lsock
}

// lsock is one PF_PACKET socket with its receive-buffer accounting.
type lsock struct {
	app      *App
	queue    fifo[kpkt]
	bytes    int
	gauge    *Gauge
	Drops    uint64
	Enqueued uint64
}

func newLinuxStack(s *System) *linuxStack {
	st := &linuxStack{sys: s}
	st.gBacklog = s.newGauge("backlog", -1, s.Costs.BacklogLen)
	st.softirq = sim.Task{Name: "net-rx-softirq", Prio: sim.PrioSoftIRQ,
		MemNsPerByte: s.kmemNs(), OnDone: st.softirqDone}
	for i, a := range s.apps {
		st.socks = append(st.socks, &lsock{app: a, gauge: s.newGauge("rcvbuf", i, s.BufferBytes)})
		a.read.OnDone = func() {
			a.completeRead()
			st.appStart(a)
		}
	}
	return st
}

func (st *linuxStack) reset() {
	st.backlog.reset()
	st.backlogDrops = 0
	st.softirqOn = false
	st.inflight = st.inflight[:0]
	for _, sk := range st.socks {
		sk.queue.reset()
		sk.bytes = 0
		sk.Drops, sk.Enqueued = 0, 0
	}
}

func (st *linuxStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	shared = append(shared, st.backlog.items()...)
	shared = append(shared, st.inflight...)
	perApp = make([][]kpkt, len(st.socks))
	for i, sk := range st.socks {
		perApp[i] = sk.queue.items()
	}
	return shared, perApp
}

// irqCost: driver top half — allocate the skb and enqueue the pointer.
// No payload copy happens here (the card DMAed the frame already). The
// PF_RING-style stack skips the skb allocation: the driver hands the raw
// buffer straight towards the ring.
func (st *linuxStack) irqCost(data []byte) (float64, float64) {
	c := &st.sys.Costs
	if st.sys.PFRing {
		return c.RingInsertNS + c.BacklogEnqNS, 0
	}
	return c.SkbAllocNS + c.BacklogEnqNS, 0
}

func (st *linuxStack) irqDone(data []byte) {
	if st.backlog.len() >= st.sys.Costs.BacklogLen {
		st.backlogDrops++
		st.sys.recordDrop(CauseBacklog, len(data))
		st.gBacklog.overflow()
		return
	}
	st.backlog.push(kpkt{data: data})
	st.gBacklog.observe(st.backlog.len())
	if !st.softirqOn {
		st.softirqOn = true
		st.scheduleSoftirq()
	}
}

// delivery is one (socket, packet) pair accepted by a filter.
type delivery struct {
	sk *lsock
	p  kpkt
}

// scheduleSoftirq drains up to the quota from the input queue in one
// softirq pass on CPU 0 (softirqs run on the CPU that took the interrupt).
func (st *linuxStack) scheduleSoftirq() {
	c := &st.sys.Costs
	n := st.backlog.len()
	if n > c.SoftirqQuota {
		n = c.SoftirqQuota
	}
	st.inflight = st.backlog.popN(st.inflight[:0], n)

	ring := st.sys.MmapPatch || st.sys.PFRing
	var fixed, mem float64
	st.delivers = st.delivers[:0]
	st.rejects, st.rejectBytes = 0, 0
	for _, p := range st.inflight {
		perPkt := c.SoftirqPerPktNS
		if st.sys.PFRing {
			// The ring stack bypasses most of netif_receive_skb.
			perPkt = c.RingInsertNS
		}
		fixed += perPkt
		for _, sk := range st.socks {
			caplen, fcost := st.sys.runFilter(p.data)
			fixed += fcost
			if caplen == 0 {
				st.rejects++
				st.rejectBytes += uint64(len(p.data))
				continue
			}
			if st.sys.PFRing {
				fixed += c.RingInsertNS
			} else {
				fixed += c.SockEnqNS
			}
			if sk.app.state == stIdle {
				fixed += c.WakeupNS
			}
			if ring {
				// The kernel copies the frame into the shared ring here,
				// in softirq context.
				mem += float64(caplen)
			}
			st.delivers = append(st.delivers, delivery{sk, kpkt{data: p.data, caplen: caplen}})
		}
	}
	st.softirq.FixedNS = st.sys.kfixed(fixed)
	st.softirq.MemBytes = mem
	st.sys.cpu0().Submit(&st.softirq)
}

// softirqDone applies a completed softirq pass and schedules the next
// while the backlog holds packets.
func (st *linuxStack) softirqDone() {
	// The pass has run: the batch packets are now either rejected,
	// dropped at a socket, or queued — no longer in flight.
	st.inflight = st.inflight[:0]
	st.sys.ledger.RecordN(CauseFilter, st.rejects, st.rejectBytes,
		st.sys.Sim.Now()-st.sys.runStart)
	for _, dv := range st.delivers {
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
	if st.backlog.len() > 0 {
		st.scheduleSoftirq()
	} else {
		st.softirqOn = false
	}
}

// appStart runs one read burst of the application's loop: up to AppBatch
// packets, each paying the recvfrom syscall and the copy to user space
// (or the cheap PACKET_MMAP hand-off), plus the configured load.
func (st *linuxStack) appStart(a *App) {
	if a.state == stRunning || a.state == stBlockedDisk ||
		a.state == stBlockedPipe || a.state == stBlockedWorkers {
		return
	}
	sk := st.socks[a.idx]
	if sk.queue.len() == 0 {
		a.state = stIdle
		return
	}
	if a.blockedOnBackpressure() {
		return
	}
	a.state = stRunning

	c := &st.sys.Costs
	n := sk.queue.len()
	if n > c.AppBatch {
		n = c.AppBatch
	}
	a.batch = sk.queue.popN(a.batch[:0], n)

	// Occupancy is observed before the batch is drained: the controller
	// sees the rcvbuf as the wakeup found it.
	occ := a.occupancy(float64(sk.bytes) / float64(st.sys.BufferBytes))

	ring := st.sys.MmapPatch || st.sys.PFRing
	var fixed, mem float64
	for _, p := range a.batch {
		sk.bytes -= p.caplen + c.SkbOverhead
		if ring {
			fixed += st.sys.ufixed(c.MmapPerPktNS)
		} else {
			fixed += st.sys.ufixed(c.RecvSyscallNS)
			mem += float64(p.caplen)
		}
		a.inflightBytes += uint64(p.caplen)
	}
	a.inflightPkts = n
	a.submitRead("recv", a.batch, occ, fixed, mem, 1.0)
}

func (st *linuxStack) pending() bool {
	if st.backlog.len() > 0 || st.softirqOn {
		return true
	}
	for _, sk := range st.socks {
		if sk.queue.len() > 0 {
			return true
		}
	}
	return false
}

func (st *linuxStack) dropStats() ([]uint64, uint64) {
	per := make([]uint64, len(st.socks))
	for i, sk := range st.socks {
		per[i] = sk.Drops
	}
	return per, st.backlogDrops
}
