package capture

import "repro/internal/sim"

// NIC models the Intel 82544EI receive path: a DMA descriptor ring of
// RingSlots packets and an interrupt per packet, with natural coalescing —
// while the handler is busy, further arrivals only refill the ring, and the
// handler keeps draining without a fresh interrupt (this is also how
// receive livelock manifests: under overload the handler re-arms itself
// forever and starves everything below hardirq priority, §2.2.1).
// Optional interrupt moderation delays the first interrupt to batch
// arrivals, at the price of timestamp accuracy.
type NIC struct {
	sys   *System
	stack irqStack

	ring      fifo[kpkt]
	irqActive bool
	modWait   bool // first interrupt delayed by the moderation window
	holding   bool // inflight was popped from the ring, hardirq task running
	inflight  kpkt
	gauge     *Gauge

	// The hardirq stage: one task, refilled per packet; modFn ends a
	// moderation window. Both callbacks are bound once in newNIC.
	irq   sim.Task
	modFn func()

	Drops     uint64 // ring overflows
	Delivered uint64 // packets handed to the stack

	burstStamp sim.Time // timestamp shared by the current handler burst
	lastStamp  sim.Time
}

func newNIC(s *System) *NIC {
	n := &NIC{sys: s}
	n.gauge = s.newGauge("nic-ring", -1, s.Costs.RingSlots)
	n.irq = sim.Task{Name: "rx-irq", Prio: sim.PrioHardIRQ, MemNsPerByte: s.kmemNs(), OnDone: n.irqComplete}
	n.modFn = n.moderationEnd
	return n
}

func (n *NIC) reset() {
	n.ring.reset()
	n.irqActive, n.modWait, n.holding = false, false, false
	n.Drops, n.Delivered = 0, 0
	n.burstStamp, n.lastStamp = 0, 0
}

// Arrive is called at the simulated instant the frame has fully arrived.
func (n *NIC) Arrive(data []byte) {
	if n.ring.len() >= n.sys.Costs.RingSlots {
		n.Drops++
		// Attribute the overflow: a ring that filled while the card was
		// still delaying the first interrupt of a moderation window is the
		// moderation trade-off at work, not handler overload.
		cause := CauseNICRing
		if n.modWait {
			cause = CauseModeration
		}
		n.sys.recordDrop(cause, len(data))
		n.gauge.overflow()
		return
	}
	n.ring.push(kpkt{data: data, arrival: n.sys.Sim.Now()})
	n.gauge.observe(n.ring.len())
	if !n.irqActive {
		n.irqActive = true
		if d := n.sys.Costs.ModerationDelayNS; d > 0 {
			n.modWait = true
			n.sys.Sim.After(sim.Time(d), n.modFn)
		} else {
			n.burstStamp = n.sys.Sim.Now()
			n.serviceNext(true)
		}
	}
}

// moderationEnd raises the interrupt delayed by the moderation window.
func (n *NIC) moderationEnd() {
	n.modWait = false
	n.burstStamp = n.sys.Sim.Now()
	n.serviceNext(true)
}

// serviceNext submits the hardirq task for the next ring entry. The task
// cost is the driver per-packet cost plus whatever interrupt-context work
// the OS stack performs for this packet (FreeBSD: filtering and buffer
// copies; Linux: skb allocation and backlog enqueue).
func (n *NIC) serviceNext(first bool) {
	n.inflight = n.ring.pop()
	n.holding = true

	fixed, memBytes := n.stack.irqCost(n.inflight.data)
	fixed += n.sys.Costs.DriverRxNS
	if first {
		fixed += n.sys.Costs.IRQEntryNS
	}
	n.irq.FixedNS = n.sys.kfixed(fixed)
	n.irq.MemBytes = memBytes
	n.sys.cpu0().Submit(&n.irq)
}

// irqComplete ends one packet's hardirq task: custody passes to the stack
// and the handler moves on to the next ring entry, if any.
func (n *NIC) irqComplete() {
	n.Delivered++
	n.stamp(n.inflight)
	n.holding = false
	n.stack.irqDone(n.inflight.data)
	if n.ring.len() > 0 {
		n.serviceNext(false)
	} else {
		n.irqActive = false
	}
}

// stamp records the packet's kernel timestamp ("usually performed by the
// receiving interrupt", §2.2.1): every packet drained by one handler burst
// carries the burst's entry time, so batching — from moderation or from
// overload coalescing — produces exactly the artifact the thesis warns
// about: "the timestamping ... assigns the same timestamp to multiple
// packets" and the inter-packet gaps are lost.
func (n *NIC) stamp(p kpkt) {
	ts := n.burstStamp
	err := ts - p.arrival
	if err < 0 {
		err = -err // arrived while the burst was already draining
	}
	n.sys.tsStamped++
	n.sys.tsErrSum += err
	if err > n.sys.tsErrMax {
		n.sys.tsErrMax = err
	}
	if ts == n.lastStamp {
		n.sys.tsTies++
	}
	n.lastStamp = ts
}
