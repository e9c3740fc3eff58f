package sim

import "fmt"

// Prio is a scheduling priority class. Lower values preempt higher values.
// The classes mirror the execution contexts relevant to 2005-era capture
// stacks: hardware interrupts beat soft interrupts beat kernel (syscall)
// work beats user code.
type Prio int

const (
	PrioHardIRQ Prio = iota
	PrioSoftIRQ
	PrioKernel
	PrioUser
	NumPrio
)

// String returns the cpusage-style state name for the priority class.
func (p Prio) String() string {
	switch p {
	case PrioHardIRQ:
		return "intr"
	case PrioSoftIRQ:
		return "softintr"
	case PrioKernel:
		return "sys"
	case PrioUser:
		return "user"
	default:
		return fmt.Sprintf("prio(%d)", int(p))
	}
}

// Task is a unit of work executed on a CPU.
//
// The cost of a task has two components:
//   - FixedNS: compute-bound nanoseconds at the CPU's nominal speed.
//   - MemBytes × MemNsPerByte: memory-bound nanoseconds, subject to the
//     machine's dynamic memory-contention multiplier (shared front-side bus
//     on the Xeon vs independent memory controllers on the Opteron).
//
// OnDone runs when the task completes; model code chains sequential
// activities (an application's read loop, a softirq drain, ...) by
// submitting the next task from OnDone.
//
// A Task may be reused: once its OnDone has begun, the task is no longer
// queued or running anywhere, and the owner may refill its cost fields and
// submit it again (from OnDone itself or later). Every submission starts
// the task fresh, whatever preemption it went through before. A stage that
// never has more than one activity in flight can therefore own a single
// Task with OnDone bound once, and run allocation-free.
type Task struct {
	Name         string
	Prio         Prio
	FixedNS      float64
	MemBytes     float64
	MemNsPerByte float64

	OnDone func()

	// remaining tracks the unfinished fraction after a preemption.
	remaining float64 // 0 => fresh task (fraction 1.0)
	started   Time
	duration  Time
	doneRef   EventRef
}

func (t *Task) fraction() float64 {
	if t.remaining == 0 {
		return 1.0
	}
	return t.remaining
}

// Machine is a set of CPUs sharing a memory system. It owns the dynamic
// cost multipliers (memory-bus contention, hyperthreading slowdown) and the
// user-task placement policy.
type Machine struct {
	Sim  *Sim
	CPUs []*CPU

	// MemContention multiplies MemNsPerByte of a task while at least one
	// *other* CPU is also executing a memory-active task. 1.0 disables the
	// effect (point-to-point memory, AMD); >1 models a shared front-side
	// bus (Intel).
	MemContention float64

	// HTSlowdown multiplies all costs of a task while its hyperthread
	// sibling CPU is busy. 1.0 when hyperthreading is off or the CPU has a
	// dedicated core.
	HTSlowdown float64

	// reserved marks CPUs excluded from SubmitUser placement: a poll-mode
	// driver pins a busy-spin loop there, so a user task placed on one
	// would starve behind the spinning forever. unreserved caches the
	// placement candidates so the SubmitUser hot path stays allocation-free.
	reserved   []bool
	unreserved []*CPU

	// Placement history starts at histStart: SubmitUser weighs the kernel
	// busy time each CPU accrued since then (the CPU's kernBase is its
	// kernel busy total at that instant). See ResetHistory.
	histStart Time
}

// Reserve dedicates CPU id to pinned kernel work (a poll-mode driver
// core): SubmitUser will no longer place user tasks there. If every CPU
// ends up reserved, SubmitUser falls back to considering all of them —
// the caller is expected to leave at least one CPU for user work.
func (m *Machine) Reserve(id int) {
	if m.reserved == nil {
		m.reserved = make([]bool, len(m.CPUs))
	}
	m.reserved[id] = true
	m.unreserved = m.unreserved[:0]
	for i, c := range m.CPUs {
		if !m.reserved[i] {
			m.unreserved = append(m.unreserved, c)
		}
	}
	if len(m.unreserved) == 0 {
		m.unreserved = append(m.unreserved, m.CPUs...)
	}
}

// Reserved reports whether CPU id is dedicated to pinned kernel work.
func (m *Machine) Reserved(id int) bool { return m.reserved != nil && m.reserved[id] }

// NewMachine creates a machine with n CPUs. If hyperthreading is true the
// CPUs are paired: CPU 2k and 2k+1 share physical core k.
func NewMachine(s *Sim, n int, hyperthreading bool) *Machine {
	m := &Machine{Sim: s, MemContention: 1.0, HTSlowdown: 1.0}
	for i := 0; i < n; i++ {
		core := i
		if hyperthreading {
			core = i / 2
		}
		m.CPUs = append(m.CPUs, &CPU{machine: m, ID: i, Core: core})
	}
	return m
}

// taskq is a head-indexed FIFO of tasks. Pops advance the head instead of
// shifting the slice, and a front push reuses the popped gap, so the
// per-dispatch memmove and the per-preemption prepend allocation of a plain
// slice queue disappear. Popped slots keep stale pointers until overwritten
// or the queue drains; the buffer is as small as the deepest backlog, so
// the pinned tail is negligible.
type taskq struct {
	buf  []*Task
	head int
}

func (q *taskq) len() int { return len(q.buf) - q.head }

func (q *taskq) pushBack(t *Task) { q.buf = append(q.buf, t) }

func (q *taskq) pushFront(t *Task) {
	if q.head > 0 {
		q.head--
		q.buf[q.head] = t
		return
	}
	q.buf = append(q.buf, nil)
	copy(q.buf[1:], q.buf)
	q.buf[0] = t
}

func (q *taskq) popFront() *Task {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return t
}

// CPU is a single (possibly logical) processor with strict-priority,
// preemptive FIFO scheduling and busy-time accounting per priority class.
type CPU struct {
	machine *Machine
	ID      int
	Core    int

	queues   [NumPrio]taskq
	current  *Task
	kernBase Time // kernel busy total when placement history last restarted

	busy [NumPrio]Time // completed busy time per class
}

// Submit enqueues t on this CPU and dispatches or preempts as needed.
func (c *CPU) Submit(t *Task) {
	c.admit(t)
	c.queues[t.Prio].pushBack(t)
	if c.current == nil {
		c.dispatch()
		return
	}
	if t.Prio < c.current.Prio {
		c.preempt()
		c.dispatch()
	}
}

// SubmitFront enqueues t at the head of its priority queue: the next
// dispatch of that class picks it before anything that was already waiting.
// This models a process that continues running within its scheduler
// timeslice instead of yielding (Linux 2.6 O(1) scheduler behaviour under
// streaming load).
func (c *CPU) SubmitFront(t *Task) {
	c.admit(t)
	c.queues[t.Prio].pushFront(t)
	if c.current == nil {
		c.dispatch()
		return
	}
	if t.Prio < c.current.Prio {
		c.preempt()
		c.dispatch()
	}
}

// admit validates a submission and resets the task's preemption state, so
// a reused Task always starts fresh.
func (c *CPU) admit(t *Task) {
	if t.OnDone == nil {
		panic("sim: task without OnDone")
	}
	if t == c.current {
		panic("sim: submitting the CPU's running task")
	}
	t.remaining = 0
}

// preempt stops the running task, accounts the elapsed time, and requeues
// the remainder at the front of its priority queue.
func (c *CPU) preempt() {
	cur := c.current
	elapsed := c.machine.Sim.Now() - cur.started
	c.busy[cur.Prio] += elapsed
	frac := 0.0
	if cur.duration > 0 {
		frac = float64(elapsed) / float64(cur.duration)
	}
	rem := cur.fraction() * (1 - frac)
	// remaining == 0 denotes a fresh task (zero value); a task preempted
	// exactly at its completion instant must keep an epsilon so it is
	// redispatched as (effectively) finished rather than restarted.
	if rem <= 0 {
		rem = 1e-12
	}
	cur.remaining = rem
	cur.doneRef.Cancel()
	c.current = nil
	// Requeue at the front: a preempted task resumes before tasks that
	// arrived while it was running.
	c.queues[cur.Prio].pushFront(cur)
}

// dispatch starts the highest-priority pending task, if any.
func (c *CPU) dispatch() {
	if c.current != nil {
		return
	}
	for p := Prio(0); p < NumPrio; p++ {
		if c.queues[p].len() == 0 {
			continue
		}
		c.start(c.queues[p].popFront())
		return
	}
}

// start computes the task's duration under the current dynamic conditions
// and schedules its completion.
func (c *CPU) start(t *Task) {
	memNs := t.MemBytes * t.MemNsPerByte
	if memNs > 0 && c.machine.memActiveElsewhere(c) {
		memNs *= c.machine.MemContention
	}
	ns := (t.FixedNS + memNs) * t.fraction()
	if c.machine.siblingBusy(c) {
		ns *= c.machine.HTSlowdown
	}
	if ns < 0 {
		ns = 0
	}
	t.started = c.machine.Sim.Now()
	t.duration = Time(ns + 0.5)
	c.current = t
	t.doneRef = c.machine.Sim.afterTask(t.duration, c, t)
}

func (c *CPU) complete(t *Task) {
	if c.current != t {
		return // stale completion (preempted); defensive, Cancel should prevent this
	}
	c.busy[t.Prio] += t.duration
	c.current = nil
	// Run the completion callback before dispatching the next task so the
	// callback may submit follow-up work that competes fairly for the CPU.
	t.OnDone()
	c.dispatch()
}

// Busy returns the accumulated busy time of class p, including the elapsed
// part of a currently running task.
func (c *CPU) Busy(p Prio) Time {
	b := c.busy[p]
	if c.current != nil && c.current.Prio == p {
		b += c.machine.Sim.Now() - c.current.started
	}
	return b
}

// BusyTotal returns accumulated busy time across all classes.
func (c *CPU) BusyTotal() Time {
	var b Time
	for p := Prio(0); p < NumPrio; p++ {
		b += c.Busy(p)
	}
	return b
}

// Idle reports whether the CPU has neither a running task nor queued work.
func (c *CPU) Idle() bool {
	if c.current != nil {
		return false
	}
	for p := Prio(0); p < NumPrio; p++ {
		if c.queues[p].len() > 0 {
			return false
		}
	}
	return true
}

// QueueLen returns the number of queued (not running) tasks of class p.
func (c *CPU) QueueLen(p Prio) int { return c.queues[p].len() }

// memActiveElsewhere reports whether any other CPU is running a
// memory-active task right now.
func (m *Machine) memActiveElsewhere(self *CPU) bool {
	if m.MemContention <= 1.0 {
		return false
	}
	for _, c := range m.CPUs {
		if c != self && c.current != nil && c.current.MemBytes > 0 {
			return true
		}
	}
	return false
}

// siblingBusy reports whether the hyperthread sibling of self is executing.
func (m *Machine) siblingBusy(self *CPU) bool {
	if m.HTSlowdown <= 1.0 {
		return false
	}
	for _, c := range m.CPUs {
		if c != self && c.Core == self.Core && c.current != nil {
			return true
		}
	}
	return false
}

// ResetHistory restarts the placement history SubmitUser learns from, as
// if the machine had just booted: a model that reruns a workload on the
// same machine places every user task exactly as a fresh machine would.
func (m *Machine) ResetHistory() {
	m.histStart = m.Sim.Now()
	for _, c := range m.CPUs {
		c.kernBase = kernelBusyTotal(c)
	}
}

// SubmitUser places a user task where it is projected to finish earliest:
// the pending work on each CPU plus the task itself, stretched by the
// share of the CPU that kernel-side work (interrupts, softirqs) has been
// consuming — a scheduler quickly learns that the CPU taking the
// interrupts runs user work slowly. Ties are broken by accumulated kernel
// busy time, then by CPU ID for determinism.
func (m *Machine) SubmitUser(t *Task) *CPU {
	t.remaining = 0 // the placement estimate must see a fresh task
	cands := m.CPUs
	if len(m.unreserved) > 0 {
		cands = m.unreserved
	}
	best := cands[0]
	bestScore := m.finishScore(best, t)
	bestKern := kernelBusyTotal(best) - best.kernBase
	for _, c := range cands[1:] {
		s, k := m.finishScore(c, t), kernelBusyTotal(c)-c.kernBase
		if s < bestScore || (s == bestScore && k < bestKern) {
			best, bestScore, bestKern = c, s, k
		}
	}
	best.Submit(t)
	return best
}

// finishScore projects when t would complete on c.
func (m *Machine) finishScore(c *CPU, t *Task) float64 {
	avail := 1.0
	if span := m.Sim.Now() - m.histStart; span > 0 {
		kfrac := float64(kernelBusyTotal(c)-c.kernBase) / float64(span)
		avail = 1 - kfrac
		if avail < 0.1 {
			avail = 0.1
		}
	}
	return (pendingNS(c) + t.estNS()) / avail
}

// estNS is the task's nominal duration ignoring dynamic multipliers.
func (t *Task) estNS() float64 {
	return (t.FixedNS + t.MemBytes*t.MemNsPerByte) * t.fraction()
}

// pendingNS estimates the work already committed to a CPU.
func pendingNS(c *CPU) float64 {
	var ns float64
	for p := Prio(0); p < NumPrio; p++ {
		q := &c.queues[p]
		for _, t := range q.buf[q.head:] {
			ns += t.estNS()
		}
	}
	if c.current != nil {
		ns += c.current.estNS()
	}
	return ns
}

func kernelBusyTotal(c *CPU) Time {
	return c.Busy(PrioHardIRQ) + c.Busy(PrioSoftIRQ) + c.Busy(PrioKernel)
}

// Running returns the currently executing task, or nil.
func (c *CPU) Running() *Task { return c.current }
