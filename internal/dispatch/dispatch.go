// Package dispatch shards a campaign's measurement cells across worker
// processes with lease-based fault tolerance.
//
// The coordinator implements core.CellExecutor: the cell pipeline hands
// it the cells a campaign still has to measure (replayed cells never
// arrive), and it leases them in small batches to workers over the
// monitoring HTTP API. Robustness is the design center:
//
//   - Leases carry deadlines in coordinator-monotonic time (a
//     time.Since of the coordinator's start instant — wall-clock jumps
//     on either side cannot expire or immortalize a lease). A worker
//     extends its deadlines by heartbeating; a SIGKILLed worker simply
//     stops, its leases expire, and only its in-flight cells return to
//     the queue.
//   - Expired cells are re-dispatched with bounded retry and doubling
//     backoff — the shape of the core pipeline's fault supervision — and
//     a cell that exhausts its dispatch budget is run locally by the
//     coordinator, so a campaign always terminates even if every worker
//     is hostile.
//   - A lease that lives past the straggler threshold (its worker
//     heartbeats but never finishes) is speculatively re-dispatched to a
//     healthy worker; whichever copy finishes first wins.
//   - Duplicate completions — the straggler's late answer, a completion
//     racing an expiry — resolve deterministically by the campaign
//     journal's last-write-wins rule: cells are deterministic, so every
//     copy of an outcome is byte-identical and the journal's final word
//     never changes.
//   - The lease table itself is journaled in the same CRC-framed WAL
//     format (dispatch.journal, next to campaign.journal), so a killed
//     and -resume'd coordinator restores each cell's dispatch-attempt
//     count — the retry budget survives coordinator crashes.
//
// Workers hold no campaign state: they enumerate the experiment's cell
// space locally (experiments.EnumerateCells) and refuse to serve a
// coordinator whose campaign fingerprint differs from their own options
// (a typed refusal the CLI maps to exit code 2).
package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/journal"
)

// Tuning defaults.
const (
	// DefaultLeaseTTL is how long a granted lease stays valid without a
	// heartbeat.
	DefaultLeaseTTL = 5 * time.Second
	// DefaultMaxLease bounds the cells handed out per lease.
	DefaultMaxLease = 8
	// DefaultRetryBudget is the dispatch attempts per cell before the
	// coordinator stops trusting workers and runs it locally.
	DefaultRetryBudget = 3
	// DefaultBackoff is the base re-dispatch delay after an expiry,
	// doubled per spent attempt (the shape of the core pipeline's fault
	// supervision).
	DefaultBackoff = 250 * time.Millisecond
	// DefaultStrikeout quarantines a worker after this many expired
	// leases: it keeps asking for work and keeps losing it.
	DefaultStrikeout = 3
)

// WALFile is the dispatch write-ahead log's file name inside the
// -journal directory, next to the campaign journal.
const WALFile = "dispatch.journal"

// Record is one completed cell as reported by a worker: the durable key
// and the measured outcome. The JSON shape matches the campaign
// journal's cell records, and capture.Stats round-trips exactly through
// JSON, so a dispatched outcome is byte-identical to a local one.
type Record struct {
	Key core.CellKey     `json:"key"`
	Out core.CellOutcome `json:"out"`
}

// FingerprintError is the coordinator-side refusal of a worker whose
// options hash to a different campaign fingerprint.
type FingerprintError struct{ Want, Got string }

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("dispatch: campaign fingerprint mismatch: coordinator has %.12s…, worker offered %.12s… (align -packets/-reps/-seed/-rates/-policy)",
		e.Want, e.Got)
}

// ErrQuarantined refuses a worker that lost too many leases.
type quarantinedError struct{ worker string }

func (e *quarantinedError) Error() string {
	return fmt.Sprintf("dispatch: worker %s is quarantined (too many expired leases)", e.worker)
}

// doneError marks the campaign as finished: workers translate it into a
// clean exit.
type doneError struct{}

func (doneError) Error() string { return "dispatch: campaign complete" }

// IsDone reports whether err is the campaign-complete refusal.
func IsDone(err error) bool { _, ok := err.(doneError); return ok }

// IsQuarantined reports whether err is a worker-quarantine refusal.
func IsQuarantined(err error) bool { _, ok := err.(*quarantinedError); return ok }

// GrantedLease is what a worker receives: a batch of cell keys, the
// lease id to complete against, and the heartbeat deadline budget.
type GrantedLease struct {
	ID         uint64         `json:"lease"`
	Experiment string         `json:"experiment"`
	Keys       []core.CellKey `json:"keys"`
	TTLMS      int64          `json:"ttlMs"`
}

// Stats are the coordinator's lifetime dispatch tallies.
type Stats struct {
	Granted      uint64 // leases granted
	Expired      uint64 // leases expired (missed heartbeats / dead worker)
	Redispatched uint64 // straggler leases speculatively re-dispatched
	Duplicates   uint64 // duplicate cell completions (resolved last-write-wins)
	LocalCells   uint64 // cells run locally after the retry budget
	Completed    uint64 // cells finalized (first completion wins)
}

// walRecord is one frame of the dispatch WAL. Grants are the records
// that matter for recovery: replaying them restores each cell's
// dispatch-attempt count, so a coordinator crash cannot reset the retry
// budget. Expiry and duplicate frames document the lease table's
// history for post-mortems.
type walRecord struct {
	T      string         `json:"t"` // "grant" | "expire" | "dup" | "local"
	Lease  uint64         `json:"lease,omitempty"`
	Worker string         `json:"worker,omitempty"`
	Exp    string         `json:"exp,omitempty"`
	Keys   []core.CellKey `json:"keys,omitempty"`
}

// workerState tracks one worker's health across the campaign.
type workerState struct {
	leases      uint64
	expired     int
	quarantined bool
	completed   uint64
	lastBeat    time.Duration
}

// lease is one outstanding grant.
type lease struct {
	id       uint64
	worker   string
	set      *activeSet
	cells    []int
	granted  time.Duration
	deadline time.Duration
	redisp   bool // straggler re-dispatch already issued
}

// activeSet is the cell batch of the engine call currently being
// dispatched (one experiment's engine call at a time — the experiment
// driver is sequential).
type activeSet struct {
	experiment string
	cells      []core.Cell
	ids        []core.CellID
	keys       []core.CellKey
	byKey      map[core.CellKey]int
	finish     func(i int, st *capture.Stats, worker string) error
	done       []bool
	errs       []error
	pending    []int           // indices awaiting (re)dispatch
	eligible   []time.Duration // backoff gate per cell
	inflight   []int           // live leases covering each cell
	exhausted  []int           // cells past the retry budget, owed a local run
	remaining  int
	feeds      *core.FeedCache // local-fallback feed cache
	wg         sync.WaitGroup  // in-flight finish callbacks
}

// Coordinator shards campaign cells into leases. Configure the exported
// fields before serving; they are read-only afterwards.
type Coordinator struct {
	Campaign    string
	Fingerprint string

	LeaseTTL    time.Duration // 0 = DefaultLeaseTTL
	Straggler   time.Duration // 0 = 8×LeaseTTL; <0 disables straggler re-dispatch
	Backoff     time.Duration // 0 = DefaultBackoff
	MaxLease    int           // 0 = DefaultMaxLease
	RetryBudget int           // 0 = DefaultRetryBudget
	Strikeout   int           // 0 = DefaultStrikeout; <0 disables quarantine
	// LocalWorkers is the parallelism of local-fallback runs (the
	// Workers convention; 0 = serial).
	LocalWorkers int

	// Journal receives duplicate completions directly (last-write-wins);
	// first completions flow through the engine's done callback, which
	// records into the same journal. Set it to the campaign journal.
	Journal core.CellJournal
	// Observer receives lease-lifecycle events (EventLease,
	// EventLeaseExpired, straggler EventRetry) — the monitoring hub.
	Observer core.Observer
	// FS is the filesystem the lease-table WAL lives on; nil = the real
	// one. -diskchaos injects storage faults here: the WAL inherits the
	// journal's truncate-repair and pause-and-retry append, so a full
	// disk degrades grants to pauses, never to lost lease history.
	FS faultfs.FS

	// now is the coordinator-monotonic clock; tests inject their own.
	now func() time.Duration

	mu       sync.Mutex
	wal      *journal.Journal
	walErr   error
	attempts map[core.CellKey]int
	leases   map[uint64]*lease
	leaseSeq uint64
	workers  map[string]*workerState
	cur      *activeSet
	finished bool
	stats    Stats
	wake     chan struct{}
}

var _ core.CellExecutor = (*Coordinator)(nil)

// New builds a coordinator for the campaign with default tuning.
func New(campaign, fingerprint string) *Coordinator {
	start := time.Now() // monotonic base: time.Since reads the monotonic clock
	return &Coordinator{
		Campaign:    campaign,
		Fingerprint: fingerprint,
		now:         func() time.Duration { return time.Since(start) },
		attempts:    map[core.CellKey]int{},
		leases:      map[uint64]*lease{},
		workers:     map[string]*workerState{},
		wake:        make(chan struct{}, 1),
	}
}

func (c *Coordinator) ttl() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c *Coordinator) straggler() time.Duration {
	if c.Straggler < 0 {
		return 0 // disabled
	}
	if c.Straggler > 0 {
		return c.Straggler
	}
	return 8 * c.ttl()
}

func (c *Coordinator) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return DefaultBackoff
}

func (c *Coordinator) maxLease() int {
	if c.MaxLease > 0 {
		return c.MaxLease
	}
	return DefaultMaxLease
}

func (c *Coordinator) budget() int {
	if c.RetryBudget > 0 {
		return c.RetryBudget
	}
	return DefaultRetryBudget
}

func (c *Coordinator) strikeout() int {
	if c.Strikeout < 0 {
		return 0 // disabled
	}
	if c.Strikeout > 0 {
		return c.Strikeout
	}
	return DefaultStrikeout
}

// OpenWAL attaches the lease-table write-ahead log in dir — the same
// CRC-framed format as the campaign journal, stamped with the campaign
// fingerprint. With resume, prior grant frames are replayed so each
// cell's dispatch-attempt count survives a coordinator crash: killing
// the coordinator does not reset the retry budget. A resume with no WAL
// on disk (the campaign's first distributed run) starts a fresh one.
func (c *Coordinator) OpenWAL(dir string, resume bool) error {
	fsys := c.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	path := filepath.Join(dir, WALFile)
	if !resume {
		j, err := journal.CreateFS(fsys, path, c.Fingerprint)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.wal = j
		c.mu.Unlock()
		return nil
	}
	j, rec, err := journal.ResumeFS(fsys, path, c.Fingerprint)
	if os.IsNotExist(err) {
		j, err = journal.CreateFS(fsys, path, c.Fingerprint)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.wal = j
		c.mu.Unlock()
		return nil
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, raw := range rec.Records {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			j.Close()
			return fmt.Errorf("dispatch: corrupt WAL record in %s: %w", path, err)
		}
		if r.T == "grant" || r.T == "local" {
			for _, k := range r.Keys {
				c.attempts[k]++
			}
		}
	}
	c.wal = j
	return nil
}

// Close releases the WAL. The coordinator must be idle.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	err := c.wal.Close()
	c.wal = nil
	return err
}

// Finish marks the campaign complete: every subsequent lease request is
// refused with the done error, which workers turn into a clean exit.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
	c.wakeup()
}

// Stats returns a copy of the dispatch tallies.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Attempts reports the recorded dispatch-attempt count of a cell
// (including attempts replayed from the WAL on resume).
func (c *Coordinator) Attempts(k core.CellKey) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts[k]
}

// WorkerCells reports the cells finalized per worker.
func (c *Coordinator) WorkerCells() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.workers))
	for name, ws := range c.workers {
		out[name] = ws.completed
	}
	return out
}

func (c *Coordinator) wakeup() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// worker returns (creating if needed) the state of a worker. Callers
// hold c.mu.
func (c *Coordinator) workerLocked(name string) *workerState {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{}
		c.workers[name] = ws
	}
	return ws
}

func (c *Coordinator) observe(ev core.Event) {
	if c.Observer != nil {
		ev.Campaign = c.Campaign
		c.Observer.Observe(ev)
	}
}

// walAppendLocked journals one lease-table frame. Callers hold c.mu.
// Grant callers treat a failure as fatal for the grant; bookkeeping
// frames (expire, dup) record the first error and carry on — the
// campaign journal, not this WAL, is what result durability rests on.
func (c *Coordinator) walAppendLocked(r walRecord) error {
	if c.wal == nil {
		return nil
	}
	err := c.wal.Append(r)
	if err != nil && c.walErr == nil {
		c.walErr = err
	}
	return err
}

// ExecuteCells implements core.CellExecutor: it queues the cells for
// leasing and blocks until every cell is finalized (by a worker or the
// local fallback) or ctx is cancelled. One engine call at a time.
func (c *Coordinator) ExecuteCells(ctx context.Context, experiment string, cells []core.Cell, ids []core.CellID, done func(int, *capture.Stats, string) error) []error {
	st := &activeSet{
		experiment: experiment,
		cells:      cells,
		ids:        ids,
		keys:       make([]core.CellKey, len(cells)),
		byKey:      make(map[core.CellKey]int, len(cells)),
		finish:     done,
		done:       make([]bool, len(cells)),
		errs:       make([]error, len(cells)),
		eligible:   make([]time.Duration, len(cells)),
		inflight:   make([]int, len(cells)),
		remaining:  len(cells),
		feeds:      core.NewFeedCache(core.DefaultFeedCacheSize),
	}
	for i := range cells {
		st.keys[i] = core.CellKey{Experiment: experiment, Point: ids[i].Point,
			System: cells[i].Cfg.Name, Rep: ids[i].Rep}
		st.byKey[st.keys[i]] = i
		st.pending = append(st.pending, i)
	}

	c.mu.Lock()
	if c.cur != nil {
		c.mu.Unlock()
		panic("dispatch: concurrent ExecuteCells")
	}
	c.cur = st
	c.mu.Unlock()
	c.wakeup() // a worker may already be polling

	defer func() {
		c.mu.Lock()
		c.cur = nil
		// Leases of this set are void; late completions become duplicates.
		for id, l := range c.leases {
			if l.set == st {
				delete(c.leases, id)
			}
		}
		c.mu.Unlock()
		// Finish callbacks run outside the lock; wait for stragglers so
		// the engine can read its result slots race-free.
		st.wg.Wait()
	}()

	tick := c.ttl() / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		c.mu.Lock()
		c.sweepLocked()
		locals := st.exhausted
		st.exhausted = nil
		rem := st.remaining
		c.mu.Unlock()

		if len(locals) > 0 {
			c.runLocal(ctx, st, locals)
			continue
		}
		if rem == 0 {
			return st.errs
		}
		if err := ctx.Err(); err != nil {
			c.mu.Lock()
			for i := range st.done {
				if !st.done[i] && st.errs[i] == nil {
					st.errs[i] = err
				}
			}
			c.mu.Unlock()
			return st.errs
		}
		select {
		case <-ctx.Done():
		case <-c.wake:
		case <-ticker.C:
		}
	}
}

// sweepLocked expires overdue leases and speculatively re-dispatches
// stragglers. Callers hold c.mu.
func (c *Coordinator) sweepLocked() {
	st := c.cur
	now := c.now()
	for id, l := range c.leases {
		if l.set != st {
			delete(c.leases, id)
			continue
		}
		if now >= l.deadline {
			delete(c.leases, id)
			c.stats.Expired++
			ws := c.workerLocked(l.worker)
			ws.expired++
			if so := c.strikeout(); so > 0 && ws.expired >= so {
				ws.quarantined = true
			}
			lost := 0
			for _, i := range l.cells {
				st.inflight[i]--
				if !st.done[i] && st.inflight[i] <= 0 {
					c.requeueLocked(st, i)
					lost++
				}
			}
			c.walAppendLocked(walRecord{T: "expire", Lease: l.id, Worker: l.worker})
			c.observe(core.Event{Kind: core.EventLeaseExpired, Experiment: st.experiment,
				Worker: l.worker,
				Detail: fmt.Sprintf("lease %d expired (%d cells back in queue)", l.id, lost)})
			continue
		}
		if str := c.straggler(); str > 0 && !l.redisp && now-l.granted >= str {
			l.redisp = true
			n := 0
			for _, i := range l.cells {
				if !st.done[i] {
					st.pending = append(st.pending, i)
					n++
				}
			}
			if n > 0 {
				c.stats.Redispatched++
				c.observe(core.Event{Kind: core.EventRetry, Experiment: st.experiment,
					Worker: l.worker,
					Detail: fmt.Sprintf("straggler: lease %d open after %s; %d cells re-dispatched", l.id, str, n)})
			}
		}
	}
}

// requeueLocked returns a cell to the dispatch queue with doubling
// backoff, or routes it to the local-fallback list once its dispatch
// budget is spent. Callers hold c.mu.
func (c *Coordinator) requeueLocked(st *activeSet, i int) {
	n := c.attempts[st.keys[i]]
	if n > c.budget() {
		st.exhausted = append(st.exhausted, i)
		c.wakeup()
		return
	}
	shift := n - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 10 {
		shift = 10
	}
	st.eligible[i] = c.now() + c.backoff()<<uint(shift)
	st.pending = append(st.pending, i)
}

// Lease grants up to max eligible cells to the worker. A nil, nil
// return means nothing is leasable right now (the worker should poll
// again); errors are typed: *FingerprintError (mismatched options),
// quarantine, campaign-done.
func (c *Coordinator) Lease(worker, fingerprint string, max int) (*GrantedLease, error) {
	if fingerprint != c.Fingerprint {
		return nil, &FingerprintError{Want: c.Fingerprint, Got: fingerprint}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return nil, doneError{}
	}
	ws := c.workerLocked(worker)
	if ws.quarantined {
		return nil, &quarantinedError{worker: worker}
	}
	st := c.cur
	if st == nil {
		return nil, nil
	}
	// Expire before granting: a dead worker's cells become grantable the
	// moment a healthy worker asks, not a sweep tick later.
	c.sweepLocked()
	if max <= 0 || max > c.maxLease() {
		max = c.maxLease()
	}
	now := c.now()
	var take []int
	keep := st.pending[:0]
	for _, i := range st.pending {
		if st.done[i] {
			continue // lazily drop entries finished by another path
		}
		if len(take) < max && now >= st.eligible[i] {
			take = append(take, i)
			continue
		}
		keep = append(keep, i)
	}
	st.pending = keep
	if len(take) == 0 {
		return nil, nil
	}
	keys := make([]core.CellKey, len(take))
	for bi, i := range take {
		keys[bi] = st.keys[i]
	}
	// The grant frame goes to the WAL before the lease exists: an
	// attempt the worker might observe must be an attempt a resumed
	// coordinator still counts.
	c.leaseSeq++
	id := c.leaseSeq
	if err := c.walAppendLocked(walRecord{T: "grant", Lease: id, Worker: worker,
		Exp: st.experiment, Keys: keys}); err != nil {
		st.pending = append(st.pending, take...)
		return nil, err
	}
	l := &lease{id: id, worker: worker, set: st, cells: take,
		granted: now, deadline: now + c.ttl()}
	c.leases[id] = l
	for _, i := range take {
		st.inflight[i]++
		c.attempts[st.keys[i]]++
	}
	ws.leases++
	c.stats.Granted++
	c.observe(core.Event{Kind: core.EventLease, Experiment: st.experiment, Worker: worker,
		Detail: fmt.Sprintf("lease %d: %d cells", id, len(take))})
	return &GrantedLease{ID: id, Experiment: st.experiment, Keys: keys,
		TTLMS: c.ttl().Milliseconds()}, nil
}

// Heartbeat extends the deadlines of every lease the worker holds.
func (c *Coordinator) Heartbeat(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, l := range c.leases {
		if l.worker == worker {
			l.deadline = now + c.ttl()
		}
	}
	c.workerLocked(worker).lastBeat = now
}

// Complete ingests a worker's outcomes for a lease. The first
// completion of a cell finalizes it through the engine's done callback;
// later copies — a straggler's late answer, a completion racing an
// expiry — are recorded into the campaign journal as duplicates, where
// the last-write-wins rule resolves them deterministically (cells are
// deterministic, so every copy is byte-identical). failed lists cells
// the worker could not measure; they are re-queued immediately. An
// expired (unknown) lease does not invalidate the data: finished work is
// finished work.
func (c *Coordinator) Complete(worker, fingerprint string, leaseID uint64, recs []Record, failed []core.CellKey) error {
	if fingerprint != "" && fingerprint != c.Fingerprint {
		return &FingerprintError{Want: c.Fingerprint, Got: fingerprint}
	}
	type fin struct {
		i   int
		out core.CellOutcome
	}
	var fins []fin
	var dups []Record

	c.mu.Lock()
	st := c.cur
	l := c.leases[leaseID]
	if l != nil && l.set == st {
		delete(c.leases, leaseID)
		for _, i := range l.cells {
			st.inflight[i]--
		}
	} else {
		l = nil
	}
	ws := c.workerLocked(worker)
	if st != nil {
		for _, r := range recs {
			if !r.Out.OK {
				continue
			}
			i, ok := st.byKey[r.Key]
			if !ok {
				continue // not this engine call's cell (stale experiment)
			}
			if st.done[i] {
				dups = append(dups, r)
				continue
			}
			st.done[i] = true
			st.remaining--
			fins = append(fins, fin{i: i, out: r.Out})
		}
		// Cells of the lease that came back failed — or not at all —
		// return to the queue as soon as no other lease covers them.
		if l != nil {
			for _, i := range l.cells {
				if !st.done[i] && st.inflight[i] <= 0 {
					c.requeueLocked(st, i)
				}
			}
		}
	} else {
		for _, r := range recs {
			if r.Out.OK {
				dups = append(dups, r)
			}
		}
	}
	ws.completed += uint64(len(fins))
	c.stats.Completed += uint64(len(fins))
	if len(dups) > 0 {
		c.stats.Duplicates += uint64(len(dups))
		keys := make([]core.CellKey, len(dups))
		for i, r := range dups {
			keys[i] = r.Key
		}
		c.walAppendLocked(walRecord{T: "dup", Lease: leaseID, Worker: worker, Keys: keys})
	}
	if st != nil {
		st.wg.Add(len(fins))
	}
	c.mu.Unlock()

	var err error
	for _, f := range fins {
		out := f.out
		if e := st.finish(f.i, &out.Stats, worker); e != nil {
			c.mu.Lock()
			st.errs[f.i] = e
			c.mu.Unlock()
			if err == nil {
				err = e
			}
		}
		st.wg.Done()
	}
	for _, r := range dups {
		if c.Journal != nil {
			if e := c.Journal.Record(r.Key, r.Out); e != nil && err == nil {
				err = e
			}
		}
	}
	c.wakeup()
	return err
}

// runLocal measures budget-exhausted cells on the coordinator itself:
// the guarantee that a campaign terminates even if every worker keeps
// losing leases.
func (c *Coordinator) runLocal(ctx context.Context, st *activeSet, idxs []int) {
	cells := make([]core.Cell, len(idxs))
	ids := make([]core.CellID, len(idxs))
	keys := make([]core.CellKey, len(idxs))
	for bi, i := range idxs {
		cells[bi] = st.cells[i]
		keys[bi] = st.keys[i]
		ids[bi] = core.CellID{Point: keys[bi].Point, Rep: keys[bi].Rep}
	}
	c.mu.Lock()
	c.walAppendLocked(walRecord{T: "local", Exp: st.experiment, Keys: keys})
	c.stats.LocalCells += uint64(len(idxs))
	c.mu.Unlock()
	c.observe(core.Event{Kind: core.EventRetry, Experiment: st.experiment, Worker: "coordinator",
		Detail: fmt.Sprintf("retry budget exhausted: running %d cells locally", len(idxs))})
	outs, errs := core.Run(ctx, cells, ids, core.RunOptions{Workers: c.LocalWorkers, Feeds: st.feeds})
	for bi, i := range idxs {
		c.mu.Lock()
		if st.done[i] { // a worker raced us to it after all
			c.mu.Unlock()
			if errs[bi] == nil && c.Journal != nil {
				c.stats.Duplicates++
				c.Journal.Record(st.keys[i], outs[bi])
			}
			continue
		}
		st.done[i] = true
		st.remaining--
		if errs[bi] != nil {
			st.errs[i] = errs[bi]
			c.mu.Unlock()
			continue
		}
		st.wg.Add(1)
		c.mu.Unlock()
		if e := st.finish(i, &outs[bi].Stats, "coordinator"); e != nil {
			c.mu.Lock()
			st.errs[i] = e
			c.mu.Unlock()
		}
		st.wg.Done()
	}
}
