// Worker side of the dispatch protocol: a stateless measurement
// process that discovers the coordinator, verifies it is serving the
// same campaign (fingerprint match is mandatory — a worker measuring
// under different options would poison the journal), then loops:
// lease, measure, complete, until the coordinator says the campaign is
// done.
//
// Workers hold no shard assignment and no campaign state, so any number
// can join or die at any time. A worker enumerates each experiment's
// cell space locally from its own Options (experiments.EnumerateCells)
// and resolves leased cell keys against it; the fingerprint guarantees
// both sides enumerate identical cells.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Worker defaults.
const (
	// DefaultPoll is the idle re-poll interval when no cells are
	// leasable.
	DefaultPoll = 200 * time.Millisecond
	// DefaultHeartbeat is the lease keep-alive interval; it must be
	// comfortably under the coordinator's lease TTL.
	DefaultHeartbeat = 1 * time.Second
	// DefaultConnectWait bounds how long a starting worker waits for the
	// coordinator to answer discovery.
	DefaultConnectWait = 60 * time.Second
	// DefaultClientTimeout caps a whole HTTP exchange on the worker's
	// default client — without it a slow-loris coordinator (or a fault
	// injector impersonating one) can pin a worker forever.
	DefaultClientTimeout = 15 * time.Second
	// DefaultCallTimeout is the per-request context deadline layered
	// under the client timeout; one protocol call never outlives it.
	DefaultCallTimeout = 10 * time.Second
	// DefaultCallRetries is how many times a lease/complete call is
	// retried in place (with backoff) before the caller's own
	// miss-handling takes over.
	DefaultCallRetries = 3
	// DefaultRetryBackoff is the base backoff between in-place retries;
	// it doubles per attempt with deterministic jitter.
	DefaultRetryBackoff = 50 * time.Millisecond
	// shutdownGrace is how many consecutive transport errors a worker
	// tolerates after first contact before concluding the coordinator
	// exited (the normal end of a campaign whose final lease went to
	// someone else).
	shutdownGrace = 30
)

// defaultWorkerClient replaces the old http.DefaultClient fallback,
// which has no timeout at all.
var defaultWorkerClient = &http.Client{Timeout: DefaultClientTimeout}

// FingerprintMismatchError is the worker-side typed refusal: this
// worker's options hash to a different campaign than the coordinator is
// serving. The CLI maps it to exit code 2 (usage error) — it means the
// operator started the worker with misaligned flags.
type FingerprintMismatchError struct{ Mine, Theirs string }

func (e *FingerprintMismatchError) Error() string {
	return fmt.Sprintf("dispatch: refusing lease: coordinator campaign fingerprint %.12s… does not match this worker's options (%.12s…) — align -packets/-reps/-seed/-rates/-policy with the coordinator",
		e.Theirs, e.Mine)
}

// Worker runs the lease-measure-complete loop against a coordinator.
type Worker struct {
	// ID names this worker in leases, events, and metrics.
	ID string
	// BaseURL is the coordinator's HTTP root, e.g. "http://host:8344".
	BaseURL string
	// Options are this worker's experiment options. Their fingerprint
	// must match the coordinator's; runtime knobs (Ctx, Journal,
	// Observer, Executor) are ignored — Parallelism is honored for the
	// worker's own cell runs.
	Options experiments.Options

	Client      *http.Client  // nil = a shared client with DefaultClientTimeout
	Poll        time.Duration // 0 = DefaultPoll
	Heartbeat   time.Duration // 0 = DefaultHeartbeat
	ConnectWait time.Duration // 0 = DefaultConnectWait
	CallTimeout time.Duration // per-request deadline; 0 = DefaultCallTimeout
	Retries     int           // in-place retries per call; 0 = DefaultCallRetries, <0 = none
	Backoff     time.Duration // base retry backoff; 0 = DefaultRetryBackoff
	// Breaker gates every coordinator call; nil builds one with the
	// defaults at Run time.
	Breaker  *Breaker
	MaxCells int // per-lease cell cap to request; 0 = coordinator default
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)

	fingerprint string
	campaign    string
	sets        map[string]*experiments.CellSet
	feeds       map[string]*core.FeedCache
	jitter      uint64 // splitmix64 state for retry jitter, seeded from ID
	jmu         sync.Mutex
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return defaultWorkerClient
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

// Run executes the worker loop until the campaign completes (nil), ctx
// is cancelled (ctx.Err()), or the coordinator refuses this worker
// (*FingerprintMismatchError, quarantine). A coordinator that vanishes
// after first contact is treated as a completed campaign: the normal
// shutdown race when the final lease was someone else's.
func (w *Worker) Run(ctx context.Context) error {
	var err error
	w.fingerprint, err = experiments.Fingerprint(w.Options)
	if err != nil {
		return err
	}
	w.sets = map[string]*experiments.CellSet{}
	w.feeds = map[string]*core.FeedCache{}
	if w.Breaker == nil {
		w.Breaker = NewBreaker(0, 0)
	}
	w.jitter = hash64(w.ID) | 1

	if err := w.awaitCoordinator(ctx); err != nil {
		return err
	}
	w.logf("worker %s: joined campaign %s", w.ID, w.campaign)

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	return w.leaseLoop(ctx)
}

// awaitCoordinator polls discovery until the coordinator answers,
// verifying the fingerprint before any lease is requested. A mismatch
// must be seen on consecutive polls before it is believed: a single
// corrupted response (injected or real) must not permanently turn away
// a correctly configured worker.
func (w *Worker) awaitCoordinator(ctx context.Context) error {
	deadline := time.Now().Add(w.connectWait())
	mismatches := 0
	for {
		info, err := w.discover(ctx)
		if err == nil {
			if info.Fingerprint != w.fingerprint {
				mismatches++
				if mismatches >= 3 {
					return &FingerprintMismatchError{Mine: w.fingerprint, Theirs: info.Fingerprint}
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(w.poll()):
				}
				continue
			}
			w.campaign = info.Campaign
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dispatch: no coordinator at %s after %s: %w", w.BaseURL, w.connectWait(), err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.poll()):
		}
	}
}

func (w *Worker) connectWait() time.Duration {
	if w.ConnectWait > 0 {
		return w.ConnectWait
	}
	return DefaultConnectWait
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return DefaultPoll
}

func (w *Worker) heartbeat() time.Duration {
	if w.Heartbeat > 0 {
		return w.Heartbeat
	}
	return DefaultHeartbeat
}

func (w *Worker) callTimeout() time.Duration {
	if w.CallTimeout > 0 {
		return w.CallTimeout
	}
	return DefaultCallTimeout
}

func (w *Worker) retries() int {
	switch {
	case w.Retries > 0:
		return w.Retries
	case w.Retries < 0:
		return 0
	default:
		return DefaultCallRetries
	}
}

func (w *Worker) backoff() time.Duration {
	if w.Backoff > 0 {
		return w.Backoff
	}
	return DefaultRetryBackoff
}

// hash64 is FNV-1a, used to seed the per-worker jitter stream so two
// workers retrying the same outage do not march in lockstep.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// nextJitter draws a deterministic fraction in [0,1) from the worker's
// splitmix64 stream.
func (w *Worker) nextJitter() float64 {
	w.jmu.Lock()
	defer w.jmu.Unlock()
	w.jitter += 0x9e3779b97f4a7c15
	z := w.jitter
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// retryDelay is the backoff before retry attempt (1-based): base·2^(a-1)
// scaled by a deterministic jitter factor in [0.5, 1.5).
func (w *Worker) retryDelay(attempt int) time.Duration {
	d := w.backoff() << uint(attempt-1)
	return time.Duration(float64(d) * (0.5 + w.nextJitter()))
}

func (w *Worker) discover(ctx context.Context) (*infoResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, w.callTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.BaseURL+"/api/dispatch", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dispatch: discovery: HTTP %d", resp.StatusCode)
	}
	var info infoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.heartbeat())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.post(ctx, "heartbeat", heartbeatRequest{Worker: w.ID}, nil)
		}
	}
}

// leaseLoop is the worker's main loop. Transport errors after first
// contact are tolerated up to shutdownGrace consecutive failures — a
// coordinator that finished and exited stops answering, and that is a
// success, not a failure.
func (w *Worker) leaseLoop(ctx context.Context) error {
	misses := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var l GrantedLease
		status, err := w.postRetry(ctx, "lease", leaseRequest{
			Worker: w.ID, Fingerprint: w.fingerprint, Max: w.MaxCells,
		}, &l)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			misses++
			if misses >= shutdownGrace {
				w.logf("worker %s: coordinator gone; assuming campaign finished", w.ID)
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.poll()):
			}
			continue
		}
		misses = 0
		switch status {
		case http.StatusOK:
			if err := w.serveLease(ctx, &l); err != nil {
				return err
			}
		case http.StatusNoContent:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.poll()):
			}
		case http.StatusGone:
			w.logf("worker %s: campaign complete", w.ID)
			return nil
		case http.StatusNotFound:
			// The campaign id may be stale — learned from a corrupted
			// discovery response, or the coordinator restarted with a new
			// campaign. Re-discover (fingerprint still must match) and
			// treat it as a miss.
			if info, derr := w.discover(ctx); derr == nil && info.Fingerprint == w.fingerprint {
				w.campaign = info.Campaign
			}
			misses++
			if misses >= shutdownGrace {
				w.logf("worker %s: campaign unknown to coordinator; giving up", w.ID)
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.poll()):
			}
		case http.StatusConflict:
			return &FingerprintMismatchError{Mine: w.fingerprint}
		case http.StatusForbidden:
			return fmt.Errorf("dispatch: worker %s was quarantined by the coordinator", w.ID)
		default:
			return fmt.Errorf("dispatch: lease request: HTTP %d", status)
		}
	}
}

// serveLease measures a lease's cells and reports the outcomes.
func (w *Worker) serveLease(ctx context.Context, l *GrantedLease) error {
	set, err := w.cellSet(l.Experiment)
	if err != nil {
		return err
	}
	var cells []core.Cell
	var ids []core.CellID
	var okIdx []int
	var failed []core.CellKey
	for _, k := range l.Keys {
		i, ok := set.Find(k)
		if !ok {
			// Enumeration disagrees despite a matching fingerprint: a
			// bug, but one cell's worth — report it failed, keep going.
			failed = append(failed, k)
			continue
		}
		cells = append(cells, set.Cells[i])
		ids = append(ids, set.IDs[i])
		okIdx = append(okIdx, i)
	}
	var recs []Record
	if len(cells) > 0 {
		feeds := w.feeds[l.Experiment]
		if feeds == nil {
			feeds = core.NewFeedCache(core.DefaultFeedCacheSize)
			w.feeds[l.Experiment] = feeds
		}
		outs, errs := core.Run(ctx, cells, ids, core.RunOptions{Workers: w.Options.Parallelism, Feeds: feeds})
		for bi, i := range okIdx {
			k := core.CellKey{Experiment: l.Experiment, Point: set.IDs[i].Point,
				System: set.Cells[i].Cfg.Name, Rep: set.IDs[i].Rep}
			if errs[bi] != nil {
				failed = append(failed, k)
				continue
			}
			recs = append(recs, Record{Key: k, Out: outs[bi]})
		}
	}
	if err := ctx.Err(); err != nil {
		return err // don't report partial work on cancellation; the lease will expire
	}
	w.logf("worker %s: lease %d: %d cells measured, %d failed", w.ID, l.ID, len(recs), len(failed))
	status, err := w.postRetry(ctx, "complete", completeRequest{
		Worker: w.ID, Fingerprint: w.fingerprint, Lease: l.ID,
		Records: recs, Failed: failed,
	}, nil)
	if err != nil {
		// The completion is lost; the lease expires and the cells are
		// re-dispatched. Correct, just wasteful — keep going.
		w.logf("worker %s: completion of lease %d failed: %v", w.ID, l.ID, err)
		return nil
	}
	if status == http.StatusConflict {
		return &FingerprintMismatchError{Mine: w.fingerprint}
	}
	return nil
}

// cellSet lazily enumerates (and caches) one experiment's cell space.
func (w *Worker) cellSet(id string) (*experiments.CellSet, error) {
	if s := w.sets[id]; s != nil {
		return s, nil
	}
	s, err := experiments.EnumerateCells(id, w.Options)
	if err != nil {
		return nil, err
	}
	w.sets[id] = s
	return s, nil
}

// post sends one JSON request to a campaign-scoped endpoint and decodes
// the response into out when it is 200 and out is non-nil. It returns
// the HTTP status; transport-level failures return an error. Every call
// runs under its own deadline and through the worker's circuit breaker:
// an open breaker fails fast with ErrBreakerOpen and no network
// traffic. Any response from the coordinator — even a 4xx — closes the
// breaker; transport errors, 5xx, and undecodable 200s open it.
func (w *Worker) post(ctx context.Context, verb string, body, out any) (int, error) {
	if w.Breaker != nil && !w.Breaker.Allow() {
		return 0, fmt.Errorf("dispatch: %s: %w", verb, ErrBreakerOpen)
	}
	status, err := w.post1(ctx, verb, body, out)
	if w.Breaker != nil {
		if err != nil || status >= 500 {
			w.Breaker.Failure()
		} else {
			w.Breaker.Success()
		}
	}
	return status, err
}

func (w *Worker) post1(ctx context.Context, verb string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, w.callTimeout())
	defer cancel()
	url := fmt.Sprintf("%s/api/campaigns/%s/%s", w.BaseURL, w.campaign, verb)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("dispatch: %s: undecodable response: %w", verb, err)
		}
	}
	return resp.StatusCode, nil
}

// postRetry is post with bounded in-place retries: transport errors,
// 5xx statuses, and undecodable 200 bodies are retried with doubling,
// jittered backoff. Both calls that use it are idempotent on the
// coordinator — a replayed lease request just grants a fresh lease (the
// orphan expires), and replayed completions resolve last-write-wins —
// so retrying after an ambiguous failure (request may or may not have
// been processed) is always safe.
func (w *Worker) postRetry(ctx context.Context, verb string, body, out any) (int, error) {
	var status int
	var err error
	for attempt := 0; ; attempt++ {
		status, err = w.post(ctx, verb, body, out)
		if err == nil && status < 500 {
			return status, nil
		}
		if err == nil {
			err = fmt.Errorf("dispatch: %s: HTTP %d", verb, status)
		}
		if attempt >= w.retries() || ctx.Err() != nil {
			return status, err
		}
		select {
		case <-ctx.Done():
			return status, ctx.Err()
		case <-time.After(w.retryDelay(attempt + 1)):
		}
	}
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
