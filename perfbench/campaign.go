package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/monitor"
)

// frontObserver sits in front of the monitoring hub: it stamps the time
// the engine publishes each cell event (the start of the event-lag
// interval), keeps the cell's statistics for the correctness gate, and in
// a traced run adds a monitor.publish span around the hub.
type frontObserver struct {
	hub *monitor.Hub
	tr  *tracer // nil when untraced

	mu    sync.Mutex
	sent  map[core.CellKey]time.Time
	stats map[core.CellKey]*capture.Stats
	cells int // cell events published
}

func (f *frontObserver) Observe(ev core.Event) {
	if ev.Kind == core.EventCell && ev.Stats != nil {
		k := core.CellKey{Experiment: ev.Experiment, Point: ev.Point, System: ev.System, Rep: ev.Rep}
		f.mu.Lock()
		f.sent[k] = time.Now()
		f.stats[k] = ev.Stats
		f.cells++
		f.mu.Unlock()
	}
	if f.tr == nil {
		f.hub.Observe(ev)
		return
	}
	s := f.tr.start("monitor.publish", ev.Kind.String(), f.tr.root.Load())
	f.hub.Observe(ev)
	f.tr.finish(&s)
}

func (f *frontObserver) sentAt(k core.CellKey) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.sent[k]
	return t, ok
}

// rig is one journaled, distributed, monitored campaign: the campaign
// journal in a fresh directory, an in-process dispatch coordinator, one
// loopback dispatch worker running its cells two at a time, a monitoring
// hub and registry behind an HTTP listener, and one SSE subscriber.
type rig struct {
	id    string
	dir   string
	opts  experiments.Options // engine options of the fresh run
	camp  *experiments.Campaign
	coord *dispatch.Coordinator
	hub   *monitor.Hub
	front *frontObserver
	srv   *http.Server
	base  string
	rt    *timingTransport // traced runs only

	cancel     context.CancelFunc
	workerDone chan error
	sseDone    chan struct{}
	lags       []float64 // ms, written by the SSE goroutine until sseDone
	unmatched  int
}

// newRig stands a campaign up. This is the campaign's set-up: everything
// before the first cell is leased.
func newRig(tmpRoot string, o experiments.Options, tr *tracer) (r *rig, err error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "campaign-")
	if err != nil {
		return nil, err
	}
	r = &rig{id: filepath.Base(dir), dir: dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.camp, err = experiments.CreateCampaign(dir, o); err != nil {
		return r, err
	}
	fp, err := experiments.Fingerprint(o)
	if err != nil {
		return r, err
	}
	r.coord = dispatch.New(r.id, fp)
	r.coord.LocalWorkers = o.Parallelism
	if err := r.coord.OpenWAL(dir, false); err != nil {
		return r, err
	}
	r.hub = monitor.NewHub()
	reg := monitor.NewRegistry()
	reg.Attach(r.hub)
	r.front = &frontObserver{hub: r.hub, tr: tr,
		sent: map[core.CellKey]time.Time{}, stats: map[core.CellKey]*capture.Stats{}}

	var journal core.CellJournal = r.camp
	var exec core.CellExecutor = r.coord
	if tr != nil {
		journal = tracedJournal{tr: tr, inner: r.camp}
		exec = timedExecutor{tr: tr, inner: r.coord}
	}
	r.camp.Observer = r.front
	r.coord.Observer = r.front
	r.coord.Journal = journal
	r.opts = o
	r.opts.Journal, r.opts.Observer, r.opts.Executor = journal, r.front, exec

	mux := http.NewServeMux()
	r.coord.Register(mux)
	mux.Handle("/", monitor.NewServer(r.hub, reg).Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	r.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go r.srv.Serve(ln)
	r.base = "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	// The stream endpoint knows a live campaign once it has published.
	r.front.Observe(core.Event{Kind: core.EventCampaignStart, Campaign: r.id, Detail: fp})
	if err := r.subscribe(ctx); err != nil {
		return r, err
	}

	wo := o
	wo.Ctx, wo.Journal, wo.Observer, wo.Executor = nil, nil, nil, nil
	w := &dispatch.Worker{ID: "bench-1", BaseURL: r.base, Options: wo, Poll: 10 * time.Millisecond}
	if tr != nil {
		r.rt = &timingTransport{tr: tr, worker: w.ID, base: http.DefaultTransport}
		w.Client = &http.Client{Timeout: dispatch.DefaultClientTimeout, Transport: r.rt}
	}
	r.workerDone = make(chan error, 1)
	go func() { r.workerDone <- w.Run(ctx) }()
	return r, nil
}

// subscribe connects the SSE client and returns once the stream is open.
// Every cell event it receives becomes one event-lag sample.
func (r *rig) subscribe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/api/campaigns/"+r.id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("sse: HTTP %d", resp.StatusCode)
	}
	r.sseDone = make(chan struct{})
	go func() {
		defer close(r.sseDone)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		kind := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = line[len("event: "):]
			case strings.HasPrefix(line, "data: ") && kind == "cell":
				at := time.Now()
				var we struct {
					Experiment string `json:"experiment"`
					Point      uint64 `json:"point"`
					System     string `json:"system"`
					Rep        int    `json:"rep"`
				}
				if json.Unmarshal([]byte(line[len("data: "):]), &we) != nil {
					r.unmatched++
					continue
				}
				sent, ok := r.front.sentAt(core.CellKey{Experiment: we.Experiment, Point: we.Point, System: we.System, Rep: we.Rep})
				if !ok {
					r.unmatched++
					continue
				}
				r.lags = append(r.lags, float64(at.Sub(sent))/float64(time.Millisecond))
			}
		}
	}()
	return nil
}

// run measures the campaign's experiments through the coordinator and
// returns their rendered tables.
func (r *rig) run(ids []string, tr *tracer) (map[string]string, error) {
	return runExperiments(ids, r.opts, tr)
}

// finish ends the campaign: the closing event (which ends the SSE
// stream), the coordinator's completion (which ends the worker), and a
// final /metrics scrape. It returns the scraped cell count.
func (r *rig) finish() (cells int, err error) {
	r.front.Observe(core.Event{Kind: core.EventCampaignFinish, Campaign: r.id})
	r.coord.Finish()
	if werr := waitOrCancel(r.workerDone, r.cancel); werr != nil {
		err = fmt.Errorf("dispatch worker: %w", werr)
	}
	r.workerDone = nil
	select {
	case <-r.sseDone:
	case <-time.After(10 * time.Second):
		r.cancel()
		<-r.sseDone
	}
	n, serr := scrapeCells(r.base + "/metrics")
	if err == nil {
		err = serr
	}
	return n, err
}

func waitOrCancel(done <-chan error, cancel context.CancelFunc) error {
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			return err
		}
		return errors.New("did not stop within 30s of the campaign's end")
	}
}

// scrapeCells reads repro_cells_completed_total from a /metrics page.
func scrapeCells(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "repro_cells_completed_total "); ok {
			return strconv.Atoi(strings.TrimSpace(v))
		}
	}
	return 0, fmt.Errorf("metrics: no repro_cells_completed_total")
}

// close releases everything the rig holds, in reverse order of set-up,
// and waits for the goroutines it started.
func (r *rig) close() {
	if r.cancel != nil {
		r.cancel()
	}
	if r.workerDone != nil {
		<-r.workerDone
		r.workerDone = nil
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.sseDone != nil {
		<-r.sseDone
	}
	if r.coord != nil {
		r.coord.Close()
	}
	if r.camp != nil {
		r.camp.Close()
	}
	os.RemoveAll(r.dir)
}

// resume reopens the finished campaign from its journal and renders it
// again: every cell is replayed, none runs.
func (r *rig) resume(ids []string, o experiments.Options, tr *tracer) (map[string]string, time.Duration, error) {
	t0 := time.Now()
	var rs span
	if tr != nil {
		rs = tr.start("journal.replay", r.id, 0)
	}
	c, err := experiments.ResumeCampaign(r.dir, o)
	if tr != nil {
		tr.finish(&rs)
	}
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	o.Journal = c
	if tr != nil {
		o.Journal = tracedJournal{tr: tr, inner: c}
	}
	texts, err := runExperiments(ids, o, tr)
	return texts, time.Since(t0), err
}
