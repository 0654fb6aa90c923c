package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/server"
)

// dtndSweep is the dtnd_sweep input: a four-protocol sweep over the
// CityScale world with two seeds derived from the workload seed, so the
// sweep's content addresses are new for every workload seed.
func dtndSweep(o options) experiment.SweepSpec {
	base := experiment.ScenarioSpec{
		Preset:   "cityscale",
		Duration: experiment.Ptr(300.0),
		Seeds:    []int64{2*o.seed - 1, 2 * o.seed},
	}
	if o.size == "small" {
		base.Nodes, base.Duration = experiment.Ptr(1000), experiment.Ptr(20.0)
	}
	return experiment.SweepSpec{Base: base, Protocols: []string{"EER", "CR", "MaxProp", "SprayAndWait"}}
}

// warmSeconds is the length of the closed-loop warm phase.
func warmSeconds(o options) time.Duration {
	if o.size == "small" {
		return 300 * time.Millisecond
	}
	return 2 * time.Second
}

// dtndRun holds one dtnd_sweep repetition's daemon and client.
type dtndRun struct {
	o      options
	tr     *tracer
	r      *repResult
	base   string
	client *http.Client
	ctx    context.Context

	hitsNs []int64 // latency of each timed warm request
	hitsS  float64 // length of the timed warm loop
}

// runDtnd starts an in-process dtnd on loopback over an empty cache
// directory, submits the sweep cold (one live recording per seed, the
// other cells replay) and follows its stream to the terminal line, then
// has nproc closed-loop clients resubmit the cached cells and the sweep
// until the warm phase ends.
func runDtnd(o options, tr *tracer) repResult {
	r := repResult{Digests: map[string]string{}}
	if tr != nil {
		r.Layers = map[string]float64{}
	}
	if err := os.MkdirAll(filepath.Join(o.out, "tmp"), 0o755); err != nil {
		r.fail("scratch dir: %v", err)
		return r
	}
	dir, err := os.MkdirTemp(filepath.Join(o.out, "tmp"), "dtnd-cache-")
	if err != nil {
		r.fail("cache dir: %v", err)
		return r
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	lane := tr.open(laneSpan, 0)
	defer tr.close(lane)

	clients := runtime.NumCPU()
	d := &dtndRun{o: o, tr: tr, r: &r, ctx: ctx, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns: clients + 4, MaxIdleConnsPerHost: clients + 4,
	}}}
	defer d.client.CloseIdleConnections()

	t0 := time.Now()
	sp := tr.open("server.start", lane)
	srv, err := server.New(server.Config{CacheDir: dir})
	if err != nil {
		r.fail("server.New: %v", err)
		return r
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fail("listen: %v", err)
		return r
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed after Shutdown below
	}()
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		hs.Shutdown(sctx) // a timeout leaves only idle streams; Serve has returned either way
		<-served
	}()
	d.base = "http://" + ln.Addr().String()
	for {
		code, _, err := d.do("GET", "/v1/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(t0) > 10*time.Second {
			r.fail("healthz never answered 200: %d %v", code, err)
			return r
		}
	}
	r.SetupS = time.Since(t0).Seconds()
	tr.close(sp)

	sw := dtndSweep(o)
	cells, err := sw.Cells()
	if err != nil {
		r.fail("sweep cells: %v", err)
		return r
	}
	cold, jobIDs := d.coldSweep(sw, cells, lane)
	if cold == nil {
		return r
	}
	if tr == nil {
		d.warm(sw, cells, cold, clients)
		return r
	}
	before, err := loadgen.FetchServerLatency(ctx, d.client, d.base)
	if err != nil {
		r.fail("metrics: %v", err)
		return r
	}
	d.warm(sw, cells, cold, clients)
	after, err := loadgen.FetchServerLatency(ctx, d.client, d.base)
	if err != nil {
		r.fail("metrics: %v", err)
		return r
	}
	counters, err := d.counters()
	if err != nil {
		r.fail("metrics: %v", err)
		return r
	}
	d.layers(cells, cold, jobIDs, before, after, counters, dir, lane)
	return r
}

// do issues one request and returns the status and body.
func (d *dtndRun) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(d.ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// coldSweep submits the sweep, follows its NDJSON stream to the terminal
// line (the headline wall time) and fetches every cell's stored result.
// It returns the results' bytes and the cells' job ids, or nil on failure.
func (d *dtndRun) coldSweep(sw experiment.SweepSpec, cells []experiment.SweepCell, lane int) ([][]byte, []string) {
	r := d.r
	r.Attempted++
	if d.tr != nil {
		sw.Base.Profile = experiment.Ptr(true) // never part of a cell's content address
	}
	body, err := json.Marshal(sw)
	if err != nil {
		r.fail("sweep spec: %v", err)
		return nil, nil
	}
	sp := d.tr.open("server.sweep", lane)
	start := time.Now()
	code, resp, err := d.do("POST", "/v1/sweeps", body)
	var sub struct {
		SweepID string `json:"sweep_id"`
	}
	if err != nil || code != http.StatusAccepted || json.Unmarshal(resp, &sub) != nil {
		r.fail("submit sweep: %d %v %s", code, err, resp)
		return nil, nil
	}
	final, err := d.follow("/v1/sweeps/" + sub.SweepID + "/stream")
	r.WallS = time.Since(start).Seconds()
	d.tr.close(sp)
	if err != nil || final.Status != "done" {
		r.fail("sweep stream: %v status=%q error=%q", err, final.Status, final.Error)
		return nil, nil
	}

	code, resp, err = d.do("GET", "/v1/sweeps/"+sub.SweepID, nil)
	var st struct {
		Cells []struct {
			Key    string `json:"key"`
			JobID  string `json:"job_id"`
			Status string `json:"status"`
		} `json:"cells"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(resp, &st) != nil || len(st.Cells) != len(cells) {
		r.fail("sweep status: %d %v", code, err)
		return nil, nil
	}
	raws := make([][]byte, len(cells))
	jobIDs := make([]string, len(cells))
	for i, c := range cells {
		r.Attempted++
		if st.Cells[i].Key != c.Key || st.Cells[i].Status != "done" {
			r.fail("cell %s: key %s status %s", c.Key, st.Cells[i].Key, st.Cells[i].Status)
			return nil, nil
		}
		code, raw, err := d.do("GET", "/v1/results/"+c.Key, nil)
		if err != nil || code != http.StatusOK {
			r.fail("result %s: %d %v", c.Key, code, err)
			return nil, nil
		}
		raws[i] = bytes.TrimSpace(raw)
		jobIDs[i] = st.Cells[i].JobID
		r.Digests[axesLabel(c)] = bytesDigest(raws[i])
	}
	return raws, jobIDs
}

func axesLabel(c experiment.SweepCell) string {
	var parts []string
	for _, a := range c.Axes {
		parts = append(parts, a.Axis+"="+a.Value)
	}
	return strings.Join(parts, ",")
}

// follow reads an NDJSON sweep stream up to its terminal line.
func (d *dtndRun) follow(path string) (server.SweepProgress, error) {
	req, err := http.NewRequestWithContext(d.ctx, "GET", d.base+path, nil)
	if err != nil {
		return server.SweepProgress{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return server.SweepProgress{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.SweepProgress{}, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p server.SweepProgress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return p, fmt.Errorf("stream line: %w", err)
		}
		if p.Done {
			return p, nil
		}
	}
	if err := sc.Err(); err != nil {
		return server.SweepProgress{}, err
	}
	return server.SweepProgress{}, fmt.Errorf("stream ended without a terminal line")
}

// warmOp is one request of the warm phase's cycle.
type warmOp struct {
	path string
	body []byte
	cold []byte // cell result the reply must carry byte for byte (nil: the sweep)
}

// warm runs the closed loop: each of nproc clients sends its next
// request only after the previous reply, cycling through the cells and
// the sweep. A job reply must carry the cold result byte for byte; the
// first reply to each cell is decoded and checked, later ones must equal
// it exactly. A sweep reply must be done with every cell cached. One
// untimed pass over the cycle comes first, so the timed loop starts on
// open connections and checked replies.
func (d *dtndRun) warm(sw experiment.SweepSpec, cells []experiment.SweepCell, cold [][]byte, clients int) {
	r := d.r
	var ops []warmOp
	for i, c := range cells {
		b, err := json.Marshal(c.Spec)
		if err != nil {
			r.fail("cell spec: %v", err)
			return
		}
		ops = append(ops, warmOp{path: "/v1/jobs", body: b, cold: cold[i]})
	}
	b, err := json.Marshal(sw)
	if err != nil {
		r.fail("sweep spec: %v", err)
		return
	}
	ops = append(ops, warmOp{path: "/v1/sweeps", body: b})

	var mu sync.Mutex // guards r's counters and seen
	seen := make([][]byte, len(ops))
	check := func(k int, code int, body []byte, err error) error {
		op := ops[k]
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("%s: status %d %v", op.path, code, err)
		}
		mu.Lock()
		ok := seen[k] != nil && bytes.Equal(seen[k], body)
		mu.Unlock()
		if ok {
			return nil
		}
		if op.cold == nil {
			var sr struct {
				Status      string `json:"status"`
				CellsCached int    `json:"cells_cached"`
			}
			if json.Unmarshal(body, &sr) != nil || sr.Status != "done" || sr.CellsCached != len(cells) {
				return fmt.Errorf("sweep resubmit: not served from cache: %.200s", body)
			}
			return nil // sweep replies carry a fresh sweep id: never byte-compared
		}
		var hit struct {
			Status string          `json:"status"`
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result"`
		}
		if json.Unmarshal(body, &hit) != nil || hit.Status != "done" || !hit.Cached {
			return fmt.Errorf("job resubmit: not a cache hit: %.200s", body)
		}
		if !bytes.Equal(bytes.TrimSpace(hit.Result), op.cold) {
			return fmt.Errorf("job resubmit: result differs from the cold result")
		}
		mu.Lock()
		seen[k] = body
		mu.Unlock()
		return nil
	}
	// send issues op k on lane, checks the reply and returns its latency.
	send := func(k, lane int) int64 {
		sp := d.tr.open("loadgen.request", lane)
		t := time.Now()
		code, body, err := d.do("POST", ops[k].path, ops[k].body)
		ns := time.Since(t).Nanoseconds()
		d.tr.close(sp)
		err = check(k, code, body, err)
		mu.Lock()
		r.Attempted++
		if err != nil {
			r.fail("warm: %v", err)
		}
		mu.Unlock()
		return ns
	}

	lanes := make([]int, clients)
	for i := range lanes {
		lanes[i] = d.tr.open(laneSpan, 0)
	}
	for k := range ops {
		send(k, lanes[0])
	}
	lat := make([][]int64, clients)
	deadline := time.Now().Add(warmSeconds(d.o))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Now().Before(deadline); k = (k + 1) % len(ops) {
				lat[c] = append(lat[c], send(k, lanes[c]))
			}
		}(c)
	}
	wg.Wait()
	d.hitsS = time.Since(start).Seconds()
	for _, id := range lanes {
		d.tr.close(id)
	}
	for _, l := range lat {
		d.hitsNs = append(d.hitsNs, l...)
	}
}

// counters scrapes /metrics' unlabelled samples.
func (d *dtndRun) counters() (map[string]float64, error) {
	code, body, err := d.do("GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d %v", code, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// layers derives the traced repetition's per-layer metrics: engine
// phases from each cell job's timing block, routing counters from the
// cold results, service and store counters from /metrics, handler
// latency of the warm phase from the difference of two /metrics
// histograms, and Store.GetRaw timed on the run's cache directory.
func (d *dtndRun) layers(cells []experiment.SweepCell, cold [][]byte, jobIDs []string,
	before, after *loadgen.ServerLatency, counters map[string]float64, dir string, lane int) {
	r := d.r
	var sums []metrics.Summary
	var tm *obs.Timing
	for i := range cells {
		var res resultcache.Result
		if err := json.Unmarshal(cold[i], &res); err != nil {
			r.fail("decode result: %v", err)
			return
		}
		sums = append(sums, res.PerSeed...)
		code, body, err := d.do("GET", "/v1/jobs/"+jobIDs[i], nil)
		var job struct {
			Timing *obs.Timing `json:"timing"`
		}
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &job) != nil {
			r.fail("job %s: %d %v", jobIDs[i], code, err)
			return
		}
		tm = obs.MergeTiming(tm, job.Timing)
	}
	for k, v := range engineLayers(sums, tm) {
		r.Layers[k] = v
	}

	var clientNs int64
	for _, ns := range d.hitsNs {
		clientNs += ns
	}
	// The server histograms' finest bucket is 1 ms, so a quantile read
	// from them says nothing about sub-millisecond waits or hits; means
	// (from _sum and _count) are exact, and the client gap is taken
	// between means.
	handler := diffHistogram(after.Classes["2xx"], before.Classes["2xx"])
	sim := counters["dtnd_jobs_simulated_total"]
	l := r.Layers
	if after.QueueWait.Count > 0 {
		l["server.queue_wait_mean_ms"] = after.QueueWait.Sum / float64(after.QueueWait.Count) * 1000
	}
	if handler.Count > 0 && len(d.hitsNs) > 0 {
		l["server.handler_mean_ms"] = handler.Sum / float64(handler.Count) * 1000
		l["server.client_gap_mean_ms"] = float64(clientNs)/float64(len(d.hitsNs))/1e6 - l["server.handler_mean_ms"]
	}
	lat := make([]float64, len(d.hitsNs))
	for i, ns := range d.hitsNs {
		lat[i] = float64(ns) / 1e6
	}
	sort.Float64s(lat)
	l["loadgen.hit_rps"] = float64(len(lat)) / d.hitsS
	l["loadgen.hit_p50_ms"] = quantileSorted(lat, 0.50)
	l["loadgen.hit_p99_ms"] = quantileSorted(lat, 0.99)
	l["loadgen.hits"] = float64(len(lat)) // the percentiles' sample count
	l["server.jobs_simulated"] = sim
	if sim > 0 {
		l["server.dup_sim_frac"] = (sim - float64(len(cells))) / sim
	}
	l["resultcache.hits"] = counters["dtnd_cache_hits_total"]
	l["resultcache.misses"] = counters["dtnd_cache_misses_total"]
	l["resultcache.puts"] = counters["dtnd_cache_puts_total"]
	l["trace.recordings"] = float64(experiment.TraceRecordings())
	l["trace.replays"] = float64(experiment.TraceReplays())
	var scriptBytes int64
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasSuffix(path, ".trace") {
			if info, err := e.Info(); err == nil {
				scriptBytes += info.Size()
			}
		}
		return nil // a vanished entry only shrinks the count
	})
	l["trace.script_kb"] = float64(scriptBytes) / 1024

	st, err := resultcache.Open(dir, 0)
	if err != nil {
		r.fail("open store: %v", err)
		return
	}
	var gets []float64
	for i := 0; i < 200; i++ {
		for _, c := range cells {
			sp := d.tr.open("resultcache.GetRaw", lane)
			t := time.Now()
			_, _, ok := st.GetRaw(c.Key)
			gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
			d.tr.close(sp)
			if !ok {
				r.fail("Store.GetRaw %s: miss", c.Key)
				return
			}
		}
	}
	l["resultcache.get_us"] = median(gets)
}

// diffHistogram returns the observations a made after b was taken.
func diffHistogram(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: append([]int64(nil), a.Counts...), Sum: a.Sum - b.Sum, Count: a.Count - b.Count}
	for i := range out.Counts {
		if i < len(b.Counts) {
			out.Counts[i] -= b.Counts[i]
		}
	}
	return out
}
