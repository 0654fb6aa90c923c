package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// repResult is what one child process reports about one repetition.
type repResult struct {
	Traced    bool    `json:"traced"`
	SetupS    float64 `json:"setup_s"`     // set-up before the first simulated tick / first healthy reply
	WallS     float64 `json:"wall_s"`      // the workload's headline job
	PeakRSSMB float64 `json:"peak_rss_mb"` // the child's peak resident set

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Digests maps each output cell to the SHA-256 of its timing-free
	// result; repetitions and the pinned copy must agree.
	Digests map[string]string `json:"digests"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 16 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// workload runs one repetition; tr is nil on untraced repetitions.
type workload func(o options, tr *tracer) repResult

var workloads = map[string]workload{
	"fig2_paper": runFig2,
	"dtnd_sweep": runDtnd,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runChild runs one repetition and prints its repResult as one line.
func runChild(o options, stdout, stderr io.Writer) int {
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, os.Getpid()))
	}
	r := workloads[o.workload](o, tr)
	r.Traced = o.trace
	r.PeakRSSMB = peakRSSMB()
	if tr != nil {
		if r.Layers == nil {
			r.Layers = map[string]float64{}
		}
		r.Layers["bench.attributed_frac"] = tr.attributedFrac()
		if err := tr.write(o.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// summaryDigest is the SHA-256 of a summary's timing-free JSON.
func summaryDigest(s metrics.Summary) string {
	s = experiment.StripTiming([]metrics.Summary{s})[0]
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Summary is plain numbers
	}
	return bytesDigest(b)
}

func bytesDigest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// engineLayers derives the routing, network and buffer layer metrics
// from the summaries of one repetition and their merged engine profile.
func engineLayers(sums []metrics.Summary, tm *obs.Timing) map[string]float64 {
	var delivered, relays, aborts, rows, entries, bytes, expired, drops float64
	for _, s := range sums {
		delivered += float64(s.Delivered)
		relays += float64(s.Relays)
		aborts += float64(s.Aborts)
		rows += float64(s.GossipRows)
		entries += float64(s.GossipEntries)
		bytes += float64(s.GossipBytes)
		expired += float64(s.Expired)
		drops += float64(s.Drops)
	}
	l := map[string]float64{
		"core.gossip_entries": entries,
		"routing.gossip_rows": rows,
		"routing.gossip_kb":   bytes / 1024,
		"buffer.expiries":     expired,
		"buffer.drops":        drops,
	}
	if relays > 0 {
		l["routing.goodput"] = delivered / relays
	}
	if relays+aborts > 0 {
		l["network.abort_frac"] = aborts / (relays + aborts)
	}
	if tm == nil {
		return l
	}
	l["routing.exchange_s"] = tm.ExchangeSeconds
	l["routing.exchange_count"] = float64(tm.ExchangeCount)
	for name, phase := range map[string]string{
		"sim.events_s":       "events",
		"mobility.step_s":    "mobility",
		"network.rebucket_s": "rebucket",
		"network.scan_s":     "scan",
		"network.pairs_s":    "pairs",
		"network.links_s":    "links",
		"network.contacts_s": "contacts",
		"network.expiry_s":   "expiry",
		"network.merge_s":    "merge",
		"network.script_s":   "script",
	} {
		l[name] = tm.PhaseSeconds(phase)
	}
	if tm.Ticks > 0 {
		l["network.tick_us"] = tm.Seconds / float64(tm.Ticks) * 1e6
	}
	return l
}

// tracer records spans (name, start, end, parent) in memory for one
// repetition and writes them out when it ends. A nil tracer records
// nothing, so untraced repetitions run the same code.
type tracer struct {
	trace string
	base  time.Time
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// laneSpan names the root span of one thread of work; attribution is
// measured against the lanes' total duration.
const laneSpan = "bench.lane"

func newTracer(trace string) *tracer { return &tracer{trace: trace, base: time.Now()} }

// open starts a span and returns its id (0 on a nil tracer).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// seconds returns the duration of the recorded spans named name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// layerNames are the repository modules spans may be attributed to.
var layerNames = map[string]bool{
	"sim": true, "network": true, "mobility": true, "mapgen": true, "routing": true,
	"core": true, "buffer": true, "traffic": true, "experiment": true, "trace": true,
	"resultcache": true, "server": true, "loadgen": true,
}

// attributedFrac is the self time of spans named after a layer divided by
// the total duration of the lanes. A span's self time is its duration
// minus the part of it its children cover.
func (t *tracer) attributedFrac() float64 {
	children := map[int][]spanRec{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var lanes, self int64
	for _, s := range t.spans {
		if s.Name == laneSpan {
			lanes += s.End - s.Start
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		if layerNames[layer] {
			self += s.End - s.Start - covered(s, children[s.ID])
		}
	}
	if lanes == 0 {
		return 0
	}
	return float64(self) / float64(lanes)
}

// covered returns how much of p's interval the union of kids covers.
func covered(p spanRec, kids []spanRec) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64 = 0, p.Start
	for _, k := range kids {
		s, e := max(k.Start, end), min(k.End, p.End)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
