// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time budget, checks its outputs and prints
// every metric by name and unit; see README.md for the workloads, the
// metrics and how to read a traced run.
//
//	perfbench --workload fig2_paper --seed 1 --seconds 30 --trace 0
//
// The invocation is a parent process: it repeats the workload in fresh
// child processes of the same binary (mapgen.Load memoizes, the trace
// counters are process-global and the simulation pool is sized at init,
// so a shared process would hide set-up time and memory), gates their
// outputs and reports medians. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports every one of them (README.md gives each workload's meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_frac", "frac"},
}

// perLayer lists the per-layer metrics of a traced run, named
// <module>.<quantity>. Layers a workload does not exercise report 0.
var perLayer = []metricDef{
	{"routing.exchange_s", "s"},
	{"routing.exchange_count", "count"},
	{"network.contacts_s", "s"},
	{"core.gossip_entries", "count"},
	{"routing.gossip_rows", "count"},
	{"routing.gossip_kb", "KB"},
	{"routing.goodput", "frac"},
	{"network.rebucket_s", "s"},
	{"network.scan_s", "s"},
	{"mobility.step_s", "s"},
	{"network.pairs_s", "s"},
	{"network.links_s", "s"},
	{"network.tick_us", "us"},
	{"network.merge_s", "s"},
	{"network.script_s", "s"},
	{"trace.recordings", "count"},
	{"trace.replays", "count"},
	{"trace.script_kb", "KB"},
	{"server.queue_wait_mean_ms", "ms"},
	{"server.jobs_simulated", "count"},
	{"server.dup_sim_frac", "frac"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.puts", "count"},
	{"resultcache.get_us", "us"},
	{"server.handler_mean_ms", "ms"},
	{"server.client_gap_mean_ms", "ms"},
	{"loadgen.hit_rps", "1/s"},
	{"loadgen.hit_p50_ms", "ms"},
	{"loadgen.hit_p99_ms", "ms"},
	{"loadgen.hits", "count"},
	{"experiment.pool_busy_frac", "frac"},
	{"experiment.cell_max_s", "s"},
	{"mapgen.load_s", "s"},
	{"experiment.build_s", "s"},
	{"sim.events_s", "s"},
	{"network.expiry_s", "s"},
	{"network.abort_frac", "frac"},
	{"buffer.expiries", "count"},
	{"buffer.drops", "count"},
	{"bench.attributed_frac", "frac"},
	{"bench.trace_overhead", "ratio"},
}

// defaultSeed is the workload seed whose digests are pinned in golden/.
const defaultSeed = 1

// options are the command-line settings shared by parent and child.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // "full" (the benchmark) or "small" (smoke tests)
	golden   string // directory of pinned digests
	out      string // directory for span files and scratch state
	pin      bool   // rewrite the pinned digests instead of checking them

	child bool   // run one repetition and report it (internal)
	spans string // child: span file to write (traced repetitions)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; the program's inputs derive from it")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from traced repetitions")
	fs.StringVar(&o.size, "size", "full", "input size: full or small (smoke tests)")
	fs.StringVar(&o.golden, "golden", filepath.Join("perfbench", "golden"), "directory of pinned output digests")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench", "out"), "directory for span files and temporary stores")
	fs.BoolVar(&o.pin, "pin", false, "write the default seed's digests to -golden instead of checking them")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition")
	fs.StringVar(&o.spans, "spans", "", "internal: span file of a traced repetition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || (o.size != "full" && o.size != "small") || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload in {%s}, -size full|small, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seed < 1 {
		fmt.Fprintln(stderr, "perfbench: -seed must be positive")
		return 2
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

// minReps is the fewest repetitions of each kind a run makes, whatever
// its time budget.
const minReps = 3

// runParent repeats the workload in child processes until the budget is
// spent, gates the outputs and prints the result line.
func runParent(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var plain, traced []repResult
	var attempted, failed int
	var failures []string
	start := time.Now()
	for rep := 0; ; rep++ {
		// After the minimum, start a repetition only if one of average
		// length still fits the budget.
		elapsed := time.Since(start).Seconds()
		need := len(plain) < minReps || (o.trace && len(traced) < minReps-1)
		if !need && elapsed+elapsed/float64(rep) > o.seconds {
			break
		}
		tracedRep := o.trace && rep%2 == 1
		r, err := spawn(self, o, rep, tracedRep, stderr)
		attempted += r.Attempted
		failed += r.Failed
		failures = append(failures, r.Failures...)
		if err != nil {
			attempted++
			failed++
			failures = append(failures, fmt.Sprintf("rep %d: %v", rep, err))
			if rep >= 2*minReps && len(plain) == 0 {
				break // every repetition fails: stop early
			}
			continue
		}
		if tracedRep {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(plain) == 0 || (o.trace && len(traced) == 0) {
		for _, f := range failures {
			fmt.Fprintln(stderr, "perfbench: FAIL", f)
		}
		return 1
	}

	gateFailed, gateMsgs := gate(o, plain, traced)
	attempted += len(plain) + len(traced) // one digest comparison per repetition
	failed += gateFailed
	failures = append(failures, gateMsgs...)

	var ms map[string]metricValue
	var samples map[string]int
	if o.trace {
		ms, samples = layerMetrics(plain, traced)
	} else {
		ms, samples = endToEndMetrics(plain, attempted, failed)
	}
	printFingerprint(stdout, o, len(plain), len(traced), samples)
	for _, f := range failures {
		fmt.Fprintln(stderr, "perfbench: FAIL", f)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, ms}
	line, err := json.Marshal(res)
	if err != nil { // a non-finite metric: no result line
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// spawn runs one repetition in a fresh child process and decodes the
// repResult it prints as its last line.
func spawn(self string, o options, rep int, traced bool, stderr io.Writer) (repResult, error) {
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-size", o.size, "-out", o.out}
	if traced {
		args = append(args, "-trace", "1", "-spans",
			filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d-rep%d.jsonl", o.workload, o.seed, rep)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var r repResult
	last := lastLine(out.Bytes())
	if err := json.Unmarshal(last, &r); err != nil {
		if runErr != nil {
			return repResult{}, fmt.Errorf("child: %w", runErr)
		}
		return repResult{}, fmt.Errorf("child output: %w", err)
	}
	if runErr != nil {
		return r, fmt.Errorf("child: %w", runErr)
	}
	return r, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics reduces the untraced repetitions to the end-to-end
// metrics, each the median over repetitions of the repetition's value.
// Peak memory is the highest repetition's: where garbage collection
// happens to run makes one process's peak bimodal, and the maximum is what
// a user has to provision. It also returns each metric's sample count.
func endToEndMetrics(reps []repResult, attempted, failed int) (map[string]metricValue, map[string]int) {
	var setup, wall, rss []float64
	for _, r := range reps {
		setup = append(setup, r.SetupS)
		wall = append(wall, r.WallS)
		rss = append(rss, r.PeakRSSMB)
	}
	vals := map[string]float64{
		"setup_s":      median(setup),
		"wall_s":       median(wall),
		"peak_rss_mb":  slices.Max(rss),
		"success_frac": 1 - float64(failed)/float64(attempted),
	}
	samples := map[string]int{"success_frac": attempted}
	for _, m := range []string{"setup_s", "wall_s", "peak_rss_mb"} {
		samples[m] = len(reps)
	}
	return withUnits(endToEnd, vals), samples
}

// layerMetrics reduces the traced repetitions to the per-layer metrics
// (medians over repetitions) plus the tracing overhead against the
// untraced repetitions of the same run.
func layerMetrics(plain, traced []repResult) (map[string]metricValue, map[string]int) {
	vals := map[string]float64{}
	samples := map[string]int{}
	for _, m := range perLayer {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.Layers[m.Name])
		}
		vals[m.Name] = median(xs)
		samples[m.Name] = len(xs)
	}
	var pw, tw []float64
	for _, r := range plain {
		pw = append(pw, r.WallS)
	}
	for _, r := range traced {
		tw = append(tw, r.WallS)
	}
	vals["bench.trace_overhead"] = median(tw) / median(pw)
	return withUnits(perLayer, vals), samples
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted returns the q-quantile of sorted xs by linear
// interpolation between closest ranks (0 for none).
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// printFingerprint prints the run's provenance on its own line, so that
// numbers from different machines or revisions are never compared
// blindly.
func printFingerprint(w io.Writer, o options, plain, traced int, samples map[string]int) {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fp := map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"size":          o.size,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"git_rev":       rev,
		"git_dirty":     dirty,
		"source_sha256": sourceDigest(),
		"reps_untraced": plain,
		"reps_traced":   traced,
		"samples":       samples,
	}
	if o.trace {
		fp["spans_dir"] = o.out
	}
	line, _ := json.Marshal(map[string]any{"fingerprint": fp}) // plain values: cannot fail
	fmt.Fprintln(w, string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the current
// directory, so runs from checkouts without git history still say which
// code they measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != "." {
			return filepath.SkipDir // .git, .bench_build
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
