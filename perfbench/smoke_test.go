package main

// Smoke tests: tiny sizes of both workloads through the real binary,
// checked against BENCHMARK.json, plus a negative test of the digest gate.
// Run with `go test ./...` from this directory.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var benchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	benchBin = filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", benchBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runBench runs the binary from the repository root and returns its exit
// code and decoded last line.
func runBench(t *testing.T, args ...string) (int, resultLine) {
	t.Helper()
	cmd := exec.Command(benchBin, args...)
	cmd.Dir = ".."
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	var res resultLine
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		t.Fatalf("last line %q: %v\nstderr:\n%s", lastLine(out), err, stderr.String())
	}
	return code, res
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bf := readBenchFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, benchmark reports %v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, benchmark reports %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "fig2_paper,dtnd_sweep" {
		t.Errorf("workloads in BENCHMARK.json = %s", got)
	}
}

func TestSmallRunsReportEveryMetric(t *testing.T) {
	bf := readBenchFile(t)
	for _, w := range bf.Workloads {
		for trace, defs := range map[string][]metricDef{"0": bf.EndToEnd, "1": bf.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				out := t.TempDir()
				code, res := runBench(t, "--workload", w.Name, "--seed", "1", "--seconds", "0",
					"--trace", trace, "-size", "small", "-out", out)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct=%v failed=%d attempted=%d", code, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if trace == "1" {
					spans, _ := filepath.Glob(filepath.Join(out, "spans-"+w.Name+"-*.jsonl"))
					if len(spans) == 0 {
						t.Error("traced run wrote no span file")
					}
				}
			})
		}
	}
}

func TestCorruptedDigestTripsGate(t *testing.T) {
	golden := t.TempDir()
	b, err := os.ReadFile(filepath.Join("golden", "fig2_paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	for cell := range g["small"] {
		g["small"][cell] = strings.Repeat("0", 64)
		break
	}
	b, _ = json.Marshal(g)
	if err := os.WriteFile(filepath.Join(golden, "fig2_paper.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, res := runBench(t, "--workload", "fig2_paper", "--seed", "1", "--seconds", "0",
		"--trace", "0", "-size", "small", "-out", t.TempDir(), "-golden", golden)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest passed: exit %d, correct=%v, failed=%d", code, res.Correct, res.Failed)
	}
	if res.Metrics["success_frac"].Value >= 1 {
		t.Errorf("success_frac = %v after a failed gate", res.Metrics["success_frac"].Value)
	}
}
