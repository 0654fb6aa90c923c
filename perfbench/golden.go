package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// goldenFile is the pinned-digest file of one workload: for each input
// size, the default seed's digest of every output cell.
type goldenFile map[string]map[string]string

func goldenPath(o options) string { return filepath.Join(o.golden, o.workload+".json") }

func readGolden(o options) (goldenFile, error) {
	b, err := os.ReadFile(goldenPath(o))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(o), err)
	}
	return g, nil
}

// gate checks the repetitions' outputs: every repetition, traced or not,
// must produce the same digests, and on the default seed those must
// equal the pinned ones (or, with -pin, replace them). It returns the
// number of failed checks and their messages.
func gate(o options, plain, traced []repResult) (int, []string) {
	var failed int
	var msgs []string
	ref := plain[0].Digests
	for i, r := range append(plain[1:], traced...) {
		if diff := diffDigests(ref, r.Digests); diff != "" {
			failed++
			msgs = append(msgs, fmt.Sprintf("repetition %d (traced=%v) differs from the first: %s", i+1, r.Traced, diff))
		}
	}
	if o.seed != defaultSeed {
		return failed, msgs
	}
	g, err := readGolden(o)
	if err != nil && !(o.pin && os.IsNotExist(err)) {
		return failed + 1, append(msgs, fmt.Sprintf("pinned digests: %v", err))
	}
	if o.pin {
		if g == nil {
			g = goldenFile{}
		}
		g[o.size] = ref
		b, _ := json.MarshalIndent(g, "", "  ") // string maps: cannot fail
		if err := os.WriteFile(goldenPath(o), append(b, '\n'), 0o644); err != nil {
			return failed + 1, append(msgs, fmt.Sprintf("pin digests: %v", err))
		}
		return failed, msgs
	}
	want, ok := g[o.size]
	if !ok {
		return failed + 1, append(msgs, fmt.Sprintf("%s: no pinned digests for size %q", goldenPath(o), o.size))
	}
	if diff := diffDigests(want, ref); diff != "" {
		failed++
		msgs = append(msgs, "output differs from the pinned digests: "+diff)
	}
	return failed, msgs
}

// diffDigests describes how got differs from want ("" when equal).
func diffDigests(want, got map[string]string) string {
	var bad []string
	for k, v := range want {
		if got[k] != v {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return ""
	}
	sort.Strings(bad)
	return fmt.Sprintf("%d cell(s): %v", len(bad), bad)
}
