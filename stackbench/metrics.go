package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"zerberr/internal/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the nearest-rank q-quantile of raw samples (sorted in
// place); 0 for no samples. Percentiles are always taken from raw
// per-op samples, never from histogram buckets.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// values maps the samples through f.
func values(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func latencyMS(s sample) float64 { return millis(s.lat) }

// succeeded counts the samples whose op succeeded.
func succeeded(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

// maxSlices bounds how many consecutive slices a window's samples are
// cut into. Timings and the op rate are medians of their per-slice
// values, so a burst of machine noise confined to a minority of the
// slices does not move them.
const maxSlices = 5

// slicedQuantile cuts the samples, in start order, into runs of equal
// count and returns the median of the runs' q-quantile latencies in
// ms. It uses as many runs as leave at least ten samples beyond the
// quantile in each, up to maxSlices, and one run when the samples
// cannot afford more.
func slicedQuantile(samples []sample, q float64) float64 {
	samples = slices.SortedFunc(slices.Values(samples), func(a, b sample) int { return int(a.at - b.at) })
	k := min(max(int(float64(len(samples))*(1-q)/10), 1), maxSlices)
	var per []float64
	for i := range k {
		part := samples[i*len(samples)/k : (i+1)*len(samples)/k]
		if len(part) > 0 {
			per = append(per, quantile(values(part, latencyMS), q))
		}
	}
	return median(per)
}

// slicedRate cuts the window into maxSlices equal time slices and
// returns the median of their rates of successful ops per second.
func slicedRate(win phase) float64 {
	d := win.elapsed / maxSlices
	counts := make([]float64, maxSlices)
	for _, s := range win.samples {
		if s.ok {
			counts[min(int(s.at/d), maxSlices-1)]++
		}
	}
	for i := range counts {
		counts[i] /= d.Seconds()
	}
	return median(counts)
}

// endToEnd computes the user-visible metrics of one measured window.
// Latencies of op kinds the mix lacks come from the probe phase
// (idx, del); notes receive the sample counts.
func endToEnd(win phase, idx, del []sample, setupS float64, notes *[]string) map[string]metric {
	searches := ofKind(win.samples, workload.OpSearch)
	if w := ofKind(win.samples, workload.OpInsert); len(w) > 0 {
		idx = w
	}
	if w := ofKind(win.samples, workload.OpRemove); len(w) > 0 {
		del = w
	}
	m := map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {slicedRate(win), "1/s"},
		"search_p50_ms": {slicedQuantile(searches, 0.50), "ms"},
		"search_p99_ms": {slicedQuantile(searches, 0.99), "ms"},
		"index_p50_ms":  {slicedQuantile(idx, 0.50), "ms"},
		"delete_p50_ms": {slicedQuantile(del, 0.50), "ms"},
		"delete_p90_ms": {slicedQuantile(del, 0.90), "ms"},
		"search_kb":     {mean(values(searches, func(s sample) float64 { return float64(s.bytes) / 1024 })), "KiB"},
		"search_rounds": {mean(values(searches, func(s sample) float64 { return float64(s.rounds) })), "count"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}
	per := make([]int, int(win.elapsed.Seconds())+1)
	for _, s := range win.samples {
		per[int(s.at.Seconds())]++
	}
	*notes = append(*notes, fmt.Sprint("ops per second: ", per))
	*notes = append(*notes,
		fmt.Sprintf("samples: search=%d index=%d delete=%d (window %d ops in %.2fs)",
			len(searches), len(idx), len(del), len(win.samples), win.elapsed.Seconds()))
	return m
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
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// diskBytes sums the sizes of the regular files under dir.
func diskBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
