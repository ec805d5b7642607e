package main

import (
	"testing"
	"time"
)

func TestCoveredCountsOverlapsOnce(t *testing.T) {
	parent := span{start: 100, end: 200}
	kids := []span{
		{start: 90, end: 120},  // clipped to 100..120
		{start: 110, end: 150}, // overlaps the first: union 100..150
		{start: 170, end: 180},
		{start: 190, end: 260}, // clipped to 190..200
		{start: 300, end: 400}, // outside
	}
	if got, want := covered(parent, kids), int64(50+10+10); got != want {
		t.Fatalf("covered = %d, want %d", got, want)
	}
	if got := covered(parent, nil); got != 0 {
		t.Fatalf("covered with no children = %d, want 0", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestSlicedQuantileIgnoresOneBadSlice(t *testing.T) {
	// 5000 samples afford 5 slices at p99 (10 beyond each); the first
	// slice is slow throughout.
	var samples []sample
	for i := range 5000 {
		lat := time.Millisecond
		if i < 1000 {
			lat = 50 * time.Millisecond
		}
		samples = append(samples, sample{at: time.Duration(i) * time.Millisecond, lat: lat})
	}
	if got := slicedQuantile(samples, 0.99); got != 1 {
		t.Fatalf("slicedQuantile = %v ms, want 1", got)
	}
	// 500 samples cannot afford slicing a p99: one slice, whose p99 is
	// slow.
	if got := slicedQuantile(samples[:500], 0.99); got != 50 {
		t.Fatalf("slicedQuantile of 500 samples = %v ms, want 50", got)
	}
}
