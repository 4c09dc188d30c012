package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestSamplesMatchExactSort checks the recorder against an independent
// exact sort on seeded, heavy-tailed samples, in the order they arrive.
func TestSamplesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20060701))
	var s samples
	var ref []int64
	for i := 0; i < 50000; i++ {
		ns := int64(math.Exp(rng.NormFloat64()*1.5+10)) + 1 // log-normal around 22us
		s.add(time.Duration(ns))
		ref = append(ref, ns)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q*float64(len(ref)))) - 1
		if rank < 0 {
			rank = 0
		}
		if got, want := s.quantile(q), float64(ref[rank]); got != want {
			t.Errorf("quantile(%v) = %v, exact sort gives %v", q, got, want)
		}
	}
	if s.max() != float64(ref[len(ref)-1]) {
		t.Errorf("max = %v, want %v", s.max(), ref[len(ref)-1])
	}
	// Adding after a quantile was read must re-sort.
	s.add(0)
	if got := s.quantile(0); got != 0 {
		t.Errorf("quantile(0) after adding 0 = %v", got)
	}
}

func TestEmptySamples(t *testing.T) {
	var s samples
	if s.quantile(0.99) != 0 || s.n() != 0 {
		t.Errorf("empty recorder: quantile %v, n %d", s.quantile(0.99), s.n())
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values Python's
// statistics.quantiles(v, n=4) returns, since the driver judges the
// benchmark's spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{12, 7, 3, 9, 15, 4, 8, 11, 6, 10}
	q1, q2, q3 := quartiles(v)
	if q1 != 5.5 || q2 != 8.5 || q3 != 11.25 {
		t.Errorf("quartiles = %v %v %v, want 5.5 8.5 11.25", q1, q2, q3)
	}
	if m := median(v); m != 8.5 {
		t.Errorf("median = %v, want 8.5", m)
	}
}

// TestKeepFastest folds repeats of the same units: each unit keeps its
// smallest repeat, and a row of another length is refused and changes
// nothing.
func TestKeepFastest(t *testing.T) {
	var s samples
	for _, row := range [][]int64{{30, 10, 50}, {20, 40, 50}, {25, 5, 60}} {
		if !s.keepFastest(row) {
			t.Fatalf("row %v refused", row)
		}
	}
	if s.keepFastest([]int64{1, 1}) {
		t.Error("a row that times two units was folded into three")
	}
	if got := [3]float64{s.quantile(0), s.quantile(0.5), s.quantile(1)}; got != [3]float64{5, 20, 50} {
		t.Errorf("fastest repeats = %v, want [5 20 50]", got)
	}
}
