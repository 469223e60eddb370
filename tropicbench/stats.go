package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile is only as trustworthy as the samples that form it.
const minTail = 10

// dist is a set of samples of one quantity, sorted on first use.
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x float64) { d.v = append(d.v, x); d.sorted = false }

func (d *dist) n() int { return len(d.v) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1), or 0 for an
// empty set.
func (d *dist) quantile(q float64) float64 {
	if len(d.v) == 0 {
		return 0
	}
	d.sort()
	i := int(math.Ceil(q*float64(len(d.v)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d.v) {
		i = len(d.v) - 1
	}
	return d.v[i]
}

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// tailPct returns the highest percentile not above want that still has
// at least minTail samples beyond it among n samples. With fewer than
// minTail+1 samples no tail exists and the median is the best it can do.
func tailPct(want float64, n int) float64 {
	if n <= minTail {
		return 50
	}
	limit := 100 * (1 - float64(minTail)/float64(n))
	if want > limit {
		// Round down to a tenth of a percent so the printed rank is
		// never above the rule.
		return math.Floor(limit*10) / 10
	}
	return want
}

// tail returns the value at tailPct(want) and the percentile used.
func (d *dist) tail(want float64) (float64, float64) {
	p := tailPct(want, len(d.v))
	return d.quantile(p / 100), p
}

// describe renders the rank actually reported and the sample count, so a
// reader sees when a "p99" is really a lower percentile.
func (d *dist) describe(want float64) string {
	_, p := d.tail(want)
	return fmt.Sprintf("p%g of n=%d", p, len(d.v))
}

// median of a small slice (not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work this run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
