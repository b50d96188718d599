package main

import "slices"

// latencies records virtual latencies exactly, in memory that does not grow
// with the run: a count per ns below directLimit, and the rare longer ones
// as a list.
type latencies struct {
	direct []int64
	long   []int64
	n      int64
}

const directLimit = 1 << 16

func (l *latencies) add(v int64) {
	l.n++
	if v >= 0 && v < directLimit {
		if l.direct == nil {
			l.direct = make([]int64, directLimit)
		}
		l.direct[v]++
		return
	}
	l.long = append(l.long, v)
}

func (l *latencies) merge(o *latencies) {
	for v, c := range o.direct {
		if c != 0 {
			if l.direct == nil {
				l.direct = make([]int64, directLimit)
			}
			l.direct[v] += c
		}
	}
	l.long = append(l.long, o.long...)
	l.n += o.n
}

// quantile estimates the q-quantile, treating each integer value v as the
// interval [v-0.5, v+0.5) over which its samples spread evenly (the
// grouped-data estimator). It stays within half a nanosecond of the sample
// quantile, and unlike it, moves when the share of samples at the quantile's
// value moves.
func (l *latencies) quantile(q float64) float64 {
	if l.n == 0 {
		return 0
	}
	target := q * float64(l.n)
	i := min(int64(target), l.n-1)
	var below int64 // samples smaller than the value being looked at
	at := func(v, c int64) (float64, bool) {
		if i < below+c {
			return float64(v) - 0.5 + (target-float64(below))/float64(c), true
		}
		below += c
		return 0, false
	}
	for v, c := range l.direct {
		if c == 0 {
			continue
		}
		if est, ok := at(int64(v), c); ok {
			return est
		}
	}
	slices.Sort(l.long)
	for j := 0; j < len(l.long); {
		k := j
		for k < len(l.long) && l.long[k] == l.long[j] {
			k++
		}
		if est, ok := at(l.long[j], int64(k-j)); ok {
			return est
		}
		j = k
	}
	panic("latency quantile out of range")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (no traffic of that kind).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
