package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies one generated operation.
type Outcome uint8

const (
	// OK: answered with the expected status and a correct output.
	OK Outcome = iota
	// Failed: transport error or an unexpected status.
	Failed
	// Refused: the system shed the operation (429 or 503).
	Refused
	// TimedOut: the client timed out, or the operation was still unsent
	// when its phase's send deadline passed.
	TimedOut
	// Mismatch: answered, but the output failed its correctness check.
	Mismatch
)

// Sample is one operation of an open-loop phase. Times are offsets
// from the phase start.
type Sample struct {
	Due, Sent, Done time.Duration
	Kind            uint8
	Out             Outcome
}

// failLatency stands in for the latency of an operation that did not
// succeed: it misses every limit.
const failLatency = time.Duration(math.MaxInt64)

// Latency is the operation's latency timed from when it was due, not
// from when it was sent, so a stall is charged to every operation
// queued behind it (no coordinated omission). Unsuccessful operations
// report failLatency.
func (s Sample) Latency() time.Duration {
	if s.Out != OK {
		return failLatency
	}
	return s.Done - s.Due
}

// Lag is how late the generator sent the operation.
func (s Sample) Lag() time.Duration { return s.Sent - s.Due }

// RunOpenLoop sends rate×dur operations on a fixed schedule: operation
// i is due at i/rate after the start, whether or not earlier ones have
// been answered. workers goroutines (each owning one connection in the
// callers here) pick operations in order, sleep until each is due and
// call do synchronously. An operation still unsent dur×1.25 after the
// start is dropped as TimedOut, which bounds an overloaded phase.
func RunOpenLoop(rate float64, dur time.Duration, workers int, do func(worker, i int) (uint8, Outcome)) []Sample {
	n := opCount(rate, dur)
	samples := make([]Sample, n)
	interval := float64(time.Second) / rate
	deadline := dur + dur/4
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &samples[i]
				s.Due = time.Duration(float64(i) * interval)
				waitUntil(start, s.Due)
				s.Sent = time.Since(start)
				if s.Sent > deadline {
					s.Done, s.Out = s.Sent, TimedOut
					continue
				}
				s.Kind, s.Out = do(w, i)
				s.Done = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// RunClosedLoop runs clients goroutines that each send their next
// operation as soon as the previous one is answered, until dur has
// passed. An operation is due when it is sent, so its latency is its
// service time.
func RunClosedLoop(clients int, dur time.Duration, do func(client int) (uint8, Outcome)) []Sample {
	start := time.Now()
	per := make([][]Sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				s := Sample{Due: time.Since(start)}
				s.Sent = s.Due
				s.Kind, s.Out = do(c)
				s.Done = time.Since(start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []Sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Due < all[j].Due })
	return all
}

// A time.Sleep overshoots by about 0.2ms when it is a few ms long and
// lasts at least 1ms when it is shorter, so the generator sleeps only
// through waits longer than minSleep, wakes sleepSlack early, and
// yields the processor in a loop for the rest.
const (
	minSleep   = 1300 * time.Microsecond
	sleepSlack = 300 * time.Microsecond
)

// waitUntil returns once due has passed since start.
func waitUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start); d > minSleep {
		time.Sleep(d - sleepSlack)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}

// opCount is the number of operations an open-loop phase sends.
func opCount(rate float64, dur time.Duration) int {
	return max(1, int(rate*dur.Seconds()+0.5))
}

// Percentile returns the nearest-rank p-th percentile of sorted values
// and how many samples lie beyond it, so a caller can state whether
// the sample supports that percentile.
func Percentile(sorted []time.Duration, p float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// Summary condenses a phase's samples.
type Summary struct {
	// N operations attempted, OK answered correctly; Refused (429/503)
	// and Mismatch (wrong answer) are two kinds of failure among the
	// N-OK.
	N, OK, Refused, Mismatch int

	// P50 and P90 are latency percentiles over every attempted
	// operation, an unsuccessful one counting as failLatency, in the
	// better half of the phase's windows (its rounds, or up to five
	// consecutive stretches) by their p50, pooled. A shared host's
	// interference mostly slows the program, so the less disturbed
	// windows measure it best; a stall or slow spell that spares half
	// the windows does not move them, and a window that ran in a burst
	// of unusual host speed is one of several pooled.
	P50, P90 time.Duration
	// P99 is the p99 over the whole phase, and Beyond99 the number of
	// samples above it.
	P99      time.Duration
	Beyond99 int
	// LagP50/LagP99 are generator lateness percentiles.
	LagP50, LagP99 time.Duration
	// LagGrowth is the median lag of the last quarter of a window's
	// operations minus that of its first quarter, the highest over the
	// windows: positive and large when a backlog builds.
	LagGrowth time.Duration
}

// A measured phase runs in rounds rounds spread over the run, and a
// phase run in one piece is cut into up to summaryWindows windows of at
// least windowSamples operations each.
const (
	rounds         = 10
	summaryWindows = 5
	windowSamples  = 100
)

// FailRatio is the share of attempted operations that did not succeed.
func (s Summary) FailRatio() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.N-s.OK) / float64(s.N)
}

// Summarize computes the Summary of the samples whose kind passes keep
// (nil keeps all), taking P50 and P90 over up to summaryWindows
// consecutive windows of the phase.
func Summarize(samples []Sample, keep func(kind uint8) bool) Summary {
	kept := make([]Sample, 0, len(samples))
	for _, x := range samples {
		if keep == nil || keep(x.Kind) {
			kept = append(kept, x)
		}
	}
	w := min(max(len(kept)/windowSamples, 1), summaryWindows)
	windows := make([][]Sample, w)
	for i := range windows {
		windows[i] = kept[i*len(kept)/w : (i+1)*len(kept)/w]
	}
	return SummarizeRounds(windows, nil)
}

// SummarizeRounds computes the Summary of rounds of one phase spread
// over a run, each round a window: P50 and P90 are taken over the
// pooled samples of the better half of the rounds (by their p50),
// LagGrowth is the highest of the rounds' lag growths, and the rest is
// taken over every sample.
func SummarizeRounds(windows [][]Sample, keep func(kind uint8) bool) Summary {
	type round struct {
		p50 time.Duration
		lat []time.Duration
	}
	var s Summary
	var lat, lag []time.Duration
	var rs []round
	for _, r := range windows {
		var rl, rg []time.Duration
		for _, x := range r {
			if keep != nil && !keep(x.Kind) {
				continue
			}
			s.N++
			switch x.Out {
			case OK:
				s.OK++
			case Refused:
				s.Refused++
			case Mismatch:
				s.Mismatch++
			}
			rl = append(rl, x.Latency())
			rg = append(rg, x.Lag())
		}
		if len(rl) == 0 {
			continue
		}
		growth := time.Duration(0)
		if q := len(rg) / 4; q > 0 {
			growth = medianDur(rg[len(rg)-q:]) - medianDur(rg[:q])
		}
		lat = append(lat, rl...)
		lag = append(lag, rg...)
		sortDur(rl)
		p50, _ := Percentile(rl, 50)
		rs = append(rs, round{p50, rl})
		s.LagGrowth = max(s.LagGrowth, growth)
	}
	if s.N == 0 {
		return s
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].p50 < rs[j].p50 })
	var better []time.Duration
	for _, r := range rs[:(len(rs)+1)/2] {
		better = append(better, r.lat...)
	}
	sortDur(better)
	s.P50, _ = Percentile(better, 50)
	s.P90, _ = Percentile(better, 90)
	sortDur(lat)
	sortDur(lag)
	s.P99, s.Beyond99 = Percentile(lat, 99)
	s.LagP50, _ = Percentile(lag, 50)
	s.LagP99, _ = Percentile(lag, 99)
	return s
}

func sortDur(v []time.Duration) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// medianDur returns the median of v without reordering it.
func medianDur(v []time.Duration) time.Duration {
	c := append([]time.Duration(nil), v...)
	sortDur(c)
	m, _ := Percentile(c, 50)
	return m
}

// Goodput is the rate of operations answered correctly within limit
// over the better half of the rounds of one phase spread over a run,
// for the reason SummarizeRounds takes the better half's latencies.
func Goodput(rounds [][]Sample, limit time.Duration) float64 {
	type round struct {
		n   int
		end time.Duration
	}
	var rs []round
	for _, r := range rounds {
		var x round
		for _, s := range r {
			x.end = max(x.end, s.Done)
			if s.Out == OK && s.Latency() <= limit {
				x.n++
			}
		}
		if x.end > 0 {
			rs = append(rs, x)
		}
	}
	sort.SliceStable(rs, func(i, j int) bool {
		return float64(rs[i].n)*rs[j].end.Seconds() > float64(rs[j].n)*rs[i].end.Seconds()
	})
	var n int
	var d time.Duration
	for _, r := range rs[:(len(rs)+1)/2] {
		n, d = n+r.n, d+r.end
	}
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// upperQuartile is the nearest-rank third quartile of v (0 if empty).
func upperQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[int(math.Ceil(0.75*float64(len(c))))-1]
}
