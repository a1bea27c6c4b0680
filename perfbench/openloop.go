package main

import (
	"fmt"
	"time"
)

// saturationShare of the run goes to the saturation phase that gives
// an open loop's max_rps, and tracedShare to each of the four
// fixed-rate phases of a traced run.
const (
	saturationShare = 0.24
	tracedShare     = 0.2
)

// openLoop is a workload's load schedule: its low and high load, the
// share of the run each of those phases gets, and the functions that
// run one phase. Phase ids: 100+r, 200+r and 300+r are round r's low,
// high and saturation phases; a traced run's low and high phases are 1
// and 2, their traced repeats 3 and 4.
type openLoop struct {
	// low and high are rates (operations/s) in an open loop and rows
	// per call in a closed one.
	low, high float64
	share     float64
	// limit is the latency within which an answer counts toward
	// max_rps.
	limit time.Duration
	phase func(id int, load float64, dur time.Duration) []Sample
	// saturate runs a closed loop that keeps every generator
	// connection busy; nil for a closed loop, whose max_rps is then the
	// high phase's throughput.
	saturate func(id int, dur time.Duration) []Sample
	// offline, if set, runs at the start of every round.
	offline func(round int)
	// unit names what max_rps counts, for the text lines.
	unit string
}

// describeRounds lists each round's p50 and p90 for the text lines.
func describeRounds(name string, rounds [][]Sample) string {
	var p50, p90 []string
	for _, r := range rounds {
		s := SummarizeRounds([][]Sample{r}, nil)
		p50 = append(p50, fmt.Sprintf("%.3f", reportMS(s.P50)))
		p90 = append(p90, fmt.Sprintf("%.3f", reportMS(s.P90)))
	}
	return fmt.Sprintf("%s rounds: p50 %v ms, p90 %v ms", name, p50, p90)
}

// load formats a phase's load for the text lines.
func (l openLoop) load(x float64) string {
	if l.saturate == nil {
		return fmt.Sprintf("rows=%6.0f", x)
	}
	return fmt.Sprintf("rate=%7.1f/s", x)
}

// account adds a phase to the run's attempted and failed counts; a
// wrong answer also fails the run's correctness.
func account(res *result, s Summary) {
	res.attempted += s.N
	res.failed += s.N - s.OK
	if s.Mismatch > 0 {
		res.correct = false
		res.notef("FAIL: %d answers differed from offline scoring", s.Mismatch)
	}
}

// measure runs the fixed-rate phases and, for an open loop, the
// saturation phase, each in rounds rounds taken in turn, so every
// phase samples the whole run; it records the end-to-end latency,
// max_rps and ok_ratio metrics. offline runs at the start of every
// other round, so it too is spread over the run.
func (l openLoop) measure(o options, res *result) {
	var low, high, sat [][]Sample
	for r := 0; r < rounds; r++ {
		if l.offline != nil && r%2 == 0 {
			l.offline(r / 2)
		}
		low = append(low, l.phase(100+r, l.low, o.phaseDur(l.share/rounds)))
		high = append(high, l.phase(200+r, l.high, o.phaseDur(l.share/rounds)))
		if l.saturate != nil {
			sat = append(sat, l.saturate(300+r, o.phaseDur(saturationShare/rounds)))
		}
	}
	sl, sh := SummarizeRounds(low, nil), SummarizeRounds(high, nil)
	account(res, sl)
	account(res, sh)
	v := res.values
	setLatencies(v, sl, sh)
	res.notef("%s", describe("low", l.load(l.low), sl))
	res.notef("%s", describe("high", l.load(l.high), sh))
	isScore := func(k uint8) bool { return k == kindScore }
	isFeedback := func(k uint8) bool { return k == kindFeedback }
	for _, p := range []struct {
		name string
		rate float64
		s    [][]Sample
	}{{"low", l.low, low}, {"high", l.high, high}} {
		if f := SummarizeRounds(p.s, isFeedback); f.N > 0 {
			res.notef("%s", describe(p.name+" score", l.load(p.rate), SummarizeRounds(p.s, isScore)))
			res.notef("%s", describe(p.name+" feedback", l.load(p.rate), f))
		}
	}
	res.notef("%s", describeRounds("low", low))
	res.notef("%s", describeRounds("high", high))
	if l.saturate == nil {
		v["max_rps"] = Goodput(high, failLatency)
		res.notef("max_rps=%.1f %s with one waiting caller", v["max_rps"], l.unit)
	} else {
		ss := SummarizeRounds(sat, nil)
		account(res, ss)
		v["max_rps"] = Goodput(sat, l.limit)
		res.notef("%s", describe("saturated", fmt.Sprintf("rate=%7.1f/s", Goodput(sat, failLatency)), ss))
		var per []string
		for _, r := range sat {
			per = append(per, fmt.Sprintf("%.1f", Goodput([][]Sample{r}, l.limit)))
		}
		res.notef("saturated rounds: goodput %v", per)
		res.notef("max_rps=%.1f %s answered correctly within %v with %d connections kept busy",
			v["max_rps"], l.unit, l.limit, generatorWorkers)
	}
	v["ok_ratio"] = float64(res.attempted-res.failed) / float64(res.attempted)
}

// measureTraced runs the two fixed-rate phases untraced, then again
// with tr on (left on for the isolated calls that follow). It records
// the generator and runtime metrics of the untraced phases and the
// tracing overhead, and returns all four phases' samples.
func (l openLoop) measureTraced(o options, res *result, tr *Tracer) (low, high, tlow, thigh []Sample) {
	d := o.phaseDur(tracedShare)
	tr.on.Store(false)
	p0 := readProcStats()
	low = l.phase(1, l.low, d)
	high = l.phase(2, l.high, d)
	p1 := readProcStats()
	tr.on.Store(true)
	tlow = l.phase(3, l.low, d)
	thigh = l.phase(4, l.high, d)

	v := res.values
	setLoadgen(v, low, high)
	setRuntime(v, p0, p1, len(low)+len(high))
	sl, sh := Summarize(low, nil), Summarize(high, nil)
	stl, sth := Summarize(tlow, nil), Summarize(thigh, nil)
	for _, s := range []Summary{sl, sh, stl, sth} {
		account(res, s)
	}
	v["trace.overhead_p50_ms.low"] = reportMS(stl.P50) - reportMS(sl.P50)
	v["trace.overhead_p99_ms.low"] = reportMS(stl.P99) - reportMS(sl.P99)
	v["trace.overhead_p50_ms.high"] = reportMS(sth.P50) - reportMS(sh.P50)
	v["trace.overhead_p99_ms.high"] = reportMS(sth.P99) - reportMS(sh.P99)
	res.notef("%s", describe("low", l.load(l.low), sl))
	res.notef("%s", describe("high", l.load(l.high), sh))
	res.notef("%s", describe("traced low", l.load(l.low), stl))
	res.notef("%s", describe("traced high", l.load(l.high), sth))
	return low, high, tlow, thigh
}
