package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func TestLatencyIsTimedFromDueTime(t *testing.T) {
	// One worker, an operation due every 5ms, each taking 8ms: the
	// schedule falls behind, and every later operation must be charged
	// the wait since it was due, not just its own 8ms.
	samples := RunOpenLoop(200, 50*time.Millisecond, 1, func(int, int) (uint8, Outcome) {
		time.Sleep(8 * time.Millisecond)
		return 0, OK
	})
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	var maxLag time.Duration
	dropped := 0
	for i, s := range samples {
		if s.Out != OK {
			// Still unsent at the phase deadline: dropped, and it misses
			// every limit.
			dropped++
			if s.Out != TimedOut || s.Latency() != failLatency {
				t.Fatalf("sample %d: outcome %d latency %v", i, s.Out, s.Latency())
			}
			continue
		}
		if s.Latency() != s.Done-s.Due || s.Latency() < s.Done-s.Sent {
			t.Fatalf("sample %d: latency %v, want done-due %v (service %v)", i, s.Latency(), s.Done-s.Due, s.Done-s.Sent)
		}
		maxLag = max(maxLag, s.Lag())
	}
	if maxLag < 15*time.Millisecond {
		t.Fatalf("largest lag %v: the backlog was not charged", maxLag)
	}
	if dropped == 0 {
		t.Fatal("no operation was dropped at the phase deadline")
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	var v []time.Duration
	for i := 1; i <= 100; i++ {
		v = append(v, time.Duration(i))
	}
	for _, c := range []struct {
		p            float64
		want, beyond int
	}{{50, 50, 50}, {99, 99, 1}, {100, 100, 0}, {0, 1, 99}} {
		got, beyond := Percentile(v, c.p)
		if int(got) != c.want || beyond != c.beyond {
			t.Errorf("p%v = %d (%d beyond), want %d (%d beyond)", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if got, beyond := Percentile(v[:10], 99); got != 10 || beyond != 0 {
		t.Errorf("p99 of 10 samples = %d (%d beyond), want the maximum with none beyond", got, beyond)
	}
	if got, beyond := Percentile(nil, 50); got != 0 || beyond != 0 {
		t.Errorf("empty percentile = %d, %d", got, beyond)
	}
}

func TestWindowedPercentilesRideOutOneStall(t *testing.T) {
	phase := func(stalled func(i int) bool) []Sample {
		s := make([]Sample, 500)
		for i := range s {
			lat := time.Millisecond + time.Duration(i%10)*100*time.Microsecond
			if stalled(i) {
				lat = 50 * time.Millisecond
			}
			due := time.Duration(i) * time.Millisecond
			s[i] = Sample{Due: due, Sent: due, Done: due + lat, Out: OK}
		}
		return s
	}
	calm := Summarize(phase(func(int) bool { return false }), nil)
	// A stall over one window (100 consecutive operations) leaves p50
	// and p90 alone but shows in p99.
	one := Summarize(phase(func(i int) bool { return i >= 200 && i < 300 }), nil)
	if one.P50 != calm.P50 || one.P90 != calm.P90 {
		t.Errorf("one stalled window moved p50/p90: %v/%v, calm %v/%v", one.P50, one.P90, calm.P50, calm.P90)
	}
	if one.P99 != 50*time.Millisecond {
		t.Errorf("p99 %v hides the stall", one.P99)
	}
	// Slowness in every window moves them.
	every := Summarize(phase(func(i int) bool { return i%10 >= 8 }), nil)
	if every.P90 != 50*time.Millisecond {
		t.Errorf("p90 %v: slowness in every window must show", every.P90)
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	var s []Sample
	for i := 0; i < 98; i++ {
		s = append(s, Sample{Due: 0, Sent: 0, Done: time.Millisecond, Out: OK})
	}
	s = append(s, Sample{Done: time.Millisecond, Out: Refused}, Sample{Done: time.Millisecond, Out: Mismatch})
	sum := Summarize(s, nil)
	if sum.OK != 98 || sum.Refused != 1 || sum.Mismatch != 1 {
		t.Fatalf("counts %+v", sum)
	}
	if sum.FailRatio() != 0.02 {
		t.Fatalf("fail ratio %v, want 0.02", sum.FailRatio())
	}
	if sum.P99 != failLatency {
		t.Fatalf("p99 %v: 2%% failures must put p99 past every limit", sum.P99)
	}
}

func TestClientCountsRefusalsAndMismatchesAsFailures(t *testing.T) {
	status := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		fmt.Fprint(w, "body")
	}))
	defer srv.Close()
	c := newClient()
	defer c.close()
	for _, tc := range []struct {
		status int
		check  bool
		want   Outcome
	}{
		{http.StatusOK, true, OK},
		{http.StatusOK, false, Mismatch},
		{http.StatusTooManyRequests, true, Refused},
		{http.StatusServiceUnavailable, true, Refused},
		{http.StatusInternalServerError, true, Failed},
	} {
		status = tc.status
		ok := tc.check
		op := &httpOp{path: "/score", body: []byte("x"), check: func([]byte) bool { return ok }}
		if got := c.do(srv.URL, op, 1); got != tc.want {
			t.Errorf("status %d check %v: outcome %d, want %d", tc.status, tc.check, got, tc.want)
		}
		if tc.want != OK && Summarize([]Sample{{Out: c.do(srv.URL, op, 1)}}, nil).FailRatio() != 1 {
			t.Errorf("status %d check %v not counted as a failure", tc.status, tc.check)
		}
	}
}

func TestGoodputCountsAnswersWithinLimit(t *testing.T) {
	// Five rounds of 200 operations answered over 200 ms, one every ms;
	// every fourth takes longer than the limit.
	rounds := make([][]Sample, 5)
	for r := range rounds {
		for i := 0; i < 200; i++ {
			done := time.Duration(i+1) * time.Millisecond
			lat := time.Millisecond
			if i%4 == 0 {
				lat = 20 * time.Millisecond
			}
			rounds[r] = append(rounds[r], Sample{Due: done - lat, Sent: done - lat, Done: done, Out: OK})
		}
	}
	if g := Goodput(rounds, 10*time.Millisecond); g != 750 {
		t.Fatalf("goodput %v/s, want 750/s", g)
	}
	if g := Goodput(rounds, failLatency); g != 1000 {
		t.Fatalf("throughput %v/s, want 1000/s", g)
	}
	// A stall that fails every answer of two rounds of five does not
	// move the better half.
	for r := 0; r < 2; r++ {
		for i := range rounds[r] {
			rounds[r][i].Out = TimedOut
		}
	}
	if g := Goodput(rounds, 10*time.Millisecond); g != 750 {
		t.Fatalf("goodput %v/s after a stall in two rounds, want 750/s", g)
	}
	// Failures in every round show.
	for r := range rounds {
		for i := range rounds[r] {
			if i%2 == 1 {
				rounds[r][i].Out = Failed
			}
		}
	}
	if g := Goodput(rounds, 10*time.Millisecond); g != 250 {
		t.Fatalf("goodput %v/s with every other answer failed, want 250/s", g)
	}
}

func TestRoundsPoolTheBetterHalf(t *testing.T) {
	round := func(lat time.Duration, lag time.Duration) []Sample {
		s := make([]Sample, 100)
		for i := range s {
			due := time.Duration(i) * time.Millisecond
			s[i] = Sample{Due: due, Sent: due + time.Duration(i)*lag, Done: due + time.Duration(i)*lag + lat, Out: OK}
		}
		return s
	}
	// Eight rounds: one in a burst of host speed, five undisturbed, one
	// stalled and one building a backlog.
	rs := [][]Sample{round(time.Millisecond/2, 0), round(3*time.Millisecond, 0), round(2*time.Millisecond, 10*time.Microsecond)}
	for i := 0; i < 5; i++ {
		rs = append(rs, round(time.Millisecond, 0))
	}
	sum := SummarizeRounds(rs, nil)
	if sum.P50 != time.Millisecond || sum.P90 != time.Millisecond {
		t.Fatalf("p50/p90 %v/%v, want the undisturbed rounds' 1ms", sum.P50, sum.P90)
	}
	if sum.P99 != 3*time.Millisecond || sum.N != 800 || sum.OK != 800 {
		t.Fatalf("pooled p99 %v over %d samples", sum.P99, sum.N)
	}
	if sum.LagGrowth < 500*time.Microsecond {
		t.Fatalf("lag growth %v hides the backlog of one round", sum.LagGrowth)
	}
}

func TestLagGrowthShowsBacklog(t *testing.T) {
	flat := make([]Sample, 100)
	growing := make([]Sample, 100)
	for i := range flat {
		due := time.Duration(i) * time.Millisecond
		flat[i] = Sample{Due: due, Sent: due + 500*time.Microsecond, Done: due + time.Millisecond, Out: OK}
		lag := time.Duration(i) * 100 * time.Microsecond
		growing[i] = Sample{Due: due, Sent: due + lag, Done: due + lag + time.Millisecond, Out: OK}
	}
	if g := Summarize(flat, nil).LagGrowth; g != 0 {
		t.Fatalf("constant lag grew by %v", g)
	}
	if g := Summarize(growing, nil).LagGrowth; g < 5*time.Millisecond {
		t.Fatalf("a growing backlog shows lag growth %v", g)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	spec := scoreRoutedSpec(7)
	a := planOps(spec, 7, 1, 2040, 500)
	b := planOps(spec, 7, 1, 2040, 500)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("the same seed planned different streams")
	}
	if c := planOps(spec, 8, 1, 2040, 500); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds planned the same stream")
	}
	if c := planOps(spec, 7, 2, 2040, 500); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("two phases planned the same stream")
	}
	// Every block has the same mix, and tenants and binary entries come
	// up equally often.
	tenants := map[int]int{}
	bins := map[int]int{}
	for b := 0; b < len(a); b += planBlock {
		var feedback, relabels, json int
		for _, p := range a[b : b+planBlock] {
			tenants[p.Tenant]++
			switch {
			case p.Kind == kindFeedback:
				feedback++
				if p.Relabel >= 0 {
					relabels++
				}
			case p.JSON:
				json++
				if spec.rows(p.Entry) > spec.jsonMaxRows {
					t.Fatalf("JSON request of %d rows", spec.rows(p.Entry))
				}
			default:
				bins[p.Entry]++
			}
		}
		if feedback != 3 || relabels != 1 || json != 9 {
			t.Fatalf("block at %d: %d feedback (%d re-labels), %d JSON of %d", b, feedback, relabels, json, planBlock)
		}
	}
	if len(tenants) != len(spec.tenants) || len(bins) != spec.entries {
		t.Fatalf("%d of %d tenants and %d of %d entries used", len(tenants), len(spec.tenants), len(bins), spec.entries)
	}
	for k, n := range tenants {
		if n != len(a)/len(spec.tenants) {
			t.Errorf("tenant %d sent %d of %d operations", k, n, len(a))
		}
	}
	lo, hi := len(a), 0
	for _, n := range bins {
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > 1 {
		t.Errorf("binary entries dealt between %d and %d times", lo, hi)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != "[score-single score-routed-mixed fit]" {
		t.Errorf("workloads %v", names)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, code has %v", i, m, endToEnd[i])
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, code has %v", i, m, perLayer[i])
		}
	}
}
