package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"targad/internal/activelearn"
	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/dataset/synth"
)

// runServing runs a serving workload: set-up (spec.setupReps times,
// keeping the last), then rounds of the two fixed-rate phases, the
// saturation phase and a retrain and bulk scoring of the default model
// (untraced), or one retrain and bulk scoring and the traced layer
// breakdown (one set-up).
func runServing(o options, spec *servingSpec, dir string, start time.Time) (*result, error) {
	res := &result{correct: true, values: map[string]float64{}}
	reps := spec.setupReps
	var tr *Tracer
	if o.trace {
		reps = 1
		tr = newTracer()
	}
	var setups []float64
	var w *servingRun
	for k := 0; k < reps; k++ {
		t := time.Now()
		sw, err := setupServing(spec, o.seed, filepath.Join(dir, fmt.Sprintf("setup-%d", k)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if k < reps-1 {
			sw.close()
			_ = os.RemoveAll(sw.dir)
			continue
		}
		w = sw
	}
	defer w.close()
	v := res.values
	v["setup_s"] = medianF(setups)
	res.notef("%s seed=%d setup_s=%v (first op %.2fs after start)", spec.name, o.seed, setups, time.Since(start).Seconds())
	if !w.streamCheck {
		res.correct = false
		res.notef("FAIL: the same seed planned two different request streams")
	}
	def := w.models[0]
	probe, err := newOfflineProbe(func(r int) (*dataset.TrainSet, error) {
		if r == 0 {
			return def.bundle.Train, nil
		}
		b, err := synth.Generate(synth.UNSWNB15(), synth.Options{Scale: servedScale, Seed: drawSeed(def.spec.seed, r), LabeledPerType: servedLabeled})
		if err != nil {
			return nil, err
		}
		return b.Train, nil
	}, func(t *dataset.TrainSet) (*core.Model, error) {
		m := core.New(serveFitConfig(), def.spec.seed)
		return m, m.Fit(context.Background(), t)
	}, def.ref, w.pool.traffic)
	if err != nil {
		return nil, err
	}
	if o.trace {
		probe.round(0)
		if err := probe.record(res); err != nil {
			return nil, err
		}
		return res, traceServing(o, w, res)
	}
	l := w.loop()
	l.offline = probe.round
	l.measure(o, res)
	return res, probe.record(res)
}

// loop is the workload's open-loop schedule.
func (w *servingRun) loop() openLoop {
	return openLoop{
		low: w.spec.low, high: w.spec.high, share: (1 - saturationShare) / 2,
		limit: w.spec.limit, phase: w.phase, saturate: w.saturate, unit: "req/s",
	}
}

// traceServing measures the fixed-rate phases untraced and then traced,
// runs the isolated layer calls, and derives the per-layer metrics.
func traceServing(o options, w *servingRun, res *result) error {
	v := res.values
	spec := w.spec
	c0, err := w.sys.counters()
	if err != nil {
		return err
	}
	low, high, _, _ := w.loop().measureTraced(o, res, w.tr)
	c1, err := w.sys.counters()
	if err != nil {
		return err
	}
	spans := w.tr.Spans()

	d := c1.sub(c0)
	v["serve.rows_per_batch"] = d.rows / max(d.batches, 1)
	v["serve.shed"] = d.shed
	v["fleet.attempts_per_req"] = 0
	if spec.routed && d.routerReqs > 0 {
		v["fleet.attempts_per_req"] = (d.routerReqs + d.retries + d.hedges) / d.routerReqs
	}
	v["registry.loads"] = float64(c1.loads)
	v["registry.evictions"] = float64(c1.evictions)
	v["registry.singleflight_waits"] = float64(c1.sfWaits)
	v["registry.cold_load_ms"] = ms(medianDur(w.coldLoads))

	handler := spanDurs(spans, "serve.handler")
	v["serve.handler_ms_p50"] = ms(pct(handler, 50))
	v["serve.handler_ms_p99"] = ms(pct(handler, 99))
	v["fleet.hop_ms_p50"], v["fleet.hop_ms_p99"] = 0, 0
	if spec.routed {
		hop := selfTimes(spans, "fleet.router", "serve.handler")
		v["fleet.hop_ms_p50"] = ms(pct(hop, 50))
		v["fleet.hop_ms_p99"] = ms(pct(hop, 99))
	}
	// JSON against binary handler time over the same request bodies
	// (JSON requests draw only the small entries).
	var js, bin []time.Duration
	for _, s := range spans {
		if p, ok := w.spanPlan(s); ok && p.Kind == kindScore && p.Entry < spec.jsonEntries() {
			if s.Attr == "json" {
				js = append(js, s.Dur())
			} else {
				bin = append(bin, s.Dur())
			}
		}
	}
	v["serve.json_overhead_ms"] = 0
	if len(js) > 0 && len(bin) > 0 {
		sortDur(js)
		sortDur(bin)
		v["serve.json_overhead_ms"] = ms(pct(js, 50) - pct(bin, 50))
	}

	// Isolated calls into each layer's public functions.
	def := w.models[0]
	m32, err := loadModel(def.path)
	if err != nil {
		return err
	}
	if spec.models[len(spec.models)-1].f32 {
		if m32, err = loadModel(w.models[len(w.models)-1].path); err != nil {
			return err
		}
	}
	costs, err := inferLayers(v, w.tr, def.ref, m32, w.pool.traffic)
	if err != nil {
		return err
	}
	v["serve.wait_ms_p50"] = ms(w.waitP50(spans, costs))
	wireLayers(v, w.tr, w.pool.bin, w.pool.exp[0])
	if err := offerLayer(v, w.tr, def.ref, w.pool.traffic); err != nil {
		return err
	}
	if err := appendLayer(v, w.tr, w.dir, w.pool.traffic); err != nil {
		return err
	}
	v["activelearn.offered"], v["activelearn.admitted"] = 0, 0
	if spec.feedback {
		v["activelearn.offered"], v["activelearn.admitted"] = w.replayAcquisition(w.plans[1], w.plans[2])
	}
	fb := func(k uint8) bool { return k == kindFeedback }
	fbLat := latencies(append(append([]Sample(nil), low...), high...), fb)
	v["feedback.post_ms_p50"] = ms(pct(fbLat, 50))
	v["feedback.post_ms_p95"] = ms(pct(fbLat, 95))
	v["feedback.dedup_ratio"] = dedupRatio(append(append([]opPlan(nil), w.plans[1]...), w.plans[2]...))

	// Training layers do not run in a serving workload's timed phases.
	for _, k := range []string{"cluster.choosek_s", "cluster.kmeans_s", "autoencoder.train_s", "core.clf_epoch_ms", "core.clf_s", "core.pre_clf_s"} {
		v[k] = 0
	}
	v["core.score_us_per_row"] = 1e6 / v["score_rows_per_s"]
	v["core.auprc"] = def.ref.EvalAUPRC(def.bundle.Test)
	return writeSpans(o, w.tr)
}

func writeSpans(o options, tr *Tracer) error {
	dir := filepath.Join(o.workdir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
}

// pct is the nearest-rank percentile of sorted durations (0 if none).
func pct(sorted []time.Duration, p float64) time.Duration {
	v, _ := Percentile(sorted, p)
	return v
}

// latencies returns the sorted latencies of the successful samples
// whose kind passes keep.
func latencies(s []Sample, keep func(uint8) bool) []time.Duration {
	var d []time.Duration
	for _, x := range s {
		if x.Out == OK && keep(x.Kind) {
			d = append(d, x.Latency())
		}
	}
	sortDur(d)
	return d
}

// spanPlan returns the planned operation behind a replica handler
// span of a traced phase.
func (w *servingRun) spanPlan(s Span) (opPlan, bool) {
	if s.Name != "serve.handler" || s.Req == 0 {
		return opPlan{}, false
	}
	plans := w.plans[int(s.Req>>32)]
	i := int(s.Req&(1<<32-1)) - 1
	if i < 0 || i >= len(plans) {
		return opPlan{}, false
	}
	return plans[i], true
}

// waitP50 derives the time a binary scoring request spent in the
// replica handler beyond its isolated decode+infer+observe+encode
// cost — the batcher's queue and timed wait plus HTTP read/write — as
// the median over the traced phases.
func (w *servingRun) waitP50(spans []Span, costs []shapeCost) time.Duration {
	var wait []time.Duration
	for _, s := range spans {
		if p, ok := w.spanPlan(s); ok && p.Kind == kindScore && s.Attr == "binary" {
			wait = append(wait, s.Dur()-costAt(costs, w.pool.x[p.Entry].Rows))
		}
	}
	sortDur(wait)
	return pct(wait, 50)
}

// dedupRatio is the share of feedback operations that re-labeled an
// already-labeled row (each checked to be answered added=false).
func dedupRatio(plans []opPlan) float64 {
	var fb, re int
	for _, p := range plans {
		if p.Kind == kindFeedback {
			fb++
			if p.Relabel >= 0 {
				re++
			}
		}
	}
	if fb == 0 {
		return 0
	}
	return float64(re) / float64(fb)
}

// replayAcquisition replays the untraced phases' scoring requests into
// benchmark-owned acquisition queues, one per (home replica, model) as
// the registry arms them, sampling every 1/AcquireSample-th batch per
// queue as the server does. The registry's /metrics does not expose
// the acquisition counters, so they are reproduced here.
func (w *servingRun) replayAcquisition(phases ...[]opPlan) (offered, admitted float64) {
	type key struct{ rep, model int }
	type slot struct {
		q   *activelearn.Queue
		acc float64
	}
	slots := map[key]*slot{}
	sample := serveDefaults().AcquireSample
	for _, plans := range phases {
		for _, p := range plans {
			if p.Kind != kindScore {
				continue
			}
			tenant := w.spec.tenants[p.Tenant]
			k := key{w.sys.router.TenantBackend(tenant), w.modelIx[w.spec.tenantModel[tenant]]}
			s := slots[k]
			if s == nil {
				s = &slot{q: activelearn.New(activelearn.Config{Budget: acquireBudget})}
				slots[k] = s
			}
			s.acc += sample
			if s.acc < 1 {
				continue
			}
			s.acc--
			m := w.models[k.model].ref
			ex := w.pool.exp[k.model][p.Entry]
			x := w.pool.x[p.Entry]
			for i := 0; i < x.Rows; i++ {
				s.q.Offer(x.Row(i), ex.scores[i], 1-m.NormalPrior(), ex.kinds[i].String(), 1)
			}
		}
	}
	for _, s := range slots {
		st := s.q.Stats()
		offered += float64(st.Offered)
		admitted += float64(st.Admitted)
	}
	return offered, admitted
}
