package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"targad/internal/autoencoder"
	"targad/internal/cluster"
	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/mat"
	"targad/internal/metrics"
	"targad/internal/nn"
	"targad/internal/rng"
)

// The fit workload trains on synthetic UNSW-NB15 at fitScale (626
// unlabeled rows, 226 test rows, fitLabeled labeled rows per target
// type) with DefaultConfig.
const (
	fitScale   = 0.01
	fitLabeled = 20
	// fitSetupReps set-ups give the setup_s median.
	fitSetupReps = 5
	// fitLow and fitHigh are the rows each call of the offline scoring
	// loop scores: the first fitLow rows of the pool + test matrix, the
	// size of a small served request, and the whole matrix (852 rows).
	fitLow, fitHigh = 64, 852
)

// runFit runs the offline workload: repeated Fit, bulk Score, and a
// closed loop of Model.Infer calls with no serving layer in the path.
func runFit(o options, dir string, start time.Time) (*result, error) {
	res := &result{correct: true, values: map[string]float64{}}
	v := res.values
	ctx := context.Background()

	// Set-up: synthesize the data and warm the process up with a short
	// fit (the first Fit in a process runs measurably slower).
	var setups []float64
	var b *dataset.Bundle
	for k := 0; k < fitSetupReps; k++ {
		t := time.Now()
		var err error
		b, err = synth.Generate(synth.UNSWNB15(), synth.Options{Scale: fitScale, Seed: o.seed, LabeledPerType: fitLabeled})
		if err != nil {
			return nil, err
		}
		warm := core.DefaultConfig()
		warm.AEEpochs, warm.ClfEpochs = 2, 2
		if err := core.New(warm, o.seed).Fit(ctx, b.Train); err != nil {
			return nil, fmt.Errorf("warm-up fit: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	v["setup_s"] = medianF(setups)
	res.notef("fit seed=%d setup_s=%v (first op %.2fs after start)", o.seed, setups, time.Since(start).Seconds())

	// The first fit gives the model the scoring loop calls, which the
	// first round's retrain must reproduce bitwise; a traced run records
	// its classifier epochs.
	cfg := core.DefaultConfig()
	var epochs []time.Time
	if o.trace {
		cfg.EpochHook = func(int, *core.Model) { epochs = append(epochs, time.Now()) }
	}
	m := core.New(cfg, o.seed)
	fitStart := time.Now()
	if err := m.Fit(ctx, b.Train); err != nil {
		return nil, err
	}
	fitEnd := time.Now()
	test, err := m.Score(ctx, b.Test.X)
	if err != nil {
		return nil, err
	}
	auprc, err := metrics.AUPRC(test, b.Test.TargetLabels())
	if err != nil {
		return nil, err
	}
	res.notef("first fit %v k=%d auprc=%.6f", fitEnd.Sub(fitStart), m.NumNormalClusters(), auprc)

	// Retrains (on the same data, then on fresh draws) and bulk scoring
	// of the unlabeled pool plus the test split, once per round.
	big := stack(b.Train.Unlabeled, b.Test.X)
	probe, err := newOfflineProbe(func(r int) (*dataset.TrainSet, error) {
		if r == 0 {
			return b.Train, nil
		}
		d, err := synth.Generate(synth.UNSWNB15(), synth.Options{Scale: fitScale, Seed: drawSeed(o.seed, r), LabeledPerType: fitLabeled})
		if err != nil {
			return nil, err
		}
		return d.Train, nil
	}, func(t *dataset.TrainSet) (*core.Model, error) {
		mk := core.New(core.DefaultConfig(), o.seed)
		return mk, mk.Fit(ctx, t)
	}, m, big)
	if err != nil {
		return nil, err
	}
	if big.Rows != fitHigh {
		return nil, fmt.Errorf("pool + test matrix has %d rows, want %d", big.Rows, fitHigh)
	}

	// Offline scoring loop: each operation is a Model.Infer of the
	// small or the whole matrix, checked bitwise against
	// Score/Identify of the same rows.
	fl := &fitLoop{m: m}
	for _, x := range []*mat.Matrix{nn.Gather(big, seq(fitLow)), big} {
		ex, err := offline(m, x, 0)
		if err != nil {
			return nil, err
		}
		fl.x = append(fl.x, x)
		fl.want = append(fl.want, ex)
	}

	if o.trace {
		probe.round(0)
		if err := probe.record(res); err != nil {
			return nil, err
		}
		return res, traceFit(o, res, fl, b, big, auprc, epochs, fitStart, fitEnd)
	}
	l := fl.loop()
	l.offline = probe.round
	l.measure(o, res)
	return res, probe.record(res)
}

// loop is the workload's open-loop schedule.
func (f *fitLoop) loop() openLoop {
	return openLoop{
		low: fitLow, high: fitHigh, share: 0.35, phase: f.phase,
		unit: fmt.Sprintf("ops/s of %d rows", fitHigh),
	}
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// fitLoop is the offline scoring loop of the fit workload.
type fitLoop struct {
	m *core.Model
	// x holds the small and the whole matrix, want their answers.
	x    []*mat.Matrix
	want []*expected
	tr   *Tracer // nil when the run is untraced
}

// phase runs a closed loop of one caller scoring the matrix of rows
// rows for dur. Offline scoring is a caller that waits for each
// answer, so there is no arrival schedule. One caller, because Infer
// already spreads its rows over every processor.
func (f *fitLoop) phase(phase int, rows float64, dur time.Duration) []Sample {
	k := 0
	if int(rows) == fitHigh {
		k = 1
	}
	x, want := f.x[k], f.want[k]
	var reuse *core.InferResult
	ed := []core.OODStrategy{core.ED}
	var n atomic.Uint64
	return RunClosedLoop(1, dur, func(int) (uint8, Outcome) {
		var start int64
		if f.tr != nil {
			start = f.tr.now()
		}
		res, err := f.m.Infer(context.Background(), x, core.InferOptions{Strategies: ed, Reuse: reuse})
		if f.tr != nil {
			f.tr.Record(Span{Name: "loadgen.op", Req: uint64(phase)<<32 + n.Add(1), Start: start, End: f.tr.now()})
		}
		if err != nil {
			return 0, Failed
		}
		reuse = res
		if !want.match(res.Scores, len(res.Kinds[core.ED]), func(j int) dataset.Kind { return res.Kinds[core.ED][j] }) {
			return 0, Mismatch
		}
		return 0, OK
	})
}

// traceFit reports the training and offline-scoring layers: each
// stage of Fit called on its own with the data, configuration and
// random streams Fit uses, the classifier epochs from the last timed
// fit's EpochHook, and the offline open loop untraced then traced.
func traceFit(o options, res *result, fl *fitLoop, b *dataset.Bundle, big *mat.Matrix, auprc float64, epochs []time.Time, fitStart, fitEnd time.Time) error {
	v := res.values
	tr := newTracer()
	tr.on.Store(true)
	defer tr.on.Store(false)
	ctx := context.Background()
	cfg := core.DefaultConfig()
	x := b.Train.Unlabeled

	// Fit splits its seed's stream in this order: elbow (when k is
	// chosen), kmeans, aes.
	r := rng.New(o.seed)
	var k int
	var err error
	v["cluster.choosek_s"] = tr.Time("cluster.choosek", "core.fit", func() {
		k, _, err = cluster.ChooseK(ctx, x, cfg.KMin, cfg.KMax, r.Split("elbow"))
	}).Seconds()
	if err != nil {
		return err
	}
	if k != fl.m.NumNormalClusters() {
		return fmt.Errorf("isolated ChooseK picked k=%d, Fit picked %d", k, fl.m.NumNormalClusters())
	}
	var cr *cluster.Result
	v["cluster.kmeans_s"] = tr.Time("cluster.kmeans", "core.fit", func() {
		cr, err = cluster.KMeans(ctx, x, cluster.Config{K: k}, r.Split("kmeans"))
	}).Seconds()
	if err != nil {
		return err
	}
	clusters := make([][]int, k)
	for i, c := range cr.Assignment {
		clusters[c] = append(clusters[c], i)
	}
	aeCfg := autoencoder.Config{
		InputDim: x.Cols, Hidden: cfg.AEHidden, Eta: cfg.Eta, LR: cfg.AELR,
		BatchSize: cfg.AEBatch, Epochs: cfg.AEEpochs,
	}
	v["autoencoder.train_s"] = tr.Time("autoencoder.train_per_cluster", "core.fit", func() {
		_, _, err = autoencoder.TrainPerCluster(ctx, x, b.Train.Labeled, clusters, aeCfg, r.Split("aes"), nil)
	}).Seconds()
	if err != nil {
		return err
	}
	if len(epochs) < 2 {
		return errors.New("EpochHook fired fewer than two times")
	}
	gaps := make([]time.Duration, len(epochs)-1)
	for i := range gaps {
		gaps[i] = epochs[i+1].Sub(epochs[i])
	}
	epoch := medianDur(gaps)
	v["core.clf_epoch_ms"] = ms(epoch)
	v["core.pre_clf_s"] = (epochs[0].Sub(fitStart) - epoch).Seconds()
	v["core.clf_s"] = (epochs[len(epochs)-1].Sub(epochs[0]) + epoch).Seconds()
	v["core.score_us_per_row"] = 1e6 / v["score_rows_per_s"]
	v["core.auprc"] = auprc
	res.notef("fit wall %v: pre-classifier %.3fs, %d classifier epochs of %v", fitEnd.Sub(fitStart), v["core.pre_clf_s"], len(epochs), epoch)

	m32, err := cloneModel(fl.m)
	if err != nil {
		return err
	}
	if _, err := inferLayers(v, tr, fl.m, m32, big); err != nil {
		return err
	}

	fl.tr = tr
	fl.loop().measureTraced(o, res, tr)

	// No serving layer runs in the fit workload.
	for _, k := range []string{
		"fleet.hop_ms_p50", "fleet.hop_ms_p99", "fleet.attempts_per_req",
		"registry.loads", "registry.evictions", "registry.singleflight_waits", "registry.cold_load_ms",
		"serve.handler_ms_p50", "serve.handler_ms_p99", "serve.rows_per_batch", "serve.shed",
		"serve.wait_ms_p50", "serve.json_overhead_ms",
		"wire.decode_us", "wire.encode_us", "wire.req_bytes", "wire.resp_bytes",
		"activelearn.offered", "activelearn.admitted", "activelearn.offer_us",
		"feedback.append_ms_p50", "feedback.dedup_ratio", "feedback.post_ms_p50", "feedback.post_ms_p95",
	} {
		v[k] = 0
	}
	return writeSpans(o, tr)
}

// cloneModel round-trips m through its saved form, giving an
// independent copy (the f32 path mutates the model it is enabled on).
func cloneModel(m *core.Model) (*core.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return core.Load(&buf)
}
