package main

import (
	"context"
	"path/filepath"
	"strconv"
	"time"

	"targad/internal/activelearn"
	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/feedback"
	"targad/internal/mat"
	"targad/internal/monitor"
	"targad/internal/nn"
	"targad/internal/wire"
)

// perCall times reps batches of k calls of fn, each batch inside an
// "isolated" span, and returns the median time per call.
func perCall(tr *Tracer, name string, k, reps int, fn func(i int)) time.Duration {
	fn(0) // warm caches and pools
	d := make([]time.Duration, reps)
	for r := range d {
		d[r] = tr.Time(name, "isolated", func() {
			for i := 0; i < k; i++ {
				fn(i)
			}
		}) / time.Duration(k)
	}
	return medianDur(d)
}

// shapeCost is the isolated per-request work of the serving path at
// one row count: frame decode, inference, drift observation and
// response encode, called directly with no HTTP, queue or batcher.
type shapeCost struct {
	rows                           int
	decode, infer, observe, encode time.Duration
}

func (c shapeCost) total() time.Duration { return c.decode + c.infer + c.observe + c.encode }

// inferLayers measures the model-level layers on rows of traffic:
// core inference at 1/64/256 rows in f64 and 64 rows in f32 (on m32,
// which must be a separate copy of the model), drift observation,
// and the wire codec at each shape. It records core.*, mat.* and
// monitor.* metrics and returns the per-shape costs.
func inferLayers(v map[string]float64, tr *Tracer, m, m32 *core.Model, traffic *mat.Matrix) ([]shapeCost, error) {
	ctx := context.Background()
	ed := []core.OODStrategy{core.ED}
	acc, err := monitor.NewAccumulator(m.Profile(), monitor.Config{Strategy: int(core.ED)})
	if err != nil {
		return nil, err
	}
	var costs []shapeCost
	for _, rows := range []int{1, 64, 256} {
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = i % traffic.Rows
		}
		x := nn.Gather(traffic, idx)
		rowsOf := make([][]float64, rows)
		for i := range rowsOf {
			rowsOf[i] = x.Row(i)
		}
		frame, err := wire.AppendRequestF64(nil, rowsOf, wire.StrategyED, false)
		if err != nil {
			return nil, err
		}
		res, err := m.Infer(ctx, x, core.InferOptions{Strategies: ed})
		if err != nil {
			return nil, err
		}
		scores, kinds := res.Scores, res.Kinds[core.ED]
		c := shapeCost{rows: rows}
		reps := 15
		k := max(1, 256/rows)
		c.decode = perCall(tr, "wire.decode", k, reps, func(int) { _, _, _ = wire.DecodeRequestFrame(frame) })
		reuse := &core.InferResult{}
		c.infer = perCall(tr, "core.infer", k, reps, func(int) {
			reuse, _ = m.Infer(ctx, x, core.InferOptions{Strategies: ed, Reuse: reuse})
		})
		c.observe = perCall(tr, "monitor.observe", k, reps, func(int) { acc.Observe(x, scores, kinds) })
		var buf []byte
		c.encode = perCall(tr, "wire.encode", k, reps, func(int) { buf = encodeResponse(buf[:0], scores, kinds) })
		costs = append(costs, c)
		v["core.infer_us.rows"+strconv.Itoa(rows)] = us(c.infer)
		if rows == 64 {
			v["monitor.observe_us_per_row"] = us(c.observe) / 64
			if err := m32.EnableF32(nil); err != nil {
				return nil, err
			}
			x32 := mat.ToF32(nil, x)
			var r32 *core.InferResult
			v["core.infer_f32_us.rows64"] = us(perCall(tr, "core.infer_f32", k, reps, func(int) {
				r32, _ = m32.InferF32Rows(ctx, x32, core.InferOptions{Strategies: ed, Reuse: r32})
			}))
		}
	}
	v["mat.flops_per_row"] = flopsPerRow(m)
	return costs, nil
}

// encodeResponse appends the binary score response the server writes
// for scores and ED decisions.
func encodeResponse(dst []byte, scores []float64, kinds []dataset.Kind) []byte {
	dst = wire.AppendResponseHeader(dst, 1, len(scores), 0, wire.RespFlags(true, false, false))
	return wire.AppendScoreChunk(dst, scores, kinds, nil)
}

// flopsPerRow is computed from the classifier's layer shapes (d → d/2
// → d/4 → m+k, the core's default hidden widths), not measured: two
// flops per multiply-add of each dense layer.
func flopsPerRow(m *core.Model) float64 {
	d := m.Profile().Dim()
	h1, h2 := max(d/2, 32), max(d/4, 16)
	out := m.NumTargetTypes() + m.NumNormalClusters()
	return float64(2 * (d*h1 + h1*h2 + h2*out))
}

// costAt interpolates the isolated request cost linearly between the
// measured row counts.
func costAt(costs []shapeCost, rows int) time.Duration {
	if rows <= costs[0].rows {
		return costs[0].total()
	}
	for i := 1; i < len(costs); i++ {
		a, b := costs[i-1], costs[i]
		if rows <= b.rows {
			f := float64(rows-a.rows) / float64(b.rows-a.rows)
			return a.total() + time.Duration(f*float64(b.total()-a.total()))
		}
	}
	last := costs[len(costs)-1]
	return time.Duration(float64(last.total()) * float64(rows) / float64(last.rows))
}

// wireLayers times the codec on the workload's own request frames and
// the responses they get.
func wireLayers(v map[string]float64, tr *Tracer, frames [][]byte, answers []*expected) {
	n := len(frames)
	v["wire.decode_us"] = us(perCall(tr, "wire.decode", n, 15, func(i int) { _, _, _ = wire.DecodeRequestFrame(frames[i%n]) }))
	var buf []byte
	v["wire.encode_us"] = us(perCall(tr, "wire.encode", n, 15, func(i int) {
		buf = encodeResponse(buf[:0], answers[i%n].scores, answers[i%n].kinds)
	}))
	var req, resp int
	for i, f := range frames {
		req += len(f)
		resp += len(encodeResponse(nil, answers[i].scores, answers[i].kinds))
	}
	v["wire.req_bytes"] = float64(req) / float64(n)
	v["wire.resp_bytes"] = float64(resp) / float64(n)
}

// offerLayer times activelearn.Queue.Offer on scored traffic rows.
func offerLayer(v map[string]float64, tr *Tracer, m *core.Model, traffic *mat.Matrix) error {
	scores, err := m.Score(context.Background(), traffic)
	if err != nil {
		return err
	}
	q := activelearn.New(activelearn.Config{Budget: acquireBudget})
	thr := 1 - m.NormalPrior()
	n := traffic.Rows
	v["activelearn.offer_us"] = us(perCall(tr, "activelearn.offer", n, 15, func(i int) {
		q.Offer(traffic.Row(i%n), scores[i%n], thr, "", 1)
	}))
	return nil
}

// appendLayer times feedback.Store.Append, fsync included, on rows of
// traffic in a fresh store under dir.
func appendLayer(v map[string]float64, tr *Tracer, dir string, traffic *mat.Matrix) error {
	st, err := feedback.Open(filepath.Join(dir, "feedback-isolated"), feedback.Config{})
	if err != nil {
		return err
	}
	var d []time.Duration
	for i := 0; i < 100; i++ {
		rec := feedback.Record{Features: traffic.Row(i % traffic.Rows), Score: 0.5, Verdict: feedback.VerdictTarget}
		var aerr error
		d = append(d, tr.Time("feedback.append", "isolated", func() { _, aerr = st.Append(rec) }))
		if aerr != nil {
			st.Close()
			return aerr
		}
	}
	v["feedback.append_ms_p50"] = ms(medianDur(d))
	return st.Close()
}
