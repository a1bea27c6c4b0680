package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/wire"
)

// Operation kinds of the serving mix.
const (
	kindScore uint8 = iota
	kindFeedback
)

// servingSpec defines one serving workload.
type servingSpec struct {
	name string
	// models are the manifested models, the default first.
	models []modelSpec
	// tenants are the tenant ids requests carry (none: tenantless) and
	// tenantModel maps each to its model.
	tenants     []string
	tenantModel map[string]string
	replicas    int
	routed      bool
	// feedback arms verdict stores and acquisition, and mixes
	// feedbackShare of POST /feedback into the operations.
	feedback      bool
	feedbackShare float64
	// relabelShare of the feedback operations re-label a row labeled
	// during set-up (expected answer: added=false).
	relabelShare float64
	// minRows..maxRows rows per scoring request, from entries distinct
	// request bodies; jsonShare of scoring requests are JSON and carry
	// at most jsonMaxRows rows.
	minRows, maxRows, entries int
	jsonShare                 float64
	jsonMaxRows               int
	// setupReps is how many times an untraced run sets the system up;
	// setup_s and fit_s are medians over them.
	setupReps int
	// low and high are the fixed rates (req/s); limit is the latency
	// within which an answer counts toward max_rps.
	low, high float64
	limit     time.Duration
}

func scoreSingleSpec(seed int64) *servingSpec {
	return &servingSpec{
		name:      "score-single",
		models:    []modelSpec{{name: "base", seed: seed*10 + 1}},
		replicas:  1,
		setupReps: 3,
		minRows:   1,
		maxRows:   1,
		entries:   512,
		low:       100,
		high:      250,
		limit:     10 * time.Millisecond,
	}
}

func scoreRoutedSpec(seed int64) *servingSpec {
	tm := map[string]string{}
	var tenants []string
	for i, model := range []string{"alpha", "alpha", "alpha", "beta", "beta", "beta", "base", "base"} {
		t := fmt.Sprintf("tenant-%d", i)
		tenants = append(tenants, t)
		tm[t] = model
	}
	return &servingSpec{
		name: "score-routed-mixed",
		models: []modelSpec{
			{name: "base", seed: seed*10 + 1},
			{name: "alpha", seed: seed*10 + 2},
			{name: "beta", seed: seed*10 + 3, f32: true},
		},
		tenants:       tenants,
		tenantModel:   tm,
		replicas:      2,
		setupReps:     3,
		routed:        true,
		feedback:      true,
		feedbackShare: 0.1,
		relabelShare:  1.0 / 3,
		minRows:       64,
		maxRows:       256,
		entries:       16,
		jsonShare:     1.0 / 3,
		jsonMaxRows:   96,
		low:           50,
		high:          75,
		limit:         50 * time.Millisecond,
	}
}

// acquireBudget is the acquisition queue capacity of feedback-armed
// workloads (targad-serve's -acquire-budget has no default; 256 is
// activelearn's own default).
const acquireBudget = 256

// relabelSet is how many rows set-up labels for later re-labels.
const relabelSet = 24

// rows is the row count of pool entry e. Counts rise evenly over
// [minRows, maxRows] with e, so every seed gets the same size mix and
// only the rows themselves vary.
func (s *servingSpec) rows(e int) int {
	if s.entries < 2 {
		return s.minRows
	}
	return s.minRows + e*(s.maxRows-s.minRows)/(s.entries-1)
}

// jsonEntries is the number of leading pool entries small enough to be
// sent as JSON.
func (s *servingSpec) jsonEntries() int {
	n := 0
	for n < s.entries && s.rows(n) <= s.jsonMaxRows {
		n++
	}
	return n
}

// opPlan is one planned operation: everything about it that the seed
// decides, before any request body exists.
type opPlan struct {
	Kind    uint8
	Entry   int // pool entry (score) or traffic row (new feedback row)
	Tenant  int // index into spec.tenants; -1 tenantless
	JSON    bool
	Verdict string
	TType   int
	// Relabel >= 0 re-labels that member of the set-up relabel set.
	Relabel int
}

// planBlock is the length of the blocks a phase's stream is dealt in:
// every block holds the same mix of operation kinds, and every window
// of a phase holds whole blocks give or take one, so the mix does not
// vary with the seed or between the windows of a phase.
const planBlock = 30

// blockMix is how many operations of a block are feedback, how many of
// those re-label, and how many scoring requests are JSON.
func (s *servingSpec) blockMix() (feedback, relabel, json int) {
	if s.feedback {
		feedback = int(planBlock*s.feedbackShare + 0.5)
		relabel = int(float64(feedback)*s.relabelShare + 0.5)
	}
	json = int(float64(planBlock-feedback)*s.jsonShare + 0.5)
	return feedback, relabel, json
}

// deck deals 0..n-1 in a fresh random order each time it runs out, so
// every value comes up equally often.
type deck struct {
	vals []int
}

func (d *deck) next(r *rand.Rand, n int) int {
	if len(d.vals) == 0 {
		d.vals = r.Perm(n)
	}
	v := d.vals[0]
	d.vals = d.vals[1:]
	return v
}

// planner plans a phase's operations one at a time. The stream depends
// only on the spec, seed and phase: the same seed and phase always give
// the same stream. It is dealt in blocks of planBlock operations with
// the spec's exact mix in each block, in an order the seed shuffles;
// tenants and pool entries are dealt from shuffled decks, so each comes
// up equally often.
type planner struct {
	spec                           *servingSpec
	r                              *rand.Rand
	trafficRows                    int
	block                          []opPlan
	next                           int
	tenants, bins, jsons, relabels deck
}

func newPlanner(spec *servingSpec, seed int64, phase, trafficRows int) *planner {
	nfb, nre, njs := spec.blockMix()
	block := make([]opPlan, planBlock)
	for i := range block {
		p := &block[i]
		switch {
		case i < nre:
			p.Kind, p.Relabel = kindFeedback, 0
		case i < nfb:
			p.Kind, p.Relabel = kindFeedback, -1
		default:
			p.Relabel = -1
			p.JSON = i < nfb+njs
		}
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)))
	return &planner{spec: spec, r: r, trafficRows: trafficRows, block: block, next: planBlock}
}

var verdicts = []string{"target", "non-target", "benign"}

// plan returns the next planned operation.
func (pl *planner) plan() opPlan {
	spec, r := pl.spec, pl.r
	if pl.next == planBlock {
		r.Shuffle(planBlock, func(i, j int) { pl.block[i], pl.block[j] = pl.block[j], pl.block[i] })
		pl.next = 0
	}
	p := pl.block[pl.next]
	pl.next++
	p.Tenant = -1
	if len(spec.tenants) > 0 {
		p.Tenant = pl.tenants.next(r, len(spec.tenants))
	}
	switch {
	case p.Kind == kindFeedback:
		p.Verdict = verdicts[r.Intn(len(verdicts))]
		p.TType = r.Intn(3)
		if p.Relabel >= 0 {
			p.Relabel = pl.relabels.next(r, relabelSet)
		} else {
			p.Entry = r.Intn(pl.trafficRows)
		}
	case p.JSON:
		p.Entry = pl.jsons.next(r, spec.jsonEntries())
	default:
		p.Entry = pl.bins.next(r, spec.entries)
	}
	return p
}

// planOps plans the first n operations of phase.
func planOps(spec *servingSpec, seed int64, phase, n, trafficRows int) []opPlan {
	pl := newPlanner(spec, seed, phase, trafficRows)
	plans := make([]opPlan, n)
	for i := range plans {
		plans[i] = pl.plan()
	}
	return plans
}

// pool holds the prepared request bodies and their offline answers.
type pool struct {
	traffic *mat.Matrix   // rows requests draw from
	x       []*mat.Matrix // per entry
	bin     [][]byte
	js      [][]byte
	exp     [][]*expected // [model][entry]
}

func buildPool(spec *servingSpec, seed int64, models []*servedModel) (*pool, error) {
	base := models[0].bundle
	traffic := stack(base.Test.X, base.Train.Unlabeled)
	r := rand.New(rand.NewSource(seed*7919 + 17))
	p := &pool{traffic: traffic, exp: make([][]*expected, len(models))}
	for e := 0; e < spec.entries; e++ {
		n := spec.rows(e)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = r.Intn(traffic.Rows)
		}
		x := nn.Gather(traffic, idx)
		p.x = append(p.x, x)
		rowsOf := make([][]float64, n)
		for i := range rowsOf {
			rowsOf[i] = x.Row(i)
		}
		b, err := wire.AppendRequestF64(nil, rowsOf, wire.StrategyED, false)
		if err != nil {
			return nil, err
		}
		p.bin = append(p.bin, b)
		if e < spec.jsonEntries() {
			j, err := json.Marshal(map[string]any{"instances": rowsOf, "strategy": "ED"})
			if err != nil {
				return nil, err
			}
			p.js = append(p.js, j)
		}
		for mi, m := range models {
			tol := 0.0
			if m.spec.f32 {
				tol = f32Tol
			}
			ex, err := offline(m.ref, x, tol)
			if err != nil {
				return nil, err
			}
			p.exp[mi] = append(p.exp[mi], ex)
		}
	}
	return p, nil
}

// fitSlice and scoreSlice are how long each round of an offlineProbe
// retrains (at least once) and scores.
const (
	fitSlice   = 1200 * time.Millisecond
	scoreSlice = 400 * time.Millisecond
)

// offlineProbe times the offline calls a workload reports besides its
// phases, once per round so that they too sample the whole run:
// fitSlice of retrains (at least one) and scoreSlice of bulk
// Model.Score calls. Round 0 retrains on the model's own data, and
// that retrain must score x bitwise like the model; every later round
// retrains on a fresh draw of data of the same shape, so fit_s (the
// median over rounds of each round's fastest retrain) is the cost over
// data, not that of one draw: with the DefaultConfig the elbow picks k
// = 3 to 5 and the clusters train in parallel, so a draw alone moved a
// fit by 40%. score_rows_per_s is the third quartile of the rounds'
// median call rates. Every call must score x bitwise like the model.
type offlineProbe struct {
	train func(round int) (*dataset.TrainSet, error)
	fit   func(*dataset.TrainSet) (*core.Model, error)
	model *core.Model
	x     *mat.Matrix
	want  []float64

	fits  []time.Duration // each round's fastest
	rates []float64
	same  bool
	err   error
}

func newOfflineProbe(train func(round int) (*dataset.TrainSet, error), fit func(*dataset.TrainSet) (*core.Model, error), m *core.Model, x *mat.Matrix) (*offlineProbe, error) {
	want, err := m.Score(context.Background(), x)
	return &offlineProbe{train: train, fit: fit, model: m, x: x, want: want, same: true}, err
}

// round runs one slice of retrains and one of scoring; the first error
// stops the probe and is kept in p.err.
func (p *offlineProbe) round(r int) {
	if p.err != nil {
		return
	}
	ctx := context.Background()
	data, err := p.train(r)
	if err != nil {
		p.err = err
		return
	}
	var fits []time.Duration
	for start := time.Now(); len(fits) == 0 || time.Since(start) < fitSlice; {
		t := time.Now()
		m, err := p.fit(data)
		if err != nil {
			p.err = err
			return
		}
		fits = append(fits, time.Since(t))
		if r == 0 {
			s, err := m.Score(ctx, p.x)
			if err != nil {
				p.err = err
				return
			}
			p.same = p.same && bitwiseEqual(s, p.want)
		}
	}
	p.fits = append(p.fits, slices.Min(fits))
	var rates []float64
	for start := time.Now(); len(rates) == 0 || time.Since(start) < scoreSlice; {
		t := time.Now()
		s, err := p.model.Score(ctx, p.x)
		if err != nil {
			p.err = err
			return
		}
		rates = append(rates, float64(p.x.Rows)/time.Since(t).Seconds())
		p.same = p.same && bitwiseEqual(s, p.want)
	}
	p.rates = append(p.rates, medianF(rates))
}

// record sets fit_s and score_rows_per_s and fails the run's
// correctness if a retrain or a call scored differently.
func (p *offlineProbe) record(res *result) error {
	if p.err != nil {
		return p.err
	}
	res.values["fit_s"] = medianDur(p.fits).Seconds()
	res.values["score_rows_per_s"] = upperQuartile(p.rates)
	res.notef("fastest retrain %v, bulk scoring %.0f rows/s per round", p.fits, p.rates)
	if !p.same {
		res.correct = false
		res.notef("FAIL: a retrain on the model's own data and seed, or a repeated Model.Score, scored differently")
	}
	return nil
}

// drawSeed is the data seed of a round's fresh draw.
func drawSeed(seed int64, round int) int64 { return seed*7919 + int64(round) }

func stack(a, b *mat.Matrix) *mat.Matrix {
	out := mat.New(a.Rows+b.Rows, a.Cols)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// servingRun is one set-up serving topology with its generator.
type servingRun struct {
	spec    *servingSpec
	seed    int64
	dir     string
	models  []*servedModel
	modelIx map[string]int
	sys     *system
	pool    *pool
	clients []*client
	tr      *Tracer // nil when the run is untraced
	// plans holds each phase's planned operations by phase id.
	plans map[int][]opPlan

	// Set-up measurements.
	coldLoads   []time.Duration
	streamCheck bool
}

// generatorWorkers is the number of sending goroutines, each with one
// connection.
const generatorWorkers = 2

// setupServing trains and saves the models, starts the replicas (and
// router), prepares every request body with its offline answer, cold
// loads each non-default model on every replica, labels the relabel
// set and warms the path up.
func setupServing(spec *servingSpec, seed int64, dir string, tr *Tracer) (*servingRun, error) {
	w := &servingRun{spec: spec, seed: seed, dir: dir, tr: tr, modelIx: map[string]int{}, plans: map[int][]opPlan{}}
	modelDir := filepath.Join(dir, "models")
	if err := os.MkdirAll(modelDir, 0o755); err != nil {
		return nil, err
	}
	for i, ms := range spec.models {
		m, err := trainServed(modelDir, ms)
		if err != nil {
			return nil, err
		}
		w.models = append(w.models, m)
		w.modelIx[ms.name] = i
	}
	if err := writeManifest(modelDir, w.models, spec.tenantModel); err != nil {
		return nil, err
	}
	p, err := buildPool(spec, seed, w.models)
	if err != nil {
		return nil, err
	}
	w.pool = p

	fbRoot := ""
	if spec.feedback {
		fbRoot = filepath.Join(dir, "feedback")
	}
	if w.sys, err = startSystem(modelDir, spec.replicas, spec.routed, fbRoot, acquireBudget, tr); err != nil {
		return nil, err
	}
	for i := 0; i < generatorWorkers; i++ {
		w.clients = append(w.clients, newClient())
	}
	if err := w.coldLoad(); err != nil {
		w.close()
		return nil, err
	}
	if err := w.warm(); err != nil {
		w.close()
		return nil, err
	}
	a := planOps(spec, seed, 1, 64, p.traffic.Rows)
	b := planOps(spec, seed, 1, 64, p.traffic.Rows)
	w.streamCheck = fmt.Sprint(a) == fmt.Sprint(b)
	return w, nil
}

func (w *servingRun) close() {
	for _, c := range w.clients {
		c.close()
	}
	if w.sys != nil {
		w.sys.close()
	}
}

// coldLoad sends the first request for each non-default model straight
// to every replica (X-Targad-Model), timing the lazy load.
func (w *servingRun) coldLoad() error {
	for _, rep := range w.sys.replicas {
		for mi, m := range w.models[1:] {
			op := &httpOp{path: "/score", body: w.pool.bin[0], binary: true, model: m.spec.name, check: w.pool.exp[mi+1][0].checkBinary}
			start := time.Now()
			if out := w.clients[0].do(rep.l.url, op, 0); out != OK {
				return fmt.Errorf("cold load of %s: outcome %d", m.spec.name, out)
			}
			w.coldLoads = append(w.coldLoads, time.Since(start))
		}
	}
	return nil
}

// warm labels the relabel set (so timed re-labels must dedup) and runs
// a short open-loop phase of the workload mix.
func (w *servingRun) warm() error {
	if w.spec.feedback {
		for k := 0; k < relabelSet; k++ {
			p := opPlan{Kind: kindFeedback, Verdict: "benign", Relabel: k}
			op := w.feedbackOp(p, 0, k, true)
			if out := w.clients[0].do(w.sys.entryURL(), &op, 0); out != OK {
				return fmt.Errorf("labeling relabel row %d: outcome %d", k, out)
			}
		}
	}
	if sum := Summarize(w.phase(0, w.spec.low, 500*time.Millisecond), nil); sum.OK != sum.N {
		return fmt.Errorf("warm-up: %d of %d operations failed", sum.N-sum.OK, sum.N)
	}
	return nil
}

// feedbackRow returns the features of a feedback row: a traffic row
// with its first feature set to a value unique to uid, so every new
// label is a new fingerprint.
func (w *servingRun) feedbackRow(entry int, uid int) []float64 {
	row := append([]float64(nil), w.pool.traffic.Row(entry)...)
	row[0] = 0.25 + float64(uid)*1e-9
	return row
}

// feedbackOp builds a POST /feedback for plan p, the i-th operation of
// phase. Relabel-set rows take the negative uids, so they never collide
// with a phase's new rows.
func (w *servingRun) feedbackOp(p opPlan, phase, i int, wantAdded bool) httpOp {
	tenant := p.Tenant
	var row []float64
	if p.Relabel >= 0 {
		tenant = p.Relabel % len(w.spec.tenants)
		row = w.feedbackRow(p.Relabel, -1-p.Relabel)
	} else {
		row = w.feedbackRow(p.Entry, phase*1_000_000+i)
	}
	body, _ := json.Marshal(map[string]any{
		"features": row, "score": 0.5, "verdict": p.Verdict, "target_type": p.TType,
	})
	return httpOp{path: "/feedback", body: body, tenant: w.spec.tenants[tenant], check: checkFeedback(wantAdded)}
}

// buildOp turns plan p, the i-th operation of phase, into a request.
func (w *servingRun) buildOp(p opPlan, phase, i int) httpOp {
	if p.Kind == kindFeedback {
		return w.feedbackOp(p, phase, i, p.Relabel < 0)
	}
	mi := 0
	tenant := ""
	if p.Tenant >= 0 {
		tenant = w.spec.tenants[p.Tenant]
		mi = w.modelIx[w.spec.tenantModel[tenant]]
	}
	ex := w.pool.exp[mi][p.Entry]
	if p.JSON {
		return httpOp{path: "/score", body: w.pool.js[p.Entry], tenant: tenant, check: ex.checkJSON}
	}
	return httpOp{path: "/score", body: w.pool.bin[p.Entry], binary: true, tenant: tenant, check: ex.checkBinary}
}

// phase runs one open-loop phase of the workload mix, keeping its plans
// in w.plans. Request ids carry the phase in their high bits.
func (w *servingRun) phase(phase int, rate float64, dur time.Duration) []Sample {
	plans := planOps(w.spec, w.seed, phase, opCount(rate, dur), w.pool.traffic.Rows)
	w.plans[phase] = plans
	ops := make([]httpOp, len(plans))
	for i, p := range plans {
		ops[i] = w.buildOp(p, phase, i)
	}
	base := w.sys.entryURL()
	idBase := uint64(phase)<<32 + 1
	samples := RunOpenLoop(rate, dur, generatorWorkers, func(wk, i int) (uint8, Outcome) {
		id := idBase + uint64(i)
		if w.tr == nil {
			return plans[i].Kind, w.clients[wk].do(base, &ops[i], id)
		}
		start := w.tr.now()
		out := w.clients[wk].do(base, &ops[i], id)
		w.tr.Record(Span{Name: "loadgen.op", Req: id, Start: start, End: w.tr.now()})
		return plans[i].Kind, out
	})
	// Let background work the phase started (acquisition offers,
	// queued batches) finish before the next phase is timed.
	time.Sleep(100 * time.Millisecond)
	return samples
}

// saturate runs phase as a closed loop: each generator connection sends
// the workload mix's next operation as soon as its previous one is
// answered, for dur. Operations are planned and built as they are
// taken, since how many there will be depends on the system's speed.
func (w *servingRun) saturate(phase int, dur time.Duration) []Sample {
	pl := newPlanner(w.spec, w.seed, phase, w.pool.traffic.Rows)
	base := w.sys.entryURL()
	var mu sync.Mutex
	n := 0
	samples := RunClosedLoop(generatorWorkers, dur, func(c int) (uint8, Outcome) {
		mu.Lock()
		i, p := n, pl.plan()
		n++
		mu.Unlock()
		op := w.buildOp(p, phase, i)
		return p.Kind, w.clients[c].do(base, &op, uint64(phase)<<32+uint64(i)+1)
	})
	time.Sleep(100 * time.Millisecond)
	return samples
}
