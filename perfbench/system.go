package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/fleet"
	"targad/internal/registry"
	"targad/internal/serve"
)

// servedScale and servedLabeled size the synthetic UNSW-NB15 data the
// served models are trained on (196 features, as the real dataset).
const (
	servedScale   = 0.01
	servedLabeled = 20
)

// serveFitConfig trains the served models. Serving cost depends on the
// classifier's shape (fixed by the 196 features), not on how long it
// trained, so the served models use few epochs and a fixed k to keep
// set-up short; the fit workload measures DefaultConfig training.
func serveFitConfig() core.Config {
	c := core.DefaultConfig()
	c.K = 3
	c.AEEpochs = 3
	c.ClfEpochs = 5
	c.AELR = 1e-3
	c.ClfLR = 1e-3
	return c
}

// serveDefaults is targad-serve's default configuration: max-batch 64,
// max-wait 2ms, queue 256, strategy ED, monitoring on.
func serveDefaults() serve.Config {
	return serve.Config{
		MaxBatch:      64,
		MaxWait:       2 * time.Millisecond,
		QueueDepth:    256,
		RetryAfter:    time.Second,
		MaxBodyBytes:  32 << 20,
		Strategy:      core.ED,
		ShadowSample:  0.25,
		AcquireSample: 0.25,
	}
}

// modelSpec is one manifested model.
type modelSpec struct {
	name string
	seed int64
	f32  bool
}

// servedModel is a trained, saved model plus its offline reference: the
// model loaded back from the file the registry serves.
type servedModel struct {
	spec   modelSpec
	path   string
	ref    *core.Model
	bundle *dataset.Bundle
}

func trainServed(dir string, spec modelSpec) (*servedModel, error) {
	b, err := synth.Generate(synth.UNSWNB15(), synth.Options{Scale: servedScale, Seed: spec.seed, LabeledPerType: servedLabeled})
	if err != nil {
		return nil, err
	}
	m := core.New(serveFitConfig(), spec.seed)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		return nil, fmt.Errorf("fit %s: %w", spec.name, err)
	}
	path := filepath.Join(dir, spec.name+".bin")
	if err := saveModel(m, path); err != nil {
		return nil, err
	}
	ref, err := loadModel(path)
	if err != nil {
		return nil, err
	}
	return &servedModel{spec: spec, path: path, ref: ref, bundle: b}, nil
}

func saveModel(m *core.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// writeManifest writes the registry manifest for models; the first is
// the default.
func writeManifest(dir string, models []*servedModel, tenants map[string]string) error {
	type spec struct {
		Path      string `json:"path"`
		Precision string `json:"precision,omitempty"`
	}
	man := struct {
		Default string            `json:"default"`
		Models  map[string]spec   `json:"models"`
		Tenants map[string]string `json:"tenants,omitempty"`
	}{Default: models[0].spec.name, Models: map[string]spec{}, Tenants: tenants}
	for _, m := range models {
		s := spec{Path: filepath.Base(m.path)}
		if m.spec.f32 {
			s.Precision = "f32"
		}
		man.Models[m.spec.name] = s
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, registry.ManifestFile), raw, 0o644)
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  serve.NewHTTPServer("", h, serve.DefaultHTTPTimeouts()),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// replica is one registry host behind its own listener.
type replica struct {
	reg *registry.Registry
	l   *listener
}

// system is the whole serving topology of one workload: registry
// replicas and, when routed, the fleet router in front of them.
type system struct {
	replicas []*replica
	router   *fleet.Router
	front    *listener // router listener; nil when not routed
}

// entryURL is where the generator sends load.
func (s *system) entryURL() string {
	if s.front != nil {
		return s.front.url
	}
	return s.replicas[0].l.url
}

func (s *system) close() {
	if s.front != nil {
		s.front.close()
		s.router.Close()
	}
	for _, r := range s.replicas {
		r.l.close()
		r.reg.Close()
	}
}

// startSystem starts n registry replicas over modelDir and, if routed,
// a router in front of them. With a tracer, each replica's handler and
// the router's handler are wrapped in span middleware. feedbackRoot
// arms per-model verdict stores (one subdirectory per replica) and an
// acquisition queue of acquireBudget rows.
func startSystem(modelDir string, n int, routed bool, feedbackRoot string, acquireBudget int, tr *Tracer) (*system, error) {
	s := &system{}
	childParent := "loadgen.op"
	if routed {
		childParent = "fleet.router"
	}
	for i := 0; i < n; i++ {
		cfg := registry.Config{Dir: modelDir, Base: serveDefaults()}
		cfg.Base.InstanceID = fmt.Sprintf("replica-%d", i)
		if feedbackRoot != "" {
			cfg.FeedbackRoot = filepath.Join(feedbackRoot, strconv.Itoa(i))
			cfg.AcquireBudget = acquireBudget
		}
		reg, err := registry.New(cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		var h http.Handler = reg.Handler()
		if tr != nil {
			h = tr.Middleware("serve.handler", childParent, h)
		}
		l, err := listen(h)
		if err != nil {
			reg.Close()
			s.close()
			return nil, err
		}
		s.replicas = append(s.replicas, &replica{reg: reg, l: l})
	}
	if !routed {
		return s, nil
	}
	urls := make([]string, n)
	for i, r := range s.replicas {
		urls[i] = r.l.url
	}
	rt, err := fleet.New(fleet.Config{Backends: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	s.router = rt
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.Middleware("fleet.router", "loadgen.op", h)
	}
	if s.front, err = listen(h); err != nil {
		rt.Close()
		s.router = nil
		s.close()
		return nil, err
	}
	// Drive the health state machines to "up" now instead of waiting
	// for the background prober's ticks.
	for i := 0; i < 5 && !allUp(rt); i++ {
		rt.ProbeAll()
	}
	if !allUp(rt) {
		s.close()
		return nil, errors.New("router: backends did not come up")
	}
	return s, nil
}

func allUp(rt *fleet.Router) bool {
	for _, b := range rt.Status() {
		if b.State != "up" {
			return false
		}
	}
	return true
}

// scrape fetches a Prometheus text endpoint and sums every sample of
// each metric name over its label sets.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// counters is a snapshot of the system's own telemetry, diffed across
// phases.
type counters struct {
	rows, batches, shed         float64
	routerReqs, retries, hedges float64
	loads, evictions, sfWaits   int64
}

func (s *system) counters() (counters, error) {
	var c counters
	for _, r := range s.replicas {
		m, err := scrape(r.l.url)
		if err != nil {
			return c, err
		}
		c.rows += m["targad_serve_rows_total"]
		c.batches += m["targad_serve_batches_total"]
		c.shed += m["targad_serve_shed_total"]
		rc := r.reg.Counters()
		c.loads += rc.Loads
		c.evictions += rc.Evictions
		c.sfWaits += rc.SingleflightWaits
	}
	if s.front != nil {
		m, err := scrape(s.front.url)
		if err != nil {
			return c, err
		}
		c.routerReqs = m["targad_router_requests_total"]
		c.retries = m["targad_router_retries_total"]
		c.hedges = m["targad_router_hedges_total"]
	}
	return c, nil
}

func (c counters) sub(o counters) counters {
	return counters{
		rows: c.rows - o.rows, batches: c.batches - o.batches, shed: c.shed - o.shed,
		routerReqs: c.routerReqs - o.routerReqs, retries: c.retries - o.retries, hedges: c.hedges - o.hedges,
		loads: c.loads - o.loads, evictions: c.evictions - o.evictions, sfWaits: c.sfWaits - o.sfWaits,
	}
}

// client is one generator connection: an HTTP client limited to a
// single connection plus a reusable response buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

// clientTimeout bounds one operation; an operation that hits it counts
// as timed out.
const clientTimeout = 5 * time.Second

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpOp is one prepared request and the check its answer must pass.
type httpOp struct {
	path   string
	body   []byte
	binary bool
	tenant string
	model  string
	check  func(body []byte) bool
}

// do sends op with request id id and classifies the answer.
func (c *client) do(base string, op *httpOp, id uint64) Outcome {
	req, err := http.NewRequest(http.MethodPost, base+op.path, bytes.NewReader(op.body))
	if err != nil {
		return Failed
	}
	if op.binary {
		req.Header.Set("Content-Type", "application/x-targad-frame")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if op.tenant != "" {
		req.Header.Set(registry.HeaderTenant, op.tenant)
	}
	if op.model != "" {
		req.Header.Set(registry.HeaderModel, op.model)
	}
	req.Header.Set(headerReq, strconv.FormatUint(id, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return TimedOut
		}
		return Failed
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return Failed
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if op.check(c.buf.Bytes()) {
			return OK
		}
		return Mismatch
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return Refused
	default:
		return Failed
	}
}
