package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"targad/internal/wire"
)

// headerReq carries the request id the generator mints, so the router
// span and the replica span of one request can be joined (the router
// forwards every non-hop header).
const headerReq = "X-Bench-Req"

// Span is one timed interval recorded by the benchmark's own code: a
// handler middleware, a generator operation, or an isolated call into
// a layer's public function. Spans of one request share Req.
type Span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Attr is the wire format ("json" or "binary") of a handler span.
	Attr string `json:"attr,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run writes them out. Spans
// are only recorded while it is on, so one process can measure the
// same phase untraced and traced.
type Tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// Record appends s when the tracer is on.
func (t *Tracer) Record(s Span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Middleware wraps h in a span named name; the span's Req comes from
// the request id header and its Attr from the content type.
func (t *Tracer) Middleware(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		id, _ := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
		attr := "json"
		if strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType) {
			attr = "binary"
		}
		t.Record(Span{Name: name, Parent: parent, Req: id, Start: start, End: end, Attr: attr})
	})
}

// Time runs fn inside a span.
func (t *Tracer) Time(name, parent string, fn func()) time.Duration {
	start := t.now()
	fn()
	end := t.now()
	t.Record(Span{Name: name, Parent: parent, Start: start, End: end})
	return time.Duration(end - start)
}

// WriteFile writes every recorded span as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDurs returns the durations of the spans named name, sorted.
func spanDurs(spans []Span, name string) []time.Duration {
	var d []time.Duration
	for _, s := range spans {
		if s.Name == name {
			d = append(d, s.Dur())
		}
	}
	sortDur(d)
	return d
}

// selfTimes returns, per request id present in both, the parent
// span's duration minus the child span's: the time the parent layer
// spent outside the child (the router hop when parent is the router
// handler and child the replica handler).
func selfTimes(spans []Span, parent, child string) []time.Duration {
	kids := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Name == child && s.Req != 0 {
			kids[s.Req] += s.Dur()
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name == parent && s.Req != 0 {
			if c, ok := kids[s.Req]; ok {
				out = append(out, s.Dur()-c)
			}
		}
	}
	sortDur(out)
	return out
}
