package main

import (
	"context"
	"encoding/json"
	"math"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/wire"
)

// f32Tol is the float32 serving contract: served scores within 5e-6 of
// offline float64 scoring, and no decision flips.
const f32Tol = 5e-6

// expected is the offline answer for one request's rows.
type expected struct {
	scores []float64
	kinds  []dataset.Kind
	// tol is 0 for a float64 model (bitwise equality) and f32Tol for a
	// float32-served one.
	tol float64
}

// offline computes the reference answer with the offline calls
// Model.Score and Model.Identify on the model loaded from the served
// file.
func offline(m *core.Model, x *mat.Matrix, tol float64) (*expected, error) {
	s, err := m.Score(context.Background(), x)
	if err != nil {
		return nil, err
	}
	k, err := m.Identify(x, core.ED)
	if err != nil {
		return nil, err
	}
	return &expected{scores: s, kinds: k, tol: tol}, nil
}

// match compares served scores and decisions with the reference.
func (e *expected) match(scores []float64, n int, kind func(i int) dataset.Kind) bool {
	if len(scores) != len(e.scores) || n != len(e.kinds) {
		return false
	}
	for i, s := range scores {
		if e.tol == 0 {
			if math.Float64bits(s) != math.Float64bits(e.scores[i]) {
				return false
			}
		} else if !(math.Abs(s-e.scores[i]) <= e.tol) {
			return false
		}
		if kind(i) != e.kinds[i] {
			return false
		}
	}
	return true
}

func (e *expected) checkBinary(body []byte) bool {
	r, err := wire.DecodeResponse(body)
	if err != nil {
		return false
	}
	return e.match(r.Scores, len(r.Decisions), func(i int) dataset.Kind { return r.Decisions[i] })
}

func (e *expected) checkJSON(body []byte) bool {
	var r struct {
		Scores    []float64 `json:"scores"`
		Decisions []string  `json:"decisions"`
	}
	if json.Unmarshal(body, &r) != nil {
		return false
	}
	return e.match(r.Scores, len(r.Decisions), func(i int) dataset.Kind { return parseKind(r.Decisions[i]) })
}

func parseKind(s string) dataset.Kind {
	for _, k := range []dataset.Kind{dataset.KindNormal, dataset.KindTarget, dataset.KindNonTarget} {
		if k.String() == s {
			return k
		}
	}
	return -1
}

// checkFeedback accepts a POST /feedback answer that recorded the
// verdict and reported the expected dedup outcome.
func checkFeedback(wantAdded bool) func([]byte) bool {
	return func(body []byte) bool {
		var r struct {
			Recorded bool `json:"recorded"`
			Added    bool `json:"added"`
		}
		return json.Unmarshal(body, &r) == nil && r.Recorded && r.Added == wantAdded
	}
}
