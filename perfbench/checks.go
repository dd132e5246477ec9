package main

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/tensor"
)

// The checks below recompute what the program's outputs must be from the
// workload's configuration and from plain forward passes, without calling
// the code under test. A failed check is a failed operation.

// deltaTol bounds |δ_program − δ_recomputed| per coordinate, relative to
// max(1, |δ|): the program sums batches of 256 rows, the check one batch of
// the whole shard, so only the order of float64 additions differs.
const deltaTol = 1e-9

// payloadBytes is Table III's accounting of one n-float message: 8 bytes per
// value plus 24 bytes of framing.
func payloadBytes(n int) int64 { return int64(8*n) + 24 }

// simBytesPerRound is Table III's closed form of the bytes one simulated
// round accounts, with p clients sampled, model size |w| and feature width d.
// rFedAvg+: up p·(|w|)+p·(d), down p·(|w|+d)+p·(|w|); FedAvg: p·(|w|) each way.
func simBytesPerRound(w spec, params, d int) (up, down int64) {
	p := int64(w.cohort())
	if w.algo == "rfedavg+" {
		return p*payloadBytes(params) + p*payloadBytes(d),
			p*(payloadBytes(params)+payloadBytes(d)) + p*payloadBytes(params)
	}
	return p * payloadBytes(params), p * payloadBytes(params)
}

func checkBytes(what string, up, down, wantUp, wantDown int64) error {
	if up != wantUp || down != wantDown {
		return fmt.Errorf("%s: %d up / %d down bytes, Table III gives %d / %d", what, up, down, wantUp, wantDown)
	}
	return nil
}

// frameTotals is the traffic of one wire session at the server's pipe ends.
type frameTotals struct {
	upRaw, downRaw int64
	frames         [2][numMsg]int64 // [up/down][type]
}

// vecBytes is the payload size of an n-float vector under scheme s: 8n
// dense, 4+n for q8.
func vecBytes(s compress.Scheme, n int) int64 {
	if s == compress.SchemeInt8 {
		return int64(4 + n)
	}
	return int64(8 * n)
}

// wireFrameTotals derives a session's frames and bytes from the frame
// layout: every frame is 4+72 bytes plus its payload. Per round, sampled
// clients get an assign (model, plus the δ target under rFedAvg+) and
// answer with an update; the others get a skip. rFedAvg+ adds a δ request
// (model) and a δ answer per sampled client and a skip for the others. The
// session adds one join per client and one done (model) per client.
func wireFrameTotals(w spec, rounds, params, d int) frameTotals {
	const fr = lenPrefix + frameHeader
	n, p := int64(w.clients), int64(w.cohort())
	r := int64(rounds)
	var t frameTotals
	up, down := &t.frames[0], &t.frames[1]
	up[msgJoin] = n
	down[msgAssign] = r * p
	up[msgUpdate] = r * p
	down[msgSkip] = r * (n - p)
	down[msgDone] = n
	t.upRaw = n*fr + r*p*(fr+vecBytes(w.update, params))
	assign := fr + vecBytes(compress.SchemeDense, params)
	if w.algo == "rfedavg+" {
		assign += vecBytes(compress.SchemeDense, d)
		down[msgDeltaReq] = r * p
		up[msgDelta] = r * p
		down[msgSkip] *= 2
		t.upRaw += r * p * (fr + vecBytes(compress.SchemeDense, d))
		t.downRaw += r*p*(fr+vecBytes(compress.SchemeDense, params)) + r*(n-p)*fr
	}
	t.downRaw += r*p*assign + r*(n-p)*fr + n*(fr+vecBytes(compress.SchemeDense, params))
	return t
}

func checkWireFrames(got, want frameTotals) error {
	if got != want {
		return fmt.Errorf("pipe ends carried %d up / %d down bytes in frames %v, the frame layout gives %d / %d in %v",
			got.upRaw, got.downRaw, got.frames, want.upRaw, want.downRaw, want.frames)
	}
	return nil
}

// meanFeatures recomputes every client's δ: the mean feature-layer
// activation of its shard under params, from one plain forward pass.
func meanFeatures(w spec, params []float64, shards []*data.Dataset) [][]float64 {
	net := w.builder()(modelSeed)
	net.SetFlat(params)
	out := make([][]float64, len(shards))
	for k, ds := range shards {
		feat, _ := net.Forward(ds.X, false)
		row := make([]float64, feat.Dim(1))
		for i := 0; i < feat.Dim(0); i++ {
			for j, v := range feat.Row(i) {
				row[j] += v
			}
		}
		for j := range row {
			row[j] /= float64(feat.Dim(0))
		}
		out[k] = row
	}
	return out
}

func checkDeltaRows(got, want [][]float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("δ table has %d rows, want %d", len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			return fmt.Errorf("δ row %d has %d coordinates, want %d", k, len(got[k]), len(want[k]))
		}
		for j, v := range want[k] {
			if d := math.Abs(got[k][j] - v); !(d <= tol*math.Max(1, math.Abs(v))) {
				return fmt.Errorf("δ row %d coordinate %d is %v, the forward pass gives %v", k, j, got[k][j], v)
			}
		}
	}
	return nil
}

// checkFinalModels requires every client's returned final model to equal
// the server's bitwise.
func checkFinalModels(server []float64, clients [][]float64) error {
	for k, c := range clients {
		if len(c) != len(server) {
			return fmt.Errorf("client %d returned %d params, server %d", k, len(c), len(server))
		}
		for i := range c {
			if math.Float64bits(c[i]) != math.Float64bits(server[i]) {
				return fmt.Errorf("client %d final param %d is %v, server's is %v", k, i, c[i], server[i])
			}
		}
	}
	return nil
}

func checkFinite(losses []float64) error {
	for r, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("round %d loss is %v", r, l)
		}
	}
	return nil
}

// checkAccuracy requires the final model to beat the initial model and
// chance, each by margin.
func checkAccuracy(final, initial, chance, margin float64) error {
	if !(final >= initial+margin && final >= chance+margin) {
		return fmt.Errorf("final accuracy %.4f does not beat the initial %.4f and chance %.4f by %.2f",
			final, initial, chance, margin)
	}
	return nil
}

// accuracy evaluates params on ds with a plain forward pass in batches.
func accuracy(w spec, params []float64, ds *data.Dataset) float64 {
	net := w.builder()(modelSeed)
	net.SetFlat(params)
	const batch = 500
	correct := 0
	for lo := 0; lo < ds.Len(); lo += batch {
		hi := min(lo+batch, ds.Len())
		x := tensor.New(hi-lo, ds.Features())
		copy(x.Data, ds.X.Data[lo*ds.Features():hi*ds.Features()])
		logits := net.Predict(x)
		for i := 0; i < logits.Dim(0); i++ {
			if tensor.MaxIndex(logits.Row(i)) == ds.Y[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}
