package main

import (
	"sort"
	"time"

	"repro/internal/traceview"
)

// The traced sessions keep the program's spans in memory, decoded by
// traceview.ReadSpans, and reduce them here.

// roundOf returns a span's round tag, -1 when it has none.
func roundOf(s *traceview.Span) int {
	if s.Round == nil {
		return -1
	}
	return *s.Round
}

func dur(s *traceview.Span) float64 { return float64(s.DurNS) / 1e9 }

// perRound sums f(span) over the spans named name, by round tag; rounds
// without such a span count 0.
func perRound(spans []traceview.Span, rounds int, name string) []float64 {
	out := make([]float64, rounds)
	for i := range spans {
		s := &spans[i]
		if r := roundOf(s); s.Name == name && r >= 0 && r < rounds {
			out[r] += dur(s)
		}
	}
	return out
}

// interval is a half-open time range in unix ns.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	for i, iv := range clipped {
		if i == 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		} else if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	return total + curHi - curLo
}

// selfTime returns, per round, the duration of the spans named name minus
// the part of it their child spans cover.
func selfTime(spans []traceview.Span, rounds int, name string) []float64 {
	children := map[string][]interval{}
	for i := range spans {
		s := &spans[i]
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNS, s.EndNS()})
		}
	}
	out := make([]float64, rounds)
	for i := range spans {
		s := &spans[i]
		if r := roundOf(s); s.Name == name && r >= 0 && r < rounds {
			out[r] += float64(s.DurNS-covered(children[s.Span], s.StartNS, s.EndNS())) / 1e9
		}
	}
	return out
}

// workerIdle returns, per round, workers × the wall time of the simulator's
// pooled phases minus the summed client_round spans. A pooled phase is one
// MapClients pass: the training pass (client rounds with a local_steps child)
// or the δ pass (the others); its wall time runs from its first client round's
// start to its last one's end.
func workerIdle(spans []traceview.Span, rounds, workers int) []float64 {
	training := map[string]bool{}
	for i := range spans {
		if spans[i].Name == "local_steps" {
			training[spans[i].Parent] = true
		}
	}
	type pass struct{ lo, hi int64 }
	passes := make([][2]pass, rounds)
	busy := make([]float64, rounds)
	for i := range spans {
		s := &spans[i]
		r := roundOf(s)
		if s.Name != "client_round" || r < 0 || r >= rounds {
			continue
		}
		k := 1
		if training[s.Span] {
			k = 0
		}
		p := &passes[r][k]
		if p.hi == 0 || s.StartNS < p.lo {
			p.lo = s.StartNS
		}
		p.hi = max(p.hi, s.EndNS())
		busy[r] += dur(s)
	}
	out := make([]float64, rounds)
	for r := range out {
		wall := float64(passes[r][0].hi-passes[r][0].lo+passes[r][1].hi-passes[r][1].lo) / 1e9
		out[r] = float64(workers)*wall - busy[r]
	}
	return out
}

// unattributed returns, per round window (round start to next round start),
// the wall time no phase span covers: every span except the session and
// round spans counts as a phase.
func unattributed(spans []traceview.Span, starts []time.Time, end time.Time) []float64 {
	var ivs []interval
	for i := range spans {
		if s := &spans[i]; s.Name != "session" && s.Name != "round" {
			ivs = append(ivs, interval{s.StartNS, s.EndNS()})
		}
	}
	out := make([]float64, len(starts))
	for r, st := range starts {
		next := end
		if r+1 < len(starts) {
			next = starts[r+1]
		}
		lo, hi := st.UnixNano(), next.UnixNano()
		out[r] = float64(hi-lo-covered(ivs, lo, hi)) / 1e9
	}
	return out
}

// spanDurs returns the durations of the spans named name.
func spanDurs(spans []traceview.Span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, dur(&spans[i]))
		}
	}
	return out
}
