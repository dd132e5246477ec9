package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/compress"
	"repro/internal/telemetry"
	"repro/internal/traceview"
)

// session is what one run of the workload, from data synthesis to the end
// of its last round, measured.
type session struct {
	rounds int
	setup  time.Duration // workload start → first round
	synth  time.Duration // data synthesis inside setup
	starts []time.Time   // start of each round
	exits  []time.Time   // sim: return of each Round call
	end    time.Time     // end of the last round

	use      usage  // over the timed phase (first round start → end)
	peakLive uint64 // largest live heap read at a round start
	// inRoundFlops counts GEMM flops issued inside Round calls (sim); on the
	// wire all timed flops are client work.
	inRoundFlops int64

	up, down     int64 // round traffic: accounted (sim) or at the pipe ends (wire)
	frames       int64 // round frames at the pipe ends (wire)
	payload      [compress.NumSchemes]int64
	evictions    int
	retries      int
	workers      int
	initial      []float64
	final        []float64
	losses       []float64
	reconErrSum  float64 // q8 reconstruction error observed in the session
	reconErrN    int64
	spans        []traceview.Span
	failures     []string
	snapshotPath string // per-round models: offset k holds the model trained for k rounds
}

// roundDurations returns the wall time of each round: successive round
// starts, and the last round up to the session end.
func (s *session) roundDurations() []float64 {
	d := make([]float64, len(s.starts))
	for r := range s.starts {
		next := s.end
		if r+1 < len(s.starts) {
			next = s.starts[r+1]
		}
		d[r] = next.Sub(s.starts[r]).Seconds()
	}
	return d
}

// timed returns the wall time of the timed phase.
func (s *session) timed() time.Duration { return s.end.Sub(s.starts[0]) }

// afterRounds returns when the model trained for k rounds existed: the start
// of round k, or the session end for the last round.
func (s *session) afterRounds(k int) time.Time {
	if k < len(s.starts) {
		return s.starts[k]
	}
	return s.end
}

// usage is a snapshot of the process counters a timed phase is charged with.
type usage struct {
	allocBytes uint64
	gcCycles   uint64
	gcPauseNs  uint64
	gemmFlops  int64
	gemmCalls  int64
	forward    int64
	backward   int64
}

// The program's own process-wide counters (registration is idempotent, so
// these return the series the program increments).
var (
	gemmFlops = telemetry.Default().Counter("tensor_gemm_flops_total", "")
	gemmCalls = telemetry.Default().Counter("tensor_gemm_calls_total", "")
	fwdPasses = telemetry.Default().Counter("nn_forward_passes_total", "")
	bwdPasses = telemetry.Default().Counter("nn_backward_passes_total", "")
)

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   uint64(ms.NumGC),
		gcPauseNs:  ms.PauseTotalNs,
		gemmFlops:  gemmFlops.Value(),
		gemmCalls:  gemmCalls.Value(),
		forward:    fwdPasses.Value(),
		backward:   bwdPasses.Value(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{
		allocBytes: u.allocBytes - v.allocBytes,
		gcCycles:   u.gcCycles - v.gcCycles,
		gcPauseNs:  u.gcPauseNs - v.gcPauseNs,
		gemmFlops:  u.gemmFlops - v.gemmFlops,
		gemmCalls:  u.gemmCalls - v.gemmCalls,
		forward:    u.forward - v.forward,
		backward:   u.backward - v.backward,
	}
}

func (u usage) add(v usage) usage {
	return usage{
		allocBytes: u.allocBytes + v.allocBytes,
		gcCycles:   u.gcCycles + v.gcCycles,
		gcPauseNs:  u.gcPauseNs + v.gcPauseNs,
		gemmFlops:  u.gemmFlops + v.gemmFlops,
		gemmCalls:  u.gemmCalls + v.gemmCalls,
		forward:    u.forward + v.forward,
		backward:   u.backward + v.backward,
	}
}

// liveHeap reads /gc/heap/live:bytes into a caller-owned sample, so the
// per-round read allocates nothing.
func liveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func newLiveSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
}

// reconErr reads the program's process-wide q8 reconstruction-error
// histogram (sum and count), so a session can take the difference.
func reconErr() (sum float64, n int64) {
	h := telemetry.Default().Histogram(`rfl_compression_recon_error{scheme="q8"}`, "", compress.RelErrBuckets)
	return h.Sum(), h.Count()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

const mib = 1 << 20
