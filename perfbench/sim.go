package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/traceview"
)

// timedAlg wraps the workload's algorithm for fl.Run and times each Round
// call: its entry marks the round's start (so the per-round evaluation fl.Run
// runs between Round calls counts toward the round), and the first entry
// opens the timed phase.
type timedAlg struct {
	fl.Algorithm
	s     *session
	base  usage
	live  []metrics.Sample
	flops int64
	snap  *os.File // when set, receives the model after each round
	buf   []byte
}

func (t *timedAlg) Round(round int, sampled []int) fl.RoundResult {
	now := time.Now()
	if len(t.s.starts) == 0 {
		t.base = readUsage()
	}
	t.s.starts = append(t.s.starts, now)
	if l := liveHeap(t.live); l > t.s.peakLive {
		t.s.peakLive = l
	}
	f0 := gemmFlops.Value()
	res := t.Algorithm.Round(round, sampled)
	t.flops += gemmFlops.Value() - f0
	t.s.exits = append(t.s.exits, time.Now())
	if t.snap != nil {
		g := t.Algorithm.GlobalParams()
		for i, v := range g {
			binary.LittleEndian.PutUint64(t.buf[8*i:], math.Float64bits(v))
		}
		if _, err := t.snap.WriteAt(t.buf, int64(round+1)*int64(len(t.buf))); err != nil {
			panic(fmt.Sprintf("perfbench: write model snapshot: %v", err))
		}
	}
	return res
}

func newAlgorithm(w spec) fl.Algorithm {
	if w.algo == "rfedavg+" {
		return core.NewRFedAvgPlus(w.lambda)
	}
	return fl.NewFedAvg()
}

// simSetup builds the federation for one session; it is the setup_s path of
// the simulator (synthesis, partition, federation and model build).
func simSetup(w spec, seed int64, tracer *telemetry.Tracer) (*fl.Federation, inputs) {
	in := w.makeInputs(seed)
	cfg := fl.Config{
		Builder:     w.builder(),
		ModelSeed:   modelSeed,
		Seed:        modelSeed,
		LocalSteps:  w.e,
		BatchSize:   w.b,
		SampleRatio: w.sampleRatio,
		LR:          opt.ConstLR(w.lr),
		EvalEvery:   1,
		Tracer:      tracer,
	}
	return fl.NewFederation(cfg, in.shards, in.test), in
}

// rehearseSim sets the simulator up without running a round and returns the
// setup time.
func rehearseSim(w spec, seed int64) (setup, synth time.Duration) {
	t0 := time.Now()
	f, in := simSetup(w, seed, nil)
	newAlgorithm(w).Setup(f)
	return time.Since(t0), in.synth
}

// simSession runs one fl.Run session of the workload and checks its outputs.
// snapDir, when non-empty, receives the per-round models.
func simSession(w spec, seed int64, traced bool, snapDir string) *session {
	var buf bytes.Buffer
	var tracer *telemetry.Tracer
	if traced {
		tracer = telemetry.NewTracer(&buf)
	}
	s := &session{rounds: w.rounds, starts: make([]time.Time, 0, w.rounds), exits: make([]time.Time, 0, w.rounds)}
	t0 := time.Now()
	f, in := simSetup(w, seed, tracer)
	s.synth = in.synth
	alg := newAlgorithm(w)
	ta := &timedAlg{Algorithm: alg, s: s, live: newLiveSample()}
	if snapDir != "" {
		snap, err := os.CreateTemp(snapDir, "models-*.bin")
		if err != nil {
			s.failures = append(s.failures, fmt.Sprintf("create snapshot file: %v", err))
			return s
		}
		defer snap.Close()
		ta.snap, ta.buf, s.snapshotPath = snap, make([]byte, 8*f.NumParams()), snap.Name()
	}
	hist := fl.Run(f, ta, w.rounds)
	s.end = time.Now()
	s.use = readUsage().sub(ta.base)
	s.setup = s.starts[0].Sub(t0)
	s.inRoundFlops = ta.flops
	s.workers = f.Cfg.Workers
	if traced {
		var err error
		if s.spans, err = traceview.ReadSpans(&buf); err != nil {
			s.failures = append(s.failures, fmt.Sprintf("decode spans: %v", err))
		}
	}

	s.initial = f.InitialParams()
	s.final = append([]float64(nil), alg.GlobalParams()...)
	for _, r := range hist.Rounds {
		s.losses = append(s.losses, r.TrainLoss)
		s.up += r.UpBytes
		s.down += r.DownBytes
	}

	// Output checks against computations made apart from the program.
	wantUp, wantDown := simBytesPerRound(w, f.NumParams(), f.FeatureDim())
	for _, r := range hist.Rounds {
		if err := checkBytes(fmt.Sprintf("sim round %d", r.Round), r.UpBytes, r.DownBytes, wantUp, wantDown); err != nil {
			s.failures = append(s.failures, err.Error())
			break
		}
	}
	if a, ok := alg.(*core.RFedAvgPlus); ok {
		rows := make([][]float64, len(f.Clients))
		for k := range rows {
			rows[k] = a.Table().Get(k)
		}
		if err := checkDeltaRows(rows, meanFeatures(w, s.final, in.shards), deltaTol); err != nil {
			s.failures = append(s.failures, err.Error())
		}
	}
	if err := checkFinite(s.losses); err != nil {
		s.failures = append(s.failures, err.Error())
	}
	return s
}
