package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// rehearsals is how many setup-only passes precede the timed sessions: they
// warm the process up and, with the sessions' own setups, give setup_s a
// median over at least nine samples.
const rehearsals = 8

// bench runs one workload for one seed.
type bench struct {
	w         spec
	seed      int64
	workdir   string
	snapshots bool          // sessions keep per-round models (end-to-end mode)
	eval      *data.Dataset // held-out set, generated once per run
	setups    []float64
	synths    []float64
	attempted int
	failures  []string
}

// run executes the workload: rehearsals, then untraced sessions for seconds
// (trace off), or an untraced and a traced half (trace on).
func run(w spec, seed int64, seconds float64, trace bool, workdir string) result {
	b := &bench{w: w, seed: seed, workdir: workdir}
	for i := 0; i < rehearsals; i++ {
		b.rehearse()
	}
	var res result
	if !trace {
		b.snapshots = true
		sessions := b.sessions(seconds, false)
		res = b.endToEnd(sessions)
	} else {
		plain := b.sessions(seconds/2, false)
		traced := b.sessions(seconds/2, true)
		res = b.perLayer(plain, traced)
	}
	res.failures = b.failures
	res.Attempted = max(b.attempted, 1)
	res.Failed = len(b.failures)
	res.Correct = len(b.failures) == 0
	return res
}

func (b *bench) rehearse() {
	runtime.GC()
	if !b.w.wire {
		setup, synth := rehearseSim(b.w, b.seed)
		b.setups = append(b.setups, setup.Seconds())
		b.synths = append(b.synths, synth.Seconds())
		return
	}
	s := wireSession(b.w, b.seed, 1, false, "")
	b.record(s)
}

// record books a session's setup sample, rounds and check failures.
func (b *bench) record(s *session) {
	b.attempted += s.rounds + s.retries
	b.failures = append(b.failures, s.failures...)
	if len(s.starts) > 0 {
		b.setups = append(b.setups, s.setup.Seconds())
		b.synths = append(b.synths, s.synth.Seconds())
	}
}

// sessions runs whole sessions until the next one would end past seconds;
// at least one runs.
func (b *bench) sessions(seconds float64, traced bool) []*session {
	var out []*session
	start := time.Now()
	for {
		runtime.GC()
		t := time.Now()
		dir := ""
		if b.snapshots {
			dir = b.workdir
		}
		var s *session
		if b.w.wire {
			s = wireSession(b.w, b.seed, b.w.rounds, traced, dir)
		} else {
			s = simSession(b.w, b.seed, traced, dir)
		}
		b.record(s)
		if len(s.starts) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: session: setup %.3f s, %d rounds in %.3f s\n",
				s.setup.Seconds(), s.rounds, s.timed().Seconds())
		}
		if len(s.starts) != s.rounds {
			if s.snapshotPath != "" {
				os.Remove(s.snapshotPath)
			}
			break // a failed session: its checks are already booked
		}
		out = append(out, s)
		last := time.Since(t).Seconds()
		if time.Since(start).Seconds()+last > seconds {
			break
		}
	}
	return out
}

// quality evaluates the initial and final models of the run's last session
// (all sessions of a run train the same models) on the seed's held-out set
// and checks that the final model beats the initial one and chance by the
// workload's margin. It removes the other sessions' model snapshots.
func (b *bench) quality(sessions []*session) (last *session, final float64) {
	last = sessions[len(sessions)-1]
	for _, s := range sessions {
		if s.snapshotPath != "" && s != last {
			os.Remove(s.snapshotPath)
		}
	}
	if b.eval == nil {
		b.eval = b.w.evalSet(b.seed)
	}
	initial := accuracy(b.w, last.initial, b.eval)
	final = accuracy(b.w, last.final, b.eval)
	if err := checkAccuracy(final, initial, 1/float64(b.eval.Classes), b.w.margin); err != nil {
		b.failures = append(b.failures, err.Error())
	}
	return last, final
}

// roundsToTarget returns the first k such that the model trained for k
// rounds reaches the workload's accuracy target on the held-out set,
// evaluating the session's per-round model snapshots in round order. It
// returns 0 when no round reaches the target.
func (b *bench) roundsToTarget(last *session, final float64) int {
	defer os.Remove(last.snapshotPath)
	f, err := os.Open(last.snapshotPath)
	if err != nil {
		b.failures = append(b.failures, fmt.Sprintf("open model snapshots: %v", err))
		return 0
	}
	defer f.Close()
	params := make([]float64, len(last.final))
	buf := make([]byte, 8*len(params))
	for k := 1; k < last.rounds; k++ {
		if _, err := f.ReadAt(buf, int64(k)*int64(len(buf))); err != nil {
			b.failures = append(b.failures, fmt.Sprintf("read model snapshot %d: %v", k, err))
			return 0
		}
		for i := range params {
			params[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		if accuracy(b.w, params, b.eval) >= b.w.target {
			return k
		}
	}
	if final >= b.w.target {
		return last.rounds
	}
	return 0
}

// endToEnd assembles the end-to-end metrics of untraced sessions.
func (b *bench) endToEnd(sessions []*session) result {
	res := result{Metrics: map[string]metric{}}
	if len(sessions) == 0 {
		return res
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	last, finalAcc := b.quality(sessions)
	k := b.roundsToTarget(last, finalAcc)
	if k == 0 {
		b.failures = append(b.failures, fmt.Sprintf("accuracy never reached the target %.3f", b.w.target))
		k = b.w.rounds
	}
	var durs, tta []float64
	var rounds int
	var timed float64
	var use usage
	var peak uint64
	for _, s := range sessions {
		durs = append(durs, s.roundDurations()...)
		tta = append(tta, s.afterRounds(k).Sub(s.starts[0]).Seconds())
		rounds += s.rounds
		timed += s.timed().Seconds()
		use = use.add(s.use)
		peak = max(peak, s.peakLive)
	}
	first := sessions[0]
	put("setup_s", "s", median(b.setups))
	put("round_s_p50", "s", median(durs))
	put("round_s_p90", "s", quantile(durs, 0.9))
	put("time_to_acc_s", "s", median(tta))
	put("rounds_to_acc", "rounds", float64(k))
	put("final_acc", "fraction", finalAcc)
	put("train_samples_per_s", "samples/s", float64(b.w.cohort()*b.w.e*b.w.b*rounds)/timed)
	put("up_bytes_per_round", "bytes", float64(first.up)/float64(first.rounds))
	put("down_bytes_per_round", "bytes", float64(first.down)/float64(first.rounds))
	put("alloc_mib_per_round", "MiB", float64(use.allocBytes)/mib/float64(rounds))
	put("peak_live_heap_mib", "MiB", float64(peak)/mib)
	return res
}

// perLayer assembles the per-layer metrics from the traced sessions, plus the
// tracing overhead against the untraced ones.
func (b *bench) perLayer(plain, traced []*session) result {
	res := result{Metrics: map[string]metric{}}
	if len(plain) == 0 || len(traced) == 0 {
		return res
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	w := b.w
	b.quality(traced)

	var rounds int
	var use usage
	var durs, plainDurs []float64
	var inRoundFlops int64
	var spans int
	pr := map[string][]float64{} // per-round series, pooled over sessions
	add := func(name string, xs []float64) { pr[name] = append(pr[name], xs...) }
	for _, s := range plain {
		plainDurs = append(plainDurs, s.roundDurations()...)
	}
	var frames, wireBytes float64
	var payload [compress.NumSchemes]int64
	var reconSum float64
	var reconN int64
	var joins []float64
	evictions, retries := 0, 0
	for _, s := range traced {
		n := s.rounds
		rounds += n
		use = use.add(s.use)
		durs = append(durs, s.roundDurations()...)
		inRoundFlops += s.inRoundFlops
		spans += len(s.spans)
		frames += float64(s.frames)
		wireBytes += float64(s.up + s.down)
		for i := range payload {
			payload[i] += s.payload[i]
		}
		reconSum += s.reconErrSum
		reconN += s.reconErrN
		evictions += s.evictions
		retries += s.retries
		joins = append(joins, spanDurs(s.spans, "join")...)
		add("unattributed", unattributed(s.spans, s.starts, s.end))
		add("compute_delta", perRound(s.spans, n, "compute_delta"))
		add("mmd_grad", perRound(s.spans, n, "mmd_grad"))
		add("local_steps", perRound(s.spans, n, "local_steps"))
		if !w.wire {
			fr, ev := make([]float64, n), make([]float64, n)
			for r := 0; r < n; r++ {
				fr[r] = s.exits[r].Sub(s.starts[r]).Seconds()
				next := s.end
				if r+1 < n {
					next = s.starts[r+1]
				}
				ev[r] = next.Sub(s.exits[r]).Seconds()
			}
			add("fl.round", fr)
			add("fl.evaluate", ev)
			add("fl.worker_idle", workerIdle(s.spans, n, s.workers))
			add("fl.aggregate", selfTime(s.spans, n, "round"))
		} else {
			add("broadcast", perRound(s.spans, n, "broadcast"))
			add("gather", perRound(s.spans, n, "gather"))
			add("delta_sync", perRound(s.spans, n, "delta_sync"))
			add("transport.aggregate", selfTime(s.spans, n, "round"))
			add("serialize", perRound(s.spans, n, "serialize"))
		}
	}
	perRoundCount := func(v int64) float64 { return float64(v) / float64(rounds) }
	med := func(name string) float64 { return median(pr[name]) }
	zeroUnless := func(ok bool, v float64) float64 {
		if ok {
			return v
		}
		return 0
	}
	sim, wire := !w.wire, w.wire
	plus := w.algo == "rfedavg+"
	q8 := w.update == compress.SchemeInt8

	put("data.synth_s", "s", median(b.synths))
	put("fl.round_s", "s", zeroUnless(sim, med("fl.round")))
	put("fl.evaluate_s", "s", zeroUnless(sim, med("fl.evaluate")))
	put("fl.local_steps_s", "s", zeroUnless(sim, med("local_steps")))
	put("fl.worker_idle_s", "s", zeroUnless(sim, med("fl.worker_idle")))
	put("fl.aggregate_s", "s", zeroUnless(sim, med("fl.aggregate")))
	put("core.compute_delta_s", "s", med("compute_delta"))
	put("core.mmd_grad_s", "s", med("mmd_grad"))
	put("core.compute_delta_call_s", "s", zeroUnless(plus, b.computeDeltaCall(traced[len(traced)-1])))

	flops := float64(use.gemmFlops)
	if sim {
		flops = float64(inRoundFlops)
	}
	busy := sum(pr["local_steps"]) + sum(pr["compute_delta"])
	put("tensor.gemm_gflop", "GFLOP", float64(use.gemmFlops)/1e9/float64(rounds))
	put("tensor.gemm_calls", "count", perRoundCount(use.gemmCalls))
	put("tensor.gemm_gflops", "GFLOP/s", flops/1e9/busy)
	put("nn.forward_passes", "count", perRoundCount(use.forward))
	put("nn.backward_passes", "count", perRoundCount(use.backward))

	put("transport.join_s", "s", zeroUnless(wire, median(joins)))
	put("transport.broadcast_s", "s", zeroUnless(wire, med("broadcast")))
	put("transport.gather_s", "s", zeroUnless(wire, med("gather")))
	put("transport.delta_sync_s", "s", zeroUnless(wire, med("delta_sync")))
	put("transport.aggregate_s", "s", zeroUnless(wire, med("transport.aggregate")))
	put("transport.frames", "count", frames/float64(rounds))
	put("transport.wire_bytes", "bytes", zeroUnless(wire, wireBytes/float64(rounds)))
	put("transport.evictions", "count", float64(evictions))
	put("transport.retries", "count", float64(retries))
	put("transport.client_local_steps_s", "s", zeroUnless(wire, med("local_steps")))
	put("transport.client_compute_delta_s", "s", zeroUnless(wire, med("compute_delta")))
	put("transport.client_serialize_s", "s", zeroUnless(wire, med("serialize")))

	put("compress.payload_bytes.dense", "bytes", float64(payload[compress.SchemeDense])/float64(rounds))
	put("compress.payload_bytes.q8", "bytes", float64(payload[compress.SchemeInt8])/float64(rounds))
	recon := 0.0
	if reconN > 0 {
		recon = reconSum / float64(reconN)
	}
	put("compress.recon_err", "fraction", recon)
	enc, dec := 0.0, 0.0
	if q8 {
		last := traced[len(traced)-1]
		enc, dec = codecCalls(last.initial, last.final)
	}
	put("compress.encode_call_s", "s", enc)
	put("compress.decode_call_s", "s", dec)

	put("go.gc_cycles", "count", perRoundCount(int64(use.gcCycles)))
	put("go.gc_pause_s", "s", float64(use.gcPauseNs)/1e9/float64(rounds))
	put("telemetry.spans", "count", float64(spans)/float64(rounds))
	put("telemetry.trace_overhead_s", "s", median(durs)-median(plainDurs))
	put("telemetry.unattributed_s", "s", med("unattributed"))
	return res
}

// callReps is how many times a traced run times each single public call.
const callReps = 9

// computeDeltaCall times core.ComputeDeltaInto on client 0's shard under the
// session's final model.
func (b *bench) computeDeltaCall(s *session) float64 {
	in := b.w.makeInputs(b.seed)
	net := b.w.builder()(modelSeed)
	net.SetFlat(s.final)
	arena := nn.NewArena()
	dst := make([]float64, net.FeatureDim)
	core.ComputeDeltaInto(dst, arena, net, in.shards[0], 0) // warm the arena
	ts := make([]float64, callReps)
	for i := range ts {
		t := time.Now()
		core.ComputeDeltaInto(dst, arena, net, in.shards[0], 0)
		ts[i] = time.Since(t).Seconds()
	}
	return median(ts)
}

// codecCalls times compress.EncodeInto and DecodeInto under q8 on a
// |w|-long update: the session's final model minus its initial one.
func codecCalls(initial, final []float64) (enc, dec float64) {
	upd := make([]float64, len(final))
	tensor.AxpyFloats(upd, 1, final)
	tensor.AxpyFloats(upd, -1, initial)
	buf := make([]byte, compress.EncodedBytes(compress.SchemeInt8, len(upd)))
	recon := make([]float64, len(upd))
	e, d := make([]float64, callReps), make([]float64, callReps)
	for i := 0; i < callReps; i++ {
		rng := compress.RNG(1, i, 0)
		t := time.Now()
		compress.EncodeInto(compress.SchemeInt8, buf, upd, rng)
		e[i] = time.Since(t).Seconds()
		t = time.Now()
		if err := compress.DecodeInto(recon, compress.SchemeInt8, buf); err != nil {
			panic(fmt.Sprintf("perfbench: q8 self-decode: %v", err))
		}
		d[i] = time.Since(t).Seconds()
	}
	return median(e), median(d)
}
