package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/traceview"
	"repro/internal/transport"
)

// Frame layout as documented by the transport codec: a 4-byte little-endian
// body length, then a 72-byte header whose first byte is the message type,
// followed by the 4-byte round and, at header offset 46, the 4-byte dense
// params count. The meter parses only these fields.
const (
	lenPrefix   = 4
	frameHeader = 72
	hdrRound    = 1
	hdrNParams  = 46
)

// Message types, in protocol order (transport.MsgJoin … MsgSkip).
const (
	msgJoin = iota + 1
	msgAssign
	msgUpdate
	msgDeltaReq
	msgDelta
	msgDone
	msgSkip
	numMsg
)

// pipeMeter observes every byte the server writes to (downlink) and reads
// from (uplink) its ends of the net.Pipe pairs. It counts bytes and frames
// by type, timestamps the first assign frame of each round and the first
// done frame, reads the live heap at each round start, and copies each
// round's broadcast model into the snapshot file.
type pipeMeter struct {
	upRaw, downRaw atomic.Int64

	mu      sync.Mutex
	frames  [2][numMsg]int64 // [up/down][type]
	bytes   [2][numMsg]int64
	last    int // last round whose first assign frame was seen
	starts  []time.Time
	done    time.Time
	base    usage // at the first assign frame
	end     usage // at the first done frame
	live    []metrics.Sample
	peak    uint64
	snap    *os.File
	modelSz int64 // bytes of one dense model
}

func newPipeMeter(rounds int, snap *os.File, params int) *pipeMeter {
	return &pipeMeter{last: -1, starts: make([]time.Time, 0, rounds), live: newLiveSample(),
		snap: snap, modelSz: int64(8 * params)}
}

// frame records one parsed frame header. It returns the snapshot offset the
// frame's dense params should be copied to, or -1.
func (m *pipeMeter) frame(down bool, typ byte, round int, size int64, now time.Time) int64 {
	dir := 0
	if down {
		dir = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(typ) < numMsg {
		m.frames[dir][typ]++
		m.bytes[dir][typ] += size
	}
	switch {
	case down && typ == msgAssign && round > m.last:
		m.last = round
		if len(m.starts) == 0 {
			m.base = readUsage()
		}
		m.starts = append(m.starts, now)
		if l := liveHeap(m.live); l > m.peak {
			m.peak = l
		}
		if m.snap != nil {
			return int64(round) * m.modelSz
		}
	case down && typ == msgDone && m.done.IsZero():
		m.done = now
		m.end = readUsage()
	}
	return -1
}

// meteredConn is the server's end of one pipe.
type meteredConn struct {
	net.Conn
	m        *pipeMeter
	up, down frameScanner
}

func (c *meteredConn) Write(p []byte) (int, error) {
	c.m.downRaw.Add(int64(len(p)))
	c.down.scan(c.m, true, p)
	return c.Conn.Write(p)
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.upRaw.Add(int64(n))
	c.up.scan(c.m, false, p[:n])
	return n, err
}

// frameScanner follows frame boundaries in one direction of one pipe.
type frameScanner struct {
	hdr    [lenPrefix + frameHeader]byte
	hn     int   // header bytes collected
	rest   int64 // payload bytes left in the current frame
	tee    int64 // payload bytes still to copy into the snapshot
	teeOff int64
}

func (s *frameScanner) scan(m *pipeMeter, down bool, p []byte) {
	for len(p) > 0 {
		if s.hn < len(s.hdr) {
			n := copy(s.hdr[s.hn:], p)
			s.hn += n
			p = p[n:]
			if s.hn == len(s.hdr) {
				s.header(m, down)
			}
			continue
		}
		n := int64(len(p))
		if n > s.rest {
			n = s.rest
		}
		if s.tee > 0 {
			k := min(n, s.tee)
			if _, err := m.snap.WriteAt(p[:k], s.teeOff); err != nil {
				panic(fmt.Sprintf("perfbench: write model snapshot: %v", err))
			}
			s.tee -= k
			s.teeOff += k
		}
		p = p[n:]
		s.rest -= n
		if s.rest == 0 {
			s.hn = 0
		}
	}
}

func (s *frameScanner) header(m *pipeMeter, down bool) {
	body := int64(binary.LittleEndian.Uint32(s.hdr[0:]))
	h := s.hdr[lenPrefix:]
	round := int(int32(binary.LittleEndian.Uint32(h[hdrRound:])))
	np := int64(binary.LittleEndian.Uint32(h[hdrNParams:]))
	s.rest = body - frameHeader
	s.tee = 0
	if off := m.frame(down, h[0], round, lenPrefix+body, time.Now()); off >= 0 && 8*np == m.modelSz {
		s.tee, s.teeOff = 8*np, off
	}
	if s.rest == 0 {
		s.hn = 0
	}
}

// wireSession runs one transport.Serve session with rounds rounds against
// in-process clients and checks its outputs. snapDir, when non-empty,
// receives the per-round broadcast models.
func wireSession(w spec, seed int64, rounds int, traced bool, snapDir string) *session {
	s := &session{rounds: rounds}
	t0 := time.Now()
	in := w.makeInputs(seed)
	s.synth = in.synth
	initial := w.builder()(modelSeed).GetFlat()

	var snap *os.File
	if snapDir != "" {
		f, err := os.CreateTemp(snapDir, "models-*.bin")
		if err != nil {
			s.failures = append(s.failures, fmt.Sprintf("create snapshot file: %v", err))
			return s
		}
		snap = f
		s.snapshotPath = f.Name()
		defer f.Close()
	}
	m := newPipeMeter(rounds, snap, len(initial))

	// One tracer serves the server and every client: span IDs come from one
	// counter, so the stitched tree has no collisions.
	var buf bytes.Buffer
	var tracer *telemetry.Tracer
	if traced {
		tracer = telemetry.NewTracer(&buf)
	}
	n := len(in.shards)
	serverEnds := make([]transport.Conn, n)
	clientEnds := make([]net.Conn, n)
	finals := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		a, b := net.Pipe()
		serverEnds[k] = transport.NewStreamConn(&meteredConn{Conn: a, m: m})
		clientEnds[k] = b
		wg.Add(1)
		go func(k int, shard *data.Dataset) {
			defer wg.Done()
			finals[k], errs[k] = transport.RunClient(transport.NewStreamConn(clientEnds[k]), shard, transport.ClientConfig{
				Builder:    w.builder(),
				ModelSeed:  modelSeed,
				Seed:       modelSeed*1000 + int64(k),
				ClientID:   k,
				LocalSteps: w.e,
				BatchSize:  w.b,
				LR:         opt.ConstLR(w.lr),
				Lambda:     w.lambda,
				Tracer:     tracer,
			})
		}(k, in.shards[k])
	}
	algo := transport.AlgoFedAvg
	if w.algo == "rfedavg+" {
		algo = transport.AlgoRFedAvgPlus
	}
	reg := telemetry.NewRegistry()
	e0, c0 := reconErr()
	res, err := transport.Serve(transport.ServerConfig{
		Algorithm:     algo,
		Rounds:        rounds,
		InitialParams: initial,
		FeatureDim:    featureDim,
		SampleRatio:   w.sampleRatio,
		Seed:          modelSeed,
		Codec:         transport.CodecPolicy{Update: w.update},
		Metrics:       reg,
		Tracer:        tracer,
	}, serverEnds)
	if err != nil {
		// Unblock clients still waiting on a frame.
		for k := range clientEnds {
			clientEnds[k].Close()
		}
	}
	wg.Wait()
	for k := range clientEnds {
		clientEnds[k].Close()
		serverEnds[k].Close()
	}
	e1, c1 := reconErr()
	s.reconErrSum, s.reconErrN = e1-e0, c1-c0

	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		s.failures = append(s.failures, fmt.Sprintf("transport.Serve: %v", err))
		return s
	}
	for k, e := range errs {
		if e != nil {
			s.failures = append(s.failures, fmt.Sprintf("client %d: %v", k, e))
		}
	}
	if len(m.starts) != rounds || m.done.IsZero() {
		s.failures = append(s.failures, fmt.Sprintf("saw %d round starts and done=%v at the pipe ends, want %d rounds",
			len(m.starts), !m.done.IsZero(), rounds))
		return s
	}
	s.use = m.end.sub(m.base)
	s.starts, s.end = m.starts, m.done
	s.setup = s.starts[0].Sub(t0)
	s.peakLive = m.peak
	s.initial, s.final, s.losses = initial, res.FinalParams, res.RoundLosses
	s.evictions, s.retries = len(res.Evictions), res.RetriedRounds
	for t := 1; t < numMsg; t++ {
		if t == msgJoin || t == msgDone {
			continue
		}
		s.frames += m.frames[0][t] + m.frames[1][t]
		s.up += m.bytes[0][t]
		s.down += m.bytes[1][t]
	}
	for sc := 0; sc < compress.NumSchemes; sc++ {
		name := `rfl_codec_payload_bytes_total{dir="recv",scheme="` + compress.Scheme(sc).String() + `"}`
		s.payload[sc] = reg.Counter(name, "").Value()
	}
	if traced {
		if s.spans, err = traceview.ReadSpans(&buf); err != nil {
			s.failures = append(s.failures, fmt.Sprintf("decode spans: %v", err))
		}
	}

	// Output checks against computations made apart from the program.
	want := wireFrameTotals(w, rounds, len(initial), featureDim)
	got := frameTotals{upRaw: m.upRaw.Load(), downRaw: m.downRaw.Load(), frames: m.frames}
	if err := checkWireFrames(got, want); err != nil {
		s.failures = append(s.failures, err.Error())
	}
	if err := checkFinalModels(res.FinalParams, finals); err != nil {
		s.failures = append(s.failures, err.Error())
	}
	if err := checkFinite(res.RoundLosses); err != nil {
		s.failures = append(s.failures, err.Error())
	}
	if s.evictions != 0 || s.retries != 0 {
		s.failures = append(s.failures, fmt.Sprintf("%d evictions and %d retried rounds, want none", s.evictions, s.retries))
	}
	return s
}
