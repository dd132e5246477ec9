package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/compress"
)

// toy shrinks a workload to test size, keeping its kind, algorithm and
// codec. The accuracy target and margin are disabled: a few rounds on a
// few samples learn little.
func toy(w spec) spec {
	w.clients, w.trainN = 4, 120
	if w.testN > 0 {
		w.testN = 40
	}
	w.evalN = 40
	if w.sampleRatio < 1 {
		w.sampleRatio = 0.5
	}
	w.e, w.b, w.rounds = 1, 10, 3
	w.target, w.margin = 0, -1
	return w
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(f.Workload), len(workloads))
	}
	for i, w := range f.Workload {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsRunEndToEnd runs every workload at toy size in both modes and
// requires all output checks to pass and the printed metrics to be exactly
// BENCHMARK.json's, with its units.
func TestWorkloadsRunEndToEnd(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		w := toy(w)
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := run(w, 3, 0.01, trace, t.TempDir())
				if !res.Correct || res.Failed != 0 || res.Attempted < w.rounds {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d: %v",
						trace, res.Correct, res.Attempted, res.Failed, res.failures)
				}
				want := f.EndToEnd
				if trace {
					want = f.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s printed as %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
					}
				}
			}
		})
	}
}

func TestSimBytesCheckRejectsOneByteOff(t *testing.T) {
	w, _ := lookup("sim-cifar-rfedavgplus")
	up, down := simBytesPerRound(w, 8842, 48)
	if err := checkBytes("round", up, down, up, down); err != nil {
		t.Fatal(err)
	}
	if checkBytes("round", up+1, down, up, down) == nil || checkBytes("round", up, down-1, up, down) == nil {
		t.Fatal("a byte off passed the Table III check")
	}
}

func TestWireFrameCheckRejectsOneByteOff(t *testing.T) {
	for _, w := range workloads {
		want := wireFrameTotals(w, 5, 1000, featureDim)
		if err := checkWireFrames(want, want); err != nil {
			t.Fatal(err)
		}
		got := want
		got.upRaw++
		if checkWireFrames(got, want) == nil {
			t.Fatalf("%s: a byte off passed the frame-layout check", w.name)
		}
		got = want
		got.frames[1][msgSkip]++
		if checkWireFrames(got, want) == nil {
			t.Fatalf("%s: an extra frame passed the frame-layout check", w.name)
		}
	}
}

// TestWireFrameTotalsByHand pins the frame-layout formula on one small
// rFedAvg+ and one q8 FedAvg session computed by hand.
func TestWireFrameTotalsByHand(t *testing.T) {
	plus := spec{algo: "rfedavg+", clients: 2, sampleRatio: 1}
	got := wireFrameTotals(plus, 1, 10, 3)
	// up: 2 joins (76) + 2 updates (76+80) + 2 δ (76+24)
	// down: 2 assigns (76+80+24) + 2 δ requests (76+80) + 2 done (76+80)
	if got.upRaw != 2*76+2*156+2*100 || got.downRaw != 2*180+2*156+2*156 {
		t.Fatalf("rFedAvg+ totals %d up / %d down", got.upRaw, got.downRaw)
	}
	q8 := spec{algo: "fedavg", clients: 4, sampleRatio: 0.5, update: compress.SchemeInt8}
	got = wireFrameTotals(q8, 2, 10, 3)
	// per round: 2 assigns (76+80) + 2 skips (76) down, 2 q8 updates (76+14) up
	if got.upRaw != 4*76+2*2*90 || got.downRaw != 2*(2*156+2*76)+4*156 {
		t.Fatalf("q8 totals %d up / %d down", got.upRaw, got.downRaw)
	}
}

func TestDeltaCheckRejectsPerturbedCoordinate(t *testing.T) {
	want := [][]float64{{0.5, 1.25, 0}, {2, 3, 4}}
	got := [][]float64{{0.5, 1.25, 0}, {2, 3, 4}}
	if err := checkDeltaRows(got, want, deltaTol); err != nil {
		t.Fatal(err)
	}
	got[1][2] += 1e-6
	if checkDeltaRows(got, want, deltaTol) == nil {
		t.Fatal("a perturbed δ coordinate passed")
	}
}

func TestFinalModelCheckRejectsAlteredClient(t *testing.T) {
	server := []float64{1, 2, 3}
	clients := [][]float64{{1, 2, 3}, {1, 2, 3}}
	if err := checkFinalModels(server, clients); err != nil {
		t.Fatal(err)
	}
	clients[1][0] = 1.0000000000000002
	if checkFinalModels(server, clients) == nil {
		t.Fatal("an altered client model passed")
	}
}

func TestLossAndAccuracyChecks(t *testing.T) {
	if checkFinite([]float64{1, 0.5}) != nil || checkFinite([]float64{1, nan()}) == nil {
		t.Fatal("checkFinite")
	}
	if checkAccuracy(0.3, 0.1, 0.1, 0.1) != nil || checkAccuracy(0.15, 0.1, 0.1, 0.1) == nil || checkAccuracy(0.3, 0.25, 0.1, 0.1) == nil {
		t.Fatal("checkAccuracy")
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestCoveredUnionsOverlaps(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 20}, {30, 40}, {35, 36}}
	if got := covered(ivs, 0, 100); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
	if got := covered(ivs, 8, 32); got != 14 {
		t.Fatalf("clipped covered = %d, want 14", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if median(xs) != 2.5 || quantile(xs, 0) != 1 || quantile(xs, 1) != 4 {
		t.Fatalf("quantiles of %v", xs)
	}
}
