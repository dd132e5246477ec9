package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
)

// spec is one workload's fixed configuration. The seed given on the command
// line generates the test data (fl.Run's test set and the benchmark's
// held-out set); the training data, its partition, w_0 and the training RNG
// streams are fixed per workload, so every seed trains the same models and
// the quality metrics vary only with the held-out data.
type spec struct {
	name    string
	wire    bool   // transport.Serve + RunClient instead of fl.Run
	dataset string // "cifar" or "mnist"
	algo    string // "rfedavg+" or "fedavg"

	clients     int
	sampleRatio float64 // ≥ 1 means full participation
	trainN      int
	testN       int // fl.Run's per-round test set (sim only)
	evalN       int // the benchmark's held-out set behind the quality metrics
	e, b        int
	lr          float64
	lambda      float64
	rounds      int             // rounds per session
	update      compress.Scheme // uplink codec of the model update (wire only)

	// target is the accuracy behind rounds_to_acc and time_to_acc_s, on the
	// benchmark's held-out set.
	target float64
	// margin is how far final_acc must beat both the initial model's
	// accuracy and chance.
	margin float64
}

// workloads lists the benchmark's workloads by name, in BENCHMARK.json order.
var workloads = []spec{
	{
		// Compute-bound: local training, the full-shard δ pass and per-round
		// evaluation, no wire and no codec.
		name: "sim-cifar-rfedavgplus", dataset: "cifar", algo: "rfedavg+",
		clients: 10, sampleRatio: 1, trainN: 3000, testN: 800, evalN: 4000,
		e: 5, b: 50, lr: 0.1, lambda: 3e-4, rounds: 40,
		target: 0.23, margin: 0.1,
	},
	{
		// The deployment twin of the workload above: same configuration and
		// seed through the frame codec and the server's phases.
		name: "wire-cifar-rfedavgplus", wire: true, dataset: "cifar", algo: "rfedavg+",
		clients: 10, sampleRatio: 1, trainN: 3000, evalN: 4000,
		e: 5, b: 50, lr: 0.1, lambda: 3e-4, rounds: 40, update: compress.SchemeDense,
		target: 0.23, margin: 0.1,
	},
	{
		// Many small q8 updates with little local work: server phases, the
		// sharded aggregation (≥ 64 valid updates) and the codec dominate.
		name: "wide-mnist-fedavg-q8", wire: true, dataset: "mnist", algo: "fedavg",
		clients: 100, sampleRatio: 0.8, trainN: 4000, evalN: 2000,
		e: 1, b: 10, lr: 0.02, rounds: 60, update: compress.SchemeInt8,
		target: 0.95, margin: 0.5,
	},
}

// The training inputs every workload shares: the feature width d of the CNN,
// the stream the training data and its partition come from, and the seed of
// w_0 and of the training RNG streams.
const (
	featureDim = 48
	trainSeed  = 1
	modelSeed  = 1
)

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// cohort is the number of clients sampled per round: ⌈SR·N⌉, or N under
// full participation.
func (w spec) cohort() int {
	if w.sampleRatio <= 0 || w.sampleRatio >= 1 {
		return w.clients
	}
	return int(math.Ceil(w.sampleRatio * float64(w.clients)))
}

func (w spec) builder() nn.Builder {
	if w.dataset == "cifar" {
		return nn.NewImageCNN(data.SynthCIFARSpec, featureDim)
	}
	return nn.NewImageCNN(data.SynthMNISTSpec, featureDim)
}

func (w spec) synth(n int, seed int64) *data.Dataset {
	if w.dataset == "cifar" {
		return data.SynthCIFAR(n, seed)
	}
	return data.SynthMNIST(n, seed)
}

// evalSet generates the seed's held-out set for the quality metrics.
func (w spec) evalSet(seed int64) *data.Dataset { return w.synth(w.evalN, seed+2_000_003) }

// inputs is one session's generated data.
type inputs struct {
	shards []*data.Dataset
	test   *data.Dataset
	synth  time.Duration // time spent generating train and test data
}

// makeInputs generates a session's data: the workload's training data and
// partition, and the seed's test set for fl.Run, if any (from a
// stream offset so it never replays the training instances).
func (w spec) makeInputs(seed int64) inputs {
	t := time.Now()
	train := w.synth(w.trainN, trainSeed)
	var test *data.Dataset
	if w.testN > 0 {
		test = w.synth(w.testN, seed+1_000_003)
	}
	synth := time.Since(t)
	// Similarity 0: the paper's fully label-skewed split.
	parts := data.PartitionBySimilarity(train.Y, w.clients, 0, rand.New(rand.NewSource(trainSeed)))
	shards := make([]*data.Dataset, len(parts))
	for k, idx := range parts {
		shards[k] = train.Subset(idx)
	}
	return inputs{shards: shards, test: test, synth: synth}
}
