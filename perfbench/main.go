// Command perfbench runs one named workload of the end-to-end benchmark and
// prints its metrics. It drives the program only through fl.Run,
// transport.Serve and transport.RunClient, plus the public calls a traced run
// times on its own (data synthesis, Evaluate-style forward passes,
// core.ComputeDeltaInto, compress.EncodeInto/DecodeInto).
//
//	perfbench -workload sim-cifar-rfedavgplus -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of untraced sessions; with
// -trace 1 it runs an untraced and a traced half and prints the per-layer
// metrics. The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}. A failed output check counts
// as a failed operation and makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's test data is generated from")
	seconds := flag.Float64("seconds", 30, "how long the timed sessions run")
	trace := flag.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/tmp", "directory for the per-round model snapshots")
	flag.Parse()

	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// GOMAXPROCS never exceeds the CPUs this process may run on.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	res := run(w, *seed, *seconds, *trace == 1, *workdir)
	printResult(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one printed metric value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// failures lists the failed output checks (printed to stderr).
	failures []string
}

// printResult writes a readable table to stderr and the JSON line last on
// out.
func printResult(out *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "  FAILED CHECK:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or Inf metric can fail to encode: report it as a failed
		// run rather than print an unparsable line.
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		fmt.Fprintf(out, `{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`+"\n",
			max(res.Attempted, 1), max(res.Failed, 1))
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
}
