// Command perfbench is the repository's end-to-end benchmark: SmallBank
// under serializable SI, driven by a closed loop of two clients, either
// as SQL text over TCP through internal/server or in-process through the
// internal/smallbank programs on the engine API. Every workload runs on
// the same assembly and pays no modelled cost: simres off, no simulated
// fsync latency, a durable segmented log on local disk whose flush loop
// encodes, appends and fsyncs every record, asynchronous commit, no
// checkpoints.
//
// Usage:
//
//	perfbench -workload wire-mix -seed 1 -seconds 10 -trace 0 [-dir .bench_build]
//
// With -trace 0 the last line of standard output is one JSON object
// carrying the end-to-end metrics; with -trace 1 it carries the
// per-layer metrics of a separate traced run (metrics.go lists both and
// the end-to-end metric each layer metric should move). Every run ends
// with the correctness gate (gate.go); a failed check exits 1 and prints
// no numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runLimit bounds a whole run: the benchmark must exit within 180 s, so
// a run that wedges exits non-zero before that instead of hanging.
const runLimit = 170 * time.Second

func main() {
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	watchdog.Stop()
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: wire-mix, wire-read or engine-hotspot")
	seed := fs.Int64("seed", 1, "seed of the load and of the transaction stream")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := fs.String("dir", ".bench_build", "scratch directory for logs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	o := options{
		spec:      spec,
		seed:      *seed,
		measure:   time.Duration(*seconds * float64(time.Second)),
		warmup:    warmup,
		customers: customers,
		setups:    setups,
		dir:       filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid())),
		spans:     filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.tsv", spec.name, *seed)),
	}
	defer os.RemoveAll(o.dir)
	return report(o, *traced == 1, stdout, stderr)
}

// report runs o and prints its notes, its metrics by name and, as the
// last line, the result object; a failed run prints only the error.
func report(o options, traced bool, stdout, stderr io.Writer) int {
	var res *result
	var err error
	if traced {
		res, err = runTraced(o)
	} else {
		res, err = runTimed(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", o.spec.name, o.seed, err)
		return 1
	}
	if res.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %d of %d transactions failed; first: %v\n", res.failed, res.attempted, res.firstErr)
	}
	for _, line := range res.notes {
		fmt.Fprintln(stdout, line)
	}
	printMetrics(stdout, res.metrics)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printMetrics writes one human-readable line per metric, by name.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
