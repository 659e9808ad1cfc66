package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit; the names and units
// match BENCHMARK.json (a test checks that).
type metricDef struct{ name, unit string }

// endToEnd are what a SmallBank user sees, reported by the timed run
// (-trace 0). Each is non-zero on every workload, so its spread across
// seeds is a share of a non-zero median:
//
//   - commit_tps: committed logical transactions per second of
//     un-stolen time (see unstolen);
//   - txn_p50_us: client-perceived wall-clock latency of a logical
//     transaction, retries included;
//   - attempts_per_txn: attempts per logical transaction ended, the
//     never-zero form of the abort rate (1 / (1 - abort_rate) when no
//     transaction fails); abort_rate itself is printed, and is 0 on the
//     read-only workload;
//   - heap_mb_50k_commits: live heap holding the loaded database after
//     the warm-up and heapCommits more commits, read after a GC with the
//     clients stopped before and after the window and interpolated to
//     heapCommits (retention grows linearly with commits: versions are
//     never pruned). A fixed commit count keeps a throughput gain from
//     reading as a memory regression, and the loaded database keeps the
//     figure non-zero on the read-only workload;
//   - setup_s: median over several set-ups of the un-stolen time to
//     open the log, create the schema, load the customers and connect
//     the clients.
//
// On a shared virtual machine the hypervisor's steal time moves every
// wall-clock figure: on a 2-vCPU guest it ranged from 1% to 29% of CPU
// time between runs, and wall-clock commit_tps tracked it, its spread
// across seeds reaching 21% on wire-mix against 5-7% over un-stolen
// time. Tail latency has no such correction — it grows with steal
// faster than linearly, its spread reaching 34% on wire-mix — so
// txn_p95_us and txn_p99_us are printed as diagnostics and reported by
// the traced run (client.txn_p95_us, client.txn_p99_us) rather than
// bounded. error_rate is the result line's failed/attempted: it is 0 on
// a correct run, so it has no spread to bound.
var endToEnd = []metricDef{
	{"commit_tps", "1/s"},
	{"txn_p50_us", "us"},
	{"attempts_per_txn", "ratio"},
	{"heap_mb_50k_commits", "MB"},
	{"setup_s", "s"},
}

// perLayer are reported by the traced run (-trace 1), per layer, with
// the end-to-end metric each should move:
//
//   - server.* (txn_p50_us, commit_tps): moves on both wire workloads,
//     0 on engine-hotspot, which has no server;
//   - sqlmini.parse_ns (txn_p50_us): wire-read most, then wire-mix;
//   - engine.* (commit_tps, attempts_per_txn): engine-hotspot, a small
//     share of the wire workloads, where begin, exec and commit come
//     from the in-process replay's Session.Execute of BEGIN, the
//     attempt's SELECTs and UPDATEs, and COMMIT;
//   - storage.* (commit_tps and the tail, client.txn_p95_us):
//     engine-hotspot; flat on wire-read;
//   - wal.* (commit_tps through the flush loop's CPU on two vCPUs; sync
//     waits move no end-to-end metric under asynchronous commit):
//     wire-mix and engine-hotspot; 0 on wire-read, which writes no log
//     record;
//   - runtime.* (commit_tps, heap_mb_50k_commits): all three workloads,
//     engine-hotspot most (version-chain retention);
//   - client.* restates the outcome accounting of the untraced phase
//     and gives the traced phase's tail latency;
//   - host.* gives the untraced phase's steal share, wall-clock
//     throughput and process CPU time per commit;
//   - trace.* compares the untraced and traced phases' commit_tps.
var perLayer = []metricDef{
	{"server.rtt_us.p50", "us"},
	{"server.rtt_us.p95", "us"},
	{"server.handle_us.p50", "us"},
	{"server.socket_us.p50", "us"},
	{"server.decode_ns", "ns"},
	{"server.encode_ns", "ns"},
	{"server.execute_us.select", "us"},
	{"server.execute_us.update", "us"},
	{"server.execute_us.commit", "us"},
	{"server.requests_per_commit", "count"},
	{"server.wire_bytes_per_commit", "B"},
	{"sqlmini.parse_ns", "ns"},
	{"engine.begin_ns", "ns"},
	{"engine.exec_us.p50", "us"},
	{"engine.commit_us.p50", "us"},
	{"engine.commit_us.p95", "us"},
	{"engine.attempts_per_commit", "ratio"},
	{"engine.wasted_time_frac", "ratio"},
	{"engine.aborts.serialization", "1/commit"},
	{"engine.aborts.deadlock", "1/commit"},
	{"engine.publish_waits_per_commit", "count"},
	{"storage.lock_wait_us.p50", "us"},
	{"storage.lock_wait_us.p95", "us"},
	{"storage.lock_waits_per_commit", "count"},
	{"storage.lock_fastpath_frac", "ratio"},
	{"wal.bytes_per_commit", "B"},
	{"wal.commits_per_sync", "count"},
	{"wal.syncs_per_s", "1/s"},
	{"wal.device_append_us.p50", "us"},
	{"wal.device_sync_us.p50", "us"},
	{"wal.device_sync_us.p95", "us"},
	{"wal.durable_lag_commits.p95", "count"},
	{"wal.recover_mb_s", "MB/s"},
	{"runtime.alloc_b_per_commit", "B"},
	{"runtime.allocs_per_commit", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_b_per_commit", "B"},
	{"client.abort_rate", "ratio"},
	{"client.error_rate", "ratio"},
	{"client.app_rollback_frac", "ratio"},
	{"client.txn_p95_us", "us"},
	{"client.txn_p99_us", "us"},
	{"host.steal_frac", "ratio"},
	{"host.wall_commit_tps", "1/s"},
	{"host.cpu_us_per_commit", "us"},
	{"trace.untraced_commit_tps", "1/s"},
	{"trace.traced_commit_tps", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// heapCommits is the commit count heap_mb_50k_commits is read at; every
// workload commits more than that in a measured window.
const heapCommits = 50_000

// result is one run's outcome.
type result struct {
	metrics           map[string]metric
	attempted, failed int64
	// notes are human-readable lines printed before the metrics.
	notes []string
	// firstErr is the first failed transaction's error, if any.
	firstErr error
}

// set records the named metric with the unit its definition gives.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if r.metrics == nil {
				r.metrics = map[string]metric{}
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// complete reports an error unless every defined metric was set.
func (r *result) complete(defs []metricDef) error {
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
	}
	return nil
}

// summary is the result line's JSON shape.
func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, r.metrics}
}

// quantile returns the q-quantile of xs, interpolating between the two
// nearest ranks; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sample is a reading of the Go runtime's, the process's and the
// host's counters.
type sample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
	liveHeap                 float64
	// procCPU is the process's user plus system CPU time in seconds.
	procCPU float64
	// hostTicks is all CPU time of the machine and stealTicks the part
	// of it the hypervisor ran other guests in, from /proc/stat; both 0
	// where that file cannot be read.
	hostTicks, stealTicks float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readSample() sample {
	rs := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		rs[i].Name = n
	}
	metrics.Read(rs)
	v := func(i int) float64 {
		switch rs[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(rs[i].Value.Uint64())
		case metrics.KindFloat64:
			return rs[i].Value.Float64()
		}
		return 0
	}
	s := sample{allocBytes: v(0), allocObjects: v(1), gcCPU: v(2), totalCPU: v(3), liveHeap: v(4)}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.procCPU = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	s.hostTicks, s.stealTicks = readProcStat()
	return s
}

// readProcStat sums the aggregate "cpu" line of /proc/stat and returns
// it with its steal column (the eighth value).
func readProcStat() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// stealShare is the share of the machine's CPU time between a and b
// that the hypervisor gave to other guests.
func stealShare(a, b sample) float64 {
	return ratio(b.stealTicks-a.stealTicks, b.hostTicks-a.hostTicks)
}

// unstolen scales a wall-clock interval between a and b to the time
// the machine's CPUs actually ran this guest.
func unstolen(seconds float64, a, b sample) float64 {
	return seconds * (1 - stealShare(a, b))
}
