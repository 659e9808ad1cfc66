package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	txmetrics "sicost/internal/metrics"
	"sicost/internal/server"
	"sicost/internal/wal"
)

// window is the interval a client run measures; clients start no
// transaction once it is over.
type window struct{ start, end time.Time }

func openWindow(d time.Duration) window {
	s := time.Now()
	return window{start: s, end: s.Add(d)}
}

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// phase is one measured interval on a node: the clients' tally and the
// layers' counters at both ends of the window.
type phase struct {
	tally      *tally
	window     window
	txn0, txn1 txmetrics.TxnSnapshot
	con0, con1 engine.ContentionStats
	wal0, wal1 wal.Stats
	req0, req1 uint64 // server requests
	rt0, rt1   sample
	// heap0 and heap1 are the live heap after a GC with the clients
	// stopped, before and after the window, when the phase asked for
	// them. Quiescent points keep objects allocated during a concurrent
	// collection out of the reading, and the warm-up before heap0 lets
	// the engine's lazy cleanup of the load's bookkeeping run first.
	heap0, heap1 float64
}

// measure runs the clients for warm, stops them, then measures them
// for d.
func measure(n *node, cs []*client, warm, d time.Duration, gc bool) *phase {
	if warm > 0 {
		runClients(cs, openWindow(warm))
		for _, c := range cs {
			c.t.resetWindow()
		}
	}
	p := &phase{}
	if gc {
		runtime.GC()
		p.heap0 = readSample().liveHeap - latBytes(cs, nil)
	}
	done := make(chan *tally, 1)
	p.rt0, p.txn0, p.con0, p.wal0, p.req0 = readSample(), n.db.TxnMetrics(), n.db.Contention(), n.db.WAL().Stats(), n.requests()
	p.window = openWindow(d)
	go func() { done <- runClients(cs, p.window) }()
	time.Sleep(time.Until(p.window.end))
	p.rt1, p.txn1, p.con1, p.wal1, p.req1 = readSample(), n.db.TxnMetrics(), n.db.Contention(), n.db.WAL().Stats(), n.requests()
	p.tally = <-done
	if gc {
		runtime.GC()
		p.heap1 = readSample().liveHeap - latBytes(cs, p.tally)
	}
	return p
}

// latBytes is the memory the latency records of cs and of the merged
// tally t hold; heap readings leave the benchmark's own record out.
func latBytes(cs []*client, t *tally) float64 {
	n := 0
	for _, c := range cs {
		n += cap(c.t.lat)
	}
	if t != nil {
		n += cap(t.lat)
	}
	return float64(n) * 8 // bytes per time.Duration
}

// requests is the server's request count (0 without a server).
func (n *node) requests() uint64 {
	if n.srv == nil {
		return 0
	}
	return n.srv.Stats().Requests
}

// newClients makes the workload's clients on n; tr, when non-nil,
// gives each a span log.
func newClients(o options, n *node, tr *tracer, keepLat bool) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		c := &client{
			gen:     newGenerator(o.spec, o.customers, o.seed, i),
			pause:   rand.New(rand.NewSource(^clientSeed(o.seed, i))),
			keepLat: keepLat,
		}
		if o.spec.wire {
			c.tp = n.conns[i]
		} else {
			c.db = n.db
		}
		if tr != nil {
			c.spans = tr.newLog()
		}
		cs[i] = c
	}
	return cs
}

// runTimed is the end-to-end run: set up several times, measure
// untraced, pass the gate. Throughput and set-up time are taken over
// un-stolen time (see unstolen); latency is wall-clock.
func runTimed(o options) (*result, error) {
	var setupS []float64
	var n *node
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		s0, start := readSample(), time.Now()
		m, err := assemble(o, filepath.Join(o.dir, fmt.Sprintf("setup-%d", i)), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, unstolen(time.Since(start).Seconds(), s0, readSample()))
		if i < o.setups-1 {
			m.abandon()
		} else {
			n = m
		}
	}

	p := measure(n, newClients(o, n, nil, true), o.warmup, o.measure, true)
	t := p.tally
	r := &result{attempted: t.runTxns, failed: t.runFailed, firstErr: t.firstErr}
	lat := micros(t.lat)
	commits := float64(t.commits)
	r.set(endToEnd, "commit_tps", commits/unstolen(p.window.seconds(), p.rt0, p.rt1))
	r.set(endToEnd, "txn_p50_us", quantile(lat, 0.50))
	p95, p99 := quantile(lat, 0.95), quantile(lat, 0.99)
	r.set(endToEnd, "attempts_per_txn", ratio(float64(t.attempts), float64(t.txns)))
	r.set(endToEnd, "heap_mb_50k_commits", (p.heap0+(p.heap1-p.heap0)*ratio(heapCommits, commits))/1e6)
	r.set(endToEnd, "setup_s", quantile(setupS, 0.5))

	if _, err := verify(n, t.ledger); err != nil {
		return nil, err
	}
	r.notes = append(outcomeNotes(o, t),
		fmt.Sprintf("  wall-clock commit_tps %.1f with %.4f of the host's CPU time stolen; %.1f process CPU us per commit",
			commits/p.window.seconds(), stealShare(p.rt0, p.rt1), ratio(p.rt1.procCPU-p.rt0.procCPU, commits)*1e6),
		fmt.Sprintf("  txn_p95_us %.1f, txn_p99_us %.1f over %d transactions; heap_b_per_commit %.1f; setup_s of %d set-ups: %.4f",
			p95, p99, t.txns, ratio(p.heap1-p.heap0, commits), o.setups, setupS))
	return r, r.complete(endToEnd)
}

// outcomeNotes renders the outcome accounting of a measured window:
// abort_rate counts retried attempts by class, error_rate the logical
// transactions that failed, and application rollbacks are completed
// outcomes, shown apart.
func outcomeNotes(o options, t *tally) []string {
	var retried int64
	var classes []string
	for r, k := range t.aborts {
		if k > 0 {
			retried += k
			classes = append(classes, fmt.Sprintf("%s %d", core.AbortReason(r), k))
		}
	}
	return []string{
		fmt.Sprintf("%s seed %d: %d transactions in the window: %d committed, %d application rollbacks, %d failed; %d attempts",
			o.spec.name, o.seed, t.txns, t.commits, t.appRollbacks, t.failed, t.attempts),
		fmt.Sprintf("  abort_rate %.4f (%s)  error_rate %.4f",
			ratio(float64(retried), float64(t.attempts)), strings.Join(classes, ", "), ratio(float64(t.failed), float64(t.txns))),
		fmt.Sprintf("  backoff: %d transactions aborted %d times in a row and backed off; longest took %d attempts",
			t.backedOff, backoffAfter, t.longest),
	}
}

// runTraced is the per-layer run. An untraced phase gives the runtime
// and outcome counters and the baseline commit_tps; a traced phase on a
// fresh node, with the listener and log-device wrappers and client
// spans, gives the layer spans and counters; on the wire workloads a
// replay of the same statement stream in-process through the server's
// steps splits a statement into decode, parse, execute and encode.
func runTraced(o options) (*result, error) {
	parts := time.Duration(2)
	if o.spec.wire {
		parts = 3
	}
	d := o.measure / parts

	nU, err := assemble(o, filepath.Join(o.dir, "untraced"), nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	pu := measure(nU, newClients(o, nU, nil, false), o.warmup, d, true)
	gu, err := verify(nU, pu.tally.ledger)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	nT, err := assemble(o, filepath.Join(o.dir, "traced"), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sampler := startLagSampler(nT.db)
	pt := measure(nT, newClients(o, nT, tr, false), o.warmup, d, false)
	lags := sampler.finish()
	ledger := pt.tally.ledger
	phases := map[string]*tracer{"traced": tr}

	var rt *tracer
	var pr *phase
	if o.spec.wire {
		rt = newTracer()
		cs := newClients(o, nT, rt, false)
		var sessions []*server.Session
		for _, c := range cs {
			sess := server.NewSession(nT.db, server.SessionConfig{StatementDeadline: server.DefaultStatementDeadline})
			sessions = append(sessions, sess)
			c.tp = &replayTransport{sess: sess, log: c.spans}
		}
		pr = measure(nT, cs, 0, d, false)
		for _, s := range sessions {
			s.Close()
		}
		ledger += pr.tally.ledger
		phases["replay"] = rt
	}
	if _, err := verify(nT, ledger); err != nil {
		return nil, err
	}
	if err := writeSpans(o.spans, phases); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	r := layerMetrics(pu, pt, pr, tr, rt, lags, gu)
	for _, p := range []*phase{pu, pt, pr} {
		if p != nil {
			r.attempted += p.tally.runTxns
			r.failed += p.tally.runFailed
			if r.firstErr == nil {
				r.firstErr = p.tally.firstErr
			}
		}
	}
	r.notes = append(outcomeNotes(o, pu.tally),
		fmt.Sprintf("  tracing overhead %.4f of untraced commit_tps; spans in %s", r.metrics["trace.overhead_frac"].Value, o.spans))
	return r, r.complete(perLayer)
}

// spanDurations groups by name the durations (nanoseconds) of the
// spans that start inside the phase's window.
func spanDurations(tr *tracer, p *phase) map[string][]float64 {
	out := map[string][]float64{}
	if tr == nil {
		return out
	}
	for _, s := range tr.spans() {
		if p.window.contains(tr.epoch.Add(s.start)) {
			out[s.name] = append(out[s.name], float64(s.end-s.start))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// layerMetrics computes the per-layer metrics from the untraced phase
// pu, the traced phase pt and, on wire workloads, the replay phase pr.
func layerMetrics(pu, pt, pr *phase, tr, rt *tracer, lags []float64, gu gateReport) *result {
	r := &result{}
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	ts := spanDurations(tr, pt)
	rs := spanDurations(rt, pr)
	q := func(xs []float64, p, scale float64) float64 { return quantile(xs, p) / scale }
	commits := float64(pt.tally.commits)

	// server: round trips and connection handling in the traced phase,
	// statement steps in the replay.
	rtt50 := q(ts[spanRTT], 0.5, 1e3)
	handle50 := q(ts[spanHandle], 0.5, 1e3)
	set("server.rtt_us.p50", rtt50)
	set("server.rtt_us.p95", q(ts[spanRTT], 0.95, 1e3))
	set("server.handle_us.p50", handle50)
	set("server.socket_us.p50", rtt50-handle50)
	set("server.decode_ns", q(rs[spanDecode], 0.5, 1))
	set("server.encode_ns", q(rs[spanEncode], 0.5, 1))
	set("server.execute_us.select", q(rs[spanExecute+"select"], 0.5, 1e3))
	set("server.execute_us.update", q(rs[spanExecute+"update"], 0.5, 1e3))
	set("server.execute_us.commit", q(rs[spanExecute+"commit"], 0.5, 1e3))
	reqPerCommit := ratio(float64(pt.req1-pt.req0), commits)
	set("server.requests_per_commit", reqPerCommit)
	bytesPerReq := 0.0
	if tr != nil {
		bytesPerReq = ratio(float64(tr.wireBytes()), float64(len(ts[spanHandle])))
	}
	set("server.wire_bytes_per_commit", bytesPerReq*reqPerCommit)
	set("sqlmini.parse_ns", q(rs[spanParse], 0.5, 1))

	// engine: spans around the engine API on engine-hotspot; the
	// replay's Session.Execute steps on the wire workloads.
	if pr == nil {
		set("engine.begin_ns", q(ts[spanBegin], 0.5, 1))
		set("engine.exec_us.p50", q(ts[spanExec], 0.5, 1e3))
		set("engine.commit_us.p50", q(ts[spanCommit], 0.5, 1e3))
		set("engine.commit_us.p95", q(ts[spanCommit], 0.95, 1e3))
	} else {
		set("engine.begin_ns", q(rs[spanExecute+"begin"], 0.5, 1))
		set("engine.exec_us.p50", q(execPerAttempt(rt), 0.5, 1e3))
		set("engine.commit_us.p50", q(rs[spanExecute+"commit"], 0.5, 1e3))
		set("engine.commit_us.p95", q(rs[spanExecute+"commit"], 0.95, 1e3))
	}
	txn := pt.txn1.Delta(pt.txn0)
	engCommits := float64(txn.Commits)
	set("engine.attempts_per_commit", ratio(engCommits+float64(txn.Aborts.Total()), engCommits))
	wasted := sum(ts[spanAttemptAborted])
	set("engine.wasted_time_frac", ratio(wasted, wasted+sum(ts[spanAttempt])))
	set("engine.aborts.serialization", ratio(float64(txn.Aborts[core.AbortSerialization]), commits))
	set("engine.aborts.deadlock", ratio(float64(txn.Aborts[core.AbortDeadlock]), commits))
	con := pt.con1.Delta(pt.con0)
	set("engine.publish_waits_per_commit", ratio(float64(con.CommitPublishWaits), commits))

	// storage: the lock table's counters and wait histogram.
	set("storage.lock_wait_us.p50", float64(txn.LockWait.Quantile(0.5))/1e3)
	set("storage.lock_wait_us.p95", float64(txn.LockWait.Quantile(0.95))/1e3)
	set("storage.lock_waits_per_commit", ratio(float64(con.Lock.Waits), commits))
	set("storage.lock_fastpath_frac", ratio(float64(con.Lock.FastPath), float64(con.Lock.FastPath+con.Lock.Waits)))

	// wal: the log's counters, the device wrapper's spans, the
	// durability-lag samples and the gate's recovery.
	set("wal.bytes_per_commit", ratio(float64(pt.wal1.Bytes-pt.wal0.Bytes), commits))
	set("wal.commits_per_sync", ratio(float64(pt.wal1.Records-pt.wal0.Records), float64(pt.wal1.Syncs-pt.wal0.Syncs)))
	set("wal.syncs_per_s", float64(pt.wal1.Syncs-pt.wal0.Syncs)/pt.window.seconds())
	set("wal.device_append_us.p50", q(ts[spanWALAppend], 0.5, 1e3))
	set("wal.device_sync_us.p50", q(ts[spanWALSync], 0.5, 1e3))
	set("wal.device_sync_us.p95", q(ts[spanWALSync], 0.95, 1e3))
	set("wal.durable_lag_commits.p95", quantile(lags, 0.95))
	set("wal.recover_mb_s", ratio(float64(gu.logBytes)/1e6, gu.recoverDur.Seconds()))

	// runtime and client outcomes: the untraced phase.
	uc := float64(pu.tally.commits)
	set("runtime.alloc_b_per_commit", ratio(pu.rt1.allocBytes-pu.rt0.allocBytes, uc))
	set("runtime.allocs_per_commit", ratio(pu.rt1.allocObjects-pu.rt0.allocObjects, uc))
	set("runtime.gc_cpu_frac", ratio(pu.rt1.gcCPU-pu.rt0.gcCPU, pu.rt1.totalCPU-pu.rt0.totalCPU))
	set("runtime.heap_b_per_commit", ratio(pu.heap1-pu.heap0, uc))
	var retried int64
	for _, k := range pu.tally.aborts {
		retried += k
	}
	ut := float64(pu.tally.txns)
	set("client.abort_rate", ratio(float64(retried), float64(pu.tally.attempts)))
	set("client.error_rate", ratio(float64(pu.tally.failed), ut))
	set("client.app_rollback_frac", ratio(float64(pu.tally.appRollbacks), ut))

	set("host.steal_frac", stealShare(pu.rt0, pu.rt1))
	set("host.wall_commit_tps", uc/pu.window.seconds())
	set("host.cpu_us_per_commit", ratio(pu.rt1.procCPU-pu.rt0.procCPU, uc)*1e6)
	set("client.txn_p95_us", q(ts[spanTxn], 0.95, 1e3))
	set("client.txn_p99_us", q(ts[spanTxn], 0.99, 1e3))

	untraced := uc / unstolen(pu.window.seconds(), pu.rt0, pu.rt1)
	traced := commits / unstolen(pt.window.seconds(), pt.rt0, pt.rt1)
	set("trace.untraced_commit_tps", untraced)
	set("trace.traced_commit_tps", traced)
	set("trace.overhead_frac", 1-ratio(traced, untraced))
	return r
}

// execPerAttempt sums, per attempt, the replay's SELECT and UPDATE
// Execute spans: the attempt's statement work below the server.
func execPerAttempt(rt *tracer) []float64 {
	per := map[uint64]float64{}
	for _, s := range rt.spans() {
		if s.name == spanExecute+"select" || s.name == spanExecute+"update" {
			per[s.parent] += float64(s.end - s.start)
		}
	}
	out := make([]float64, 0, len(per))
	for _, v := range per {
		out = append(out, v)
	}
	return out
}
