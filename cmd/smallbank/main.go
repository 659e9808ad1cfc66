// Command smallbank runs one SmallBank workload configuration and prints
// the full statistics breakdown: throughput, per-type commits, aborts by
// reason, response-time distribution, WAL activity and (optionally) a
// runtime serializability verdict.
//
// Examples:
//
//	smallbank -strategy SI -mpl 20
//	smallbank -strategy MaterializeBW -mpl 20 -hotspot 10 -balmix 0.6
//	smallbank -strategy PromoteWT-sfu -platform commercial -mpl 25
//	smallbank -strategy SI -check          # live online serializability checker
//	smallbank -strategies                  # list strategies
//	smallbank -chaos -mode 2pl -check      # fault-injected run + invariant audit
//	smallbank -crash -crash-cycles 20      # crash/recover chaos + durability audit
//	smallbank -wal waldir                  # durable segment log (resumes if non-empty)
//	smallbank -retry backoff -retry-base 200us -retry-cap 20ms
//	smallbank -trace run.jsonl             # dump the lifecycle event trace
//	smallbank -pprof localhost:6060        # serve pprof/expvar while running
//	smallbank -open -rate 20000            # open-system run at a fixed offered load
//	smallbank -open -rate 20000 -admission # ... behind the adaptive admission gate
//	smallbank -deadline 50ms               # per-transaction time budget
//	smallbank -wal waldir -wal-segment-size 1048576 -ckpt-bytes 4194304
//	                                       # fuzzy incremental checkpoints; covered
//	                                       # segments retire online (bounded log)
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/experiments"
	"sicost/internal/faultinject"
	"sicost/internal/onlinecheck"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
	"sicost/internal/wal"
	"sicost/internal/workload"
)

func main() {
	var (
		strategyName = flag.String("strategy", "SI", "strategy name (see -strategies)")
		listStrats   = flag.Bool("strategies", false, "list strategies and exit")
		platform     = flag.String("platform", "postgres", "platform profile: postgres or commercial")
		mode         = flag.String("mode", "si", "concurrency control: si, 2pl or ssi")
		mpl          = flag.Int("mpl", 20, "multiprogramming level")
		customers    = flag.Int("customers", 18000, "customers loaded")
		hotspot      = flag.Int("hotspot", 1000, "hotspot size")
		hotProb      = flag.Float64("hotprob", 0.9, "fraction of transactions on the hotspot")
		balMix       = flag.Float64("balmix", 0, "Balance fraction (0 = uniform mix)")
		ramp         = flag.Duration("ramp", 500*time.Millisecond, "ramp-up")
		measure      = flag.Duration("measure", 2*time.Second, "measurement interval")
		scale        = flag.Float64("scale", 1.0, "simulated-hardware time scale")
		seed         = flag.Int64("seed", 1, "random seed")
		check        = flag.Bool("check", false, "attach the online windowed serializability checker to the live trace stream")
		chaos        = flag.Bool("chaos", false, "arm the default fault plan and audit the standing invariants")
		crash        = flag.Bool("crash", false, "run the crash/recover chaos harness and audit the durability contract")
		crashCycles  = flag.Int("crash-cycles", 20, "crash/recover cycles for -crash")
		crashAsync   = flag.Bool("crash-async", false, "-crash: asynchronous-commit mode, auditing the durable-prefix contract")
		crashSegSize = flag.Int64("crash-segment-size", 0, "-crash: rotate the in-memory segment log at this many bytes (0 = 4096)")
		walPath      = flag.String("wal", "", "durable log directory of wal.NNNN segments; a non-empty log is recovered instead of loaded")
		walAsync     = flag.Bool("wal-async", false, "asynchronous commit (synchronous_commit=off): publish before durable")
		walSegSize   = flag.Int64("wal-segment-size", 0, "rotate the -wal log into a new wal.NNNN segment at this many bytes (0 = 16 MiB)")
		walPrealloc  = flag.Int64("wal-prealloc", 0, "create wal.NNNN segments at this physical size up front")
		ckptBytes    = flag.Int64("ckpt-bytes", 0, "fuzzy incremental checkpoint after this many bytes of log growth (0 = off)")
		ckptChain    = flag.Int("ckpt-chain", 0, "delta links per chain before a full link re-roots it (0 = engine default)")
		archiveDir   = flag.String("archive", "", "copy segments the checkpoint chain retires into this directory before deleting (PITR)")
		lockTimeout  = flag.Duration("locktimeout", 0, "per-transaction lock-wait timeout (0 = wait forever)")
		retryKind    = flag.String("retry", "immediate", "retry policy: immediate or backoff")
		retries      = flag.Int("retries", 50, "max retries per interaction")
		retryBase    = flag.Duration("retry-base", 200*time.Microsecond, "backoff policy: first backoff step")
		retryCap     = flag.Duration("retry-cap", 20*time.Millisecond, "backoff policy: per-step cap")
		retryJitter  = flag.Float64("retry-jitter", 0.5, "backoff policy: jitter fraction in [0,1]")
		retryBudget  = flag.Duration("retry-budget", 0, "backoff policy: total backoff budget per interaction (0 = unlimited)")
		tracePath    = flag.String("trace", "", "write the transaction-lifecycle event trace to this JSONL file")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		open         = flag.Bool("open", false, "open-system driver: Poisson arrivals at -rate instead of -mpl closed loops")
		rate         = flag.Float64("rate", 10000, "-open: offered load in arrivals per second")
		admit        = flag.Bool("admission", false, "adaptive admission control in front of Begin (AIMD + abort-storm circuit breaker)")
		admitLimit   = flag.Int("admission-limit", 0, "admission: initial concurrency limit (0 = controller default)")
		admitQueue   = flag.Int("admission-queue", 0, "admission: wait-queue bound; Begins past it are shed (0 = controller default)")
		maxInFlight  = flag.Int("max-inflight", 0, "-open: driver backstop on concurrent virtual clients (0 = driver default)")
		txDeadline   = flag.Duration("deadline", 0, "per-transaction time budget; expiry aborts with the deadline reason (0 = none)")
		sharedRate   = flag.Float64("retry-shared-rate", 0, "shared retry budget: tokens/sec refill across all clients (0 = no shared budget)")
		sharedBurst  = flag.Float64("retry-shared-burst", 0, "shared retry budget: bucket capacity (default: refill rate)")
	)
	flag.Parse()

	if *listStrats {
		for _, s := range smallbank.Strategies() {
			sound := "sound on both platforms"
			switch {
			case s.Name == "SI":
				sound = "no serializability guarantee"
			case !s.SoundOn(core.PlatformPostgres):
				sound = "sound on commercial only"
			}
			fmt.Printf("%-22s %s\n", s.Name, sound)
		}
		return
	}

	strategy, err := smallbank.ByName(*strategyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smallbank:", err)
		os.Exit(2)
	}

	var engCfg engine.Config
	switch *platform {
	case "postgres":
		engCfg = experiments.PostgresDB(*scale)
	case "commercial":
		engCfg = experiments.CommercialDB(*scale)
	default:
		fmt.Fprintf(os.Stderr, "smallbank: unknown platform %q\n", *platform)
		os.Exit(2)
	}
	switch *mode {
	case "si":
	case "2pl":
		engCfg.Mode = core.Strict2PL
	case "ssi":
		engCfg.Mode = core.SerializableSI
	default:
		fmt.Fprintf(os.Stderr, "smallbank: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if !strategy.SoundOn(engCfg.Platform) && strategy.GuaranteesSerializable() {
		fmt.Fprintf(os.Stderr, "warning: %s is NOT sound on %s (§II-C)\n", strategy.Name, engCfg.Platform)
	}

	if *crash {
		runCrashChaos(engCfg.Mode, engCfg.Platform, *crashCycles, *seed, *crashAsync, *crashSegSize)
		return
	}

	engCfg.WAL.PreallocBytes = *walPrealloc
	engCfg.CheckpointLogBytes = *ckptBytes
	engCfg.CheckpointChainMax = *ckptChain
	engCfg.ArchiveDir = *archiveDir

	var policy workload.RetryPolicy
	switch *retryKind {
	case "immediate":
		policy = workload.ImmediatePolicy{MaxRetries: *retries}
	case "backoff":
		policy = workload.BackoffPolicy{
			MaxRetries: *retries, Base: *retryBase, Cap: *retryCap,
			Jitter: *retryJitter, Budget: *retryBudget,
		}
	default:
		fmt.Fprintf(os.Stderr, "smallbank: unknown retry policy %q\n", *retryKind)
		os.Exit(2)
	}

	if *sharedRate > 0 {
		burst := *sharedBurst
		if burst <= 0 {
			burst = *sharedRate
		}
		policy = workload.BudgetedPolicy{Inner: policy, Budget: workload.NewRetryBudget(*sharedRate, burst)}
	}

	engCfg.LockWaitTimeout = *lockTimeout
	if *admit {
		acfg := admission.Config{}
		if *admitLimit > 0 {
			acfg.InitialLimit = *admitLimit
		}
		if *admitQueue > 0 {
			acfg.MaxQueue = *admitQueue
		}
		engCfg.Admission = &acfg
	}
	var faults *faultinject.Registry
	if *chaos {
		faults = faultinject.New(*seed)
		engCfg.Faults = faults
	}

	// The recorder is created disabled so the bulk load below does not
	// fill the rings; it is switched on for the workload run only.
	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.New(trace.Options{Disabled: true})
		engCfg.Tracer = rec
	}

	// Load on free hardware, then install the measured profile.
	measured := engCfg.Res
	engCfg.Res.VirtualCPUs = 0

	engCfg.AsyncCommit = *walAsync

	var dev *wal.SegmentLog
	if *walPath != "" {
		dev, err = wal.OpenSegmentLog(*walPath, *walSegSize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
		defer dev.Close()
		engCfg.WAL.Device = dev
	}

	var db *engine.DB
	if dev != nil && dev.Size() > 0 {
		// The log already holds a database image: rebuild it instead of
		// loading. The customer population is whatever the original run
		// loaded, so derive -customers from the recovered Account table.
		var rep *engine.RecoveryReport
		db, rep, err = engine.Recover(dev, engCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smallbank: recover:", err)
			os.Exit(1)
		}
		accounts := 0
		if err := db.ScanLatest(smallbank.TableAccount, func(core.Value, core.Record) bool {
			accounts++
			return true
		}); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
		*customers = accounts
		if *hotspot > *customers {
			*hotspot = *customers
		}
		fmt.Fprintf(os.Stderr,
			"recovered %s: %d segments, %d checkpoint rows, %d commits replayed, %d torn bytes truncated, CSN %d, %d customers\n",
			*walPath, rep.Log.Segments, rep.CheckpointRows, rep.ReplayedCommits, rep.Log.TornBytes, rep.HighCSN, *customers)
	} else {
		db = engine.Open(engCfg)
		if err := smallbank.CreateSchema(db); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "loading %d customers...\n", *customers)
		if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: *customers, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
	}
	defer db.Close()
	db.SetResources(measured)
	// Armed after the bulk load: the loader's big batch transactions
	// should not burn the measured run's per-transaction budget.
	if *txDeadline > 0 {
		db.SetDefaultTxDeadline(*txDeadline)
	}

	if *pprofAddr != "" {
		// Standard pprof endpoints plus the engine's transaction metrics
		// as an expvar, so `curl host/debug/vars` shows live counters.
		expvar.Publish("sicost_txn_metrics", expvar.Func(func() any { return db.TxnMetrics() }))
		// Durability-lag gauge: how far published commits run ahead of the
		// device (always 0 in sync mode once quiescent; the async mode's
		// exposure window otherwise), plus the raw flush/sync counters.
		expvar.Publish("sicost_wal", expvar.Func(func() any {
			durable, commit := db.DurableSeq(), db.CommitSeq()
			return map[string]any{
				"CommitSeq":     commit,
				"DurableSeq":    durable,
				"DurabilityLag": commit - durable,
				"Stats":         db.WAL().Stats(),
				// Fuzzy-checkpoint gauges: chain shape, dirty-set size,
				// cumulative commit-barrier pause (see OBSERVABILITY.md §9).
				"Checkpoint": db.CheckpointStats(),
			}
		}))
		if lim := db.Admission(); lim != nil {
			// Live admission gauges: concurrency limit, queue depth, shed
			// and deadline-expired counts, breaker state (see
			// OBSERVABILITY.md, sicost_admission).
			expvar.Publish("sicost_admission", expvar.Func(func() any { return lim.Stats() }))
		}
		go func() {
			fmt.Fprintf(os.Stderr, "pprof/expvar: http://%s/debug/pprof http://%s/debug/vars\n", *pprofAddr, *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "smallbank: pprof server:", err)
			}
		}()
	}

	// A violation verdict fails the run only when the configuration
	// promises serializable executions: 2PL and SSI always, plain SI only
	// under a sound serializable strategy (§II-C). Under bare SI the
	// anomalies ARE the experiment. Faults must never change that.
	expectSer := engCfg.Mode != core.SnapshotFUW ||
		(strategy.GuaranteesSerializable() && strategy.SoundOn(engCfg.Platform))
	var ochk *onlinecheck.Checker
	if *check {
		// The online windowed checker rides the run's live trace stream
		// (in chaos mode too: RunChaos gates on its verdict). Under 2PL
		// reads legitimately see versions newer than the begin point, so
		// the SI read/write rules only apply to the snapshot-based modes.
		ochk = onlinecheck.New(onlinecheck.Config{SIRules: engCfg.Mode != core.Strict2PL})
		if *pprofAddr != "" {
			expvar.Publish("sicost_onlinecheck", expvar.Func(func() any { return ochk.Stats() }))
		}
	}

	mix := workload.UniformMix()
	if *balMix > 0 {
		mix = workload.BalanceHeavyMix(*balMix)
	} else if *chaos {
		// Leave the mix to RunChaos: its default excludes WriteCheck so
		// the balance-conservation invariant is exactly checkable.
		mix = workload.Mix{}
	}
	if !*open {
		fmt.Fprintf(os.Stderr, "running %s on %s/%s: MPL %d, hotspot %d/%d, %v+%v...\n",
			strategy.Name, *platform, *mode, *mpl, *hotspot, *customers, *ramp, *measure)
	} else {
		fmt.Fprintf(os.Stderr, "running %s on %s/%s (open system)...\n", strategy.Name, *platform, *mode)
	}

	cfg := workload.Config{
		Strategy: strategy, MPL: *mpl, Customers: *customers,
		HotspotSize: *hotspot, HotspotProb: *hotProb, Mix: mix,
		Ramp: *ramp, Measure: *measure, Seed: *seed,
		MaxRetries: *retries, Retry: policy,
		Check: ochk,
	}

	rec.SetEnabled(true) // no-op when -trace is unset (nil recorder)

	if *open {
		if *chaos {
			fmt.Fprintln(os.Stderr, "smallbank: -open and -chaos are mutually exclusive")
			os.Exit(2)
		}
		runOpenSystem(db, openRun{
			cfg: workload.OpenConfig{
				Strategy: strategy, Rate: *rate, Customers: *customers,
				HotspotSize: *hotspot, HotspotProb: *hotProb, Mix: mix,
				Ramp: *ramp, Measure: *measure, Seed: *seed,
				MaxRetries: *retries, Retry: policy,
				MaxInFlight: *maxInFlight,
				Check:       ochk,
			},
			policy:    policy,
			rec:       rec,
			tracePath: *tracePath,
			expectSer: expectSer,
		})
		return
	}

	var res *workload.Result
	var chaosRep *workload.ChaosReport
	if *chaos {
		chaosRep, err = workload.RunChaos(db, cfg, workload.ChaosConfig{
			Specs:              workload.DefaultFaultPlan(),
			Check:              *check,
			ExpectSerializable: expectSer && *check,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
		res = chaosRep.Result
	} else {
		res, err = workload.Run(db, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("throughput: %.1f TPS (%d commits, %d aborts in %v)\n",
		res.TPS, res.Commits, res.Aborts, res.Measured)
	fmt.Printf("mean response time: %v\n\n", res.MeanLatency.Round(time.Microsecond))
	fmt.Printf("%-18s %10s %10s %10s %10s %12s %10s\n",
		"type", "commits", "serial", "deadlock", "app", "abort-rate", "p95")
	for t := 0; t < smallbank.NumTxnTypes; t++ {
		st := &res.PerType[t]
		fmt.Printf("%-18s %10d %10d %10d %10d %11.2f%% %10v\n",
			smallbank.TxnType(t).String(), st.Commits,
			st.Aborts[core.AbortSerialization], st.Aborts[core.AbortDeadlock],
			st.Aborts[core.AbortApplication],
			100*st.SerializationAbortRate(),
			st.Latency.Quantile(0.95).Round(time.Microsecond))
	}
	fmt.Printf("\nretries: %d (backoff time %v, give-ups %d, policy %s)\n",
		res.Retries, res.BackoffTime.Round(time.Microsecond), res.GiveUps, policy.Name())

	if *walAsync {
		// Quiesce the async tail so the stats and the checkpoint below
		// cover every published commit.
		db.WAL().Drain()
	}
	ws := db.WAL().Stats()
	fmt.Printf("WAL: %d flushes, %d syncs, %d records (avg batch %.1f, %.1f commits/sync), %d bytes\n",
		ws.Flushes, ws.Syncs, ws.Records, ws.AvgBatch(), ws.CommitsPerSync(), ws.Bytes)
	if *walAsync {
		fmt.Printf("async commit: durable CSN %d / committed CSN %d after drain\n",
			db.DurableSeq(), db.CommitSeq())
	}
	if dev != nil {
		// Seal the run with one more link — an incremental one when the
		// scheduler ran, else a full re-root that retires the covered
		// segments — and report the chain the next -wal run will fold.
		ckpt := db.Checkpoint
		if *ckptBytes > 0 {
			ckpt = db.CheckpointIncremental
		}
		csn, err := ckpt()
		if err != nil {
			fmt.Fprintln(os.Stderr, "smallbank: checkpoint:", err)
			os.Exit(1)
		}
		cs := db.CheckpointStats()
		ws = db.WAL().Stats()
		fmt.Printf("checkpoint: CSN %d, chain %d links (%d full re-roots of %d total), %d bytes live in %s\n",
			csn, cs.ChainLinks, cs.FullLinks, cs.Links, dev.Size(), *walPath)
		fmt.Printf("checkpoint pauses: %v total (%v last); retired %d segments, archived %d\n",
			time.Duration(cs.PauseNS).Round(time.Microsecond),
			time.Duration(cs.LastPauseNS).Round(time.Microsecond),
			ws.RetiredSegments, ws.ArchivedSegments)
	}

	lc := res.Contention.Lock
	maxStripe, maxWaits := 0, uint64(0)
	for i, w := range lc.PerStripeWaits {
		if w > maxWaits {
			maxStripe, maxWaits = i, w
		}
	}
	fmt.Printf("locks: %d stripes, %d fast-path, %d waits (%v blocked), %d deadlock victims",
		lc.Stripes, lc.FastPath, lc.Waits, lc.WaitTime.Round(time.Microsecond), lc.Deadlocks)
	if lc.Waits > 0 {
		fmt.Printf("; hottest stripe %d (%d waits)", maxStripe, maxWaits)
	}
	fmt.Printf("\ncommit sequencer: %d publish waits\n", res.Contention.CommitPublishWaits)

	eng := res.Engine
	fmt.Printf("\nengine aborts by taxonomy reason (attribution %.1f%%):\n", 100*res.AbortAttribution())
	for r := core.AbortNone + 1; r <= core.AbortOther; r++ {
		if n := eng.Aborts[r]; n > 0 {
			fmt.Printf("  %-15s %d\n", r, n)
		}
	}
	if eng.Aborts.Total() == 0 {
		fmt.Println("  (none)")
	}
	if w := eng.LockWait; w.Count > 0 {
		fmt.Printf("lock-wait histogram: %d waits, mean %v, p95 %v, max %v\n",
			w.Count, w.Mean().Round(time.Microsecond),
			w.Quantile(0.95).Round(time.Microsecond), w.Max().Round(time.Microsecond))
	}
	if c := eng.CommitLatency; c.Count > 0 {
		fmt.Printf("commit latency: %d updating commits, mean %v, p95 %v, max %v\n",
			c.Count, c.Mean().Round(time.Microsecond),
			c.Quantile(0.95).Round(time.Microsecond), c.Max().Round(time.Microsecond))
	}

	if rec != nil {
		rec.SetEnabled(false)
		// With -check attached, the run's subscription consumed the rings
		// and handed the delivered stream back via Result.TraceEvents;
		// only post-run events (the checkpoint) are still in the rings.
		events := append(res.TraceEvents, rec.Drain()...)
		if err := writeTrace(events, rec.Dropped(), *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
	}

	if res.Check != nil {
		fmt.Printf("\nonline check: %s", res.Check.Describe())
		st := res.Check.Stats
		fmt.Printf("online window: %d events, peak %d committed + %d in-flight, %d retired, watermark %d\n",
			st.Events, st.MaxWindow, st.MaxPending, st.Retired, st.Watermark)
		// In chaos mode RunChaos applies the same gate as an invariant
		// violation.
		if chaosRep == nil {
			failCheck(res.Check, expectSer)
		}
	}

	if chaosRep != nil {
		fmt.Printf("\nchaos: %d faults fired\n", chaosRep.Fired())
		for _, fs := range chaosRep.FaultStats {
			fmt.Printf("  %-26s %-6s %8d hits %8d fired\n", fs.Point, fs.Action, fs.Hits, fs.Fired)
		}
		if chaosRep.ConservationChecked {
			fmt.Printf("conservation: initial %d %+d committed = %d final\n",
				chaosRep.InitialTotal, res.CommittedDelta, chaosRep.FinalTotal)
		} else {
			fmt.Println("conservation: not checked (WriteCheck in mix)")
		}
		fmt.Printf("lock audit: %d held, %d queued\n", chaosRep.HeldLocks, chaosRep.QueuedLocks)
		if !chaosRep.OK() {
			fmt.Println("\nINVARIANT VIOLATIONS:")
			for _, v := range chaosRep.Violations {
				fmt.Println("  -", v)
			}
			os.Exit(1)
		}
		fmt.Println("invariants: all held")
	}
}

// openRun bundles the open-system mode's configuration.
type openRun struct {
	cfg       workload.OpenConfig
	policy    workload.RetryPolicy
	rec       *trace.Recorder
	tracePath string
	expectSer bool
}

// runOpenSystem drives one open-system run and prints the overload
// accounting: goodput against offered load, shed/deadline/drop
// attribution, response-time quantiles and the admission controller's
// state. It exits non-zero on an admission-gate leak (a waiter or slot
// surviving the run) or on a checker violation the configuration
// promised could not happen — the assertions `make overload` relies on.
func runOpenSystem(db *engine.DB, r openRun) {
	fmt.Fprintf(os.Stderr, "open-system run: %.0f arrivals/s offered, hotspot %d/%d, %v+%v...\n",
		r.cfg.Rate, r.cfg.HotspotSize, r.cfg.Customers, r.cfg.Ramp, r.cfg.Measure)

	res, err := workload.RunOpen(db, r.cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smallbank:", err)
		os.Exit(1)
	}

	offered := float64(res.Arrivals) / res.Measured.Seconds()
	fmt.Printf("offered: %.1f/s (%d arrivals), goodput: %.1f TPS (%d commits, %d aborts in %v)\n",
		offered, res.Arrivals, res.Goodput, res.Commits, res.Aborts, res.Measured)
	fmt.Printf("overload: %d shed, %d deadline-expired, %d dropped at driver backstop, peak %d in flight\n",
		res.Shed, res.DeadlineExpired, res.Dropped, res.InFlightPeak)
	fmt.Printf("retries: %d, give-ups %d (%d by shared budget, policy %s)\n",
		res.Retries, res.GiveUps, res.BudgetGiveUps, r.policy.Name())
	if res.Latency.Count > 0 {
		fmt.Printf("response time: mean %v, p50 %v, p95 %v, p99 %v\n",
			res.Latency.Mean().Round(time.Microsecond),
			res.Latency.Quantile(0.50).Round(time.Microsecond),
			res.Latency.Quantile(0.95).Round(time.Microsecond),
			res.Latency.Quantile(0.99).Round(time.Microsecond))
	}
	fmt.Println("\naborts by taxonomy reason:")
	printed := false
	for rr := core.AbortNone + 1; rr <= core.AbortOther; rr++ {
		if n := res.AbortsByReason[rr]; n > 0 {
			fmt.Printf("  %-15s %d\n", rr, n)
			printed = true
		}
	}
	if !printed {
		fmt.Println("  (none)")
	}

	if lim := db.Admission(); lim != nil {
		st := lim.Stats()
		fmt.Printf("\nadmission: limit %d, breaker %s (%d trips, %d grows, %d shrinks)\n",
			st.Gate.Limit, st.Breaker, st.Trips, st.Grows, st.Shrinks)
		fmt.Printf("admission gate: %d admitted, %d queued (avg wait %v), %d shed, %d expired in queue\n",
			st.Gate.Admitted, st.Gate.Queued, st.Gate.AvgWait.Round(time.Microsecond),
			st.Gate.Shed, st.Gate.Expired)
		// The leak assertion: after RunOpen returns, every virtual client
		// has finished, so a held slot or queued waiter is a bug.
		if st.Gate.InFlight != 0 || st.Gate.QueueDepth != 0 {
			fmt.Fprintf(os.Stderr, "smallbank: admission gate leak: %d in flight, %d queued after drain\n",
				st.Gate.InFlight, st.Gate.QueueDepth)
			os.Exit(1)
		}
	}

	ws := db.WAL().Stats()
	fmt.Printf("\nWAL: %d flushes, %d syncs, %d records (avg batch %.1f), %d bytes\n",
		ws.Flushes, ws.Syncs, ws.Records, ws.AvgBatch(), ws.Bytes)

	if r.rec != nil {
		r.rec.SetEnabled(false)
		events := append(res.TraceEvents, r.rec.Drain()...)
		if err := writeTrace(events, r.rec.Dropped(), r.tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
	}

	if res.Check != nil {
		fmt.Printf("\nonline check: %s", res.Check.Describe())
		failCheck(res.Check, r.expectSer)
	}
}

// failCheck exits non-zero when the online verdict fails its gate: any
// event dropped on the way to the checker, or — when the configuration
// promises serializable executions — a cycle or SI-rule violation.
func failCheck(rep *onlinecheck.Report, expectSer bool) {
	if rep.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "smallbank: online check incomplete: %d trace events dropped\n", rep.Dropped)
		os.Exit(1)
	}
	if expectSer && !rep.OK() {
		fmt.Fprintln(os.Stderr, "smallbank: online checker detected isolation violations")
		os.Exit(1)
	}
}

// runCrashChaos drives the crash/recover harness and prints the
// per-cycle durability audit. Exits non-zero if any cycle violates the
// durability contract.
func runCrashChaos(mode core.CCMode, platform core.Platform, cycles int, seed int64, async bool, segSize int64) {
	fmt.Fprintf(os.Stderr, "crash chaos: %d crash/recover cycles, mode %s, seed %d, async %v, segment size %d...\n",
		cycles, mode, seed, async, segSize)
	rep, err := workload.RunCrashChaos(workload.CrashChaosConfig{
		Mode: mode, Platform: platform, Cycles: cycles, Seed: seed,
		Async: async, SegmentSize: segSize,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smallbank:", err)
		os.Exit(1)
	}
	fmt.Printf("%5s %-22s %6s %8s %8s %6s %8s %8s %8s %5s %5s %5s\n",
		"cycle", "crash point", "fired", "commits", "aborts", "torn", "replayed", "highCSN", "durable", "segs", "ckpt", "chain")
	for _, c := range rep.Cycles {
		ckpt := ""
		if c.Checkpointed {
			ckpt = "yes"
		}
		chain := ""
		if c.ChainLinks > 0 {
			chain = fmt.Sprintf("%d", c.ChainLinks)
		}
		fmt.Printf("%5d %-22s %6d %8d %8d %6d %8d %8d %8d %5d %5s %5s\n",
			c.Cycle, c.Point, c.Fired, c.Commits, c.Aborts,
			c.TornBytes, c.ReplayedCommits, c.HighCSN, c.DurableSeq, c.Segments, ckpt, chain)
	}
	fmt.Printf("\ncrashes fired: %d/%d cycles\n", rep.CrashesFired(), len(rep.Cycles))
	fmt.Printf("conservation: initial %d %+d committed = %d final\n",
		rep.InitialTotal, rep.Ledger, rep.FinalTotal)
	fmt.Printf("post-chaos resume: %d commits\n", rep.ResumeCommits)
	if !rep.OK() {
		fmt.Println("\nDURABILITY VIOLATIONS:")
		for _, v := range rep.Violations {
			fmt.Println("  -", v)
		}
		os.Exit(1)
	}
	fmt.Println("durability contract: held across all cycles")
}

// writeTrace sanity-checks the captured stream against the lifecycle
// invariants and writes it as JSONL. Ring overflow is reported but is
// not an error (the trace just has gaps).
func writeTrace(events []trace.Event, dropped uint64, path string) error {
	// A complete stream must satisfy the strict lifecycle invariants;
	// with ring overflow, only the schema-level checks can hold.
	if err := trace.ValidateWith(events, trace.ValidateOptions{AllowGaps: dropped > 0}); err != nil {
		return fmt.Errorf("trace validation: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\ntrace: %d events -> %s", len(events), path)
	if dropped > 0 {
		fmt.Printf(" (%d dropped on ring overflow)", dropped)
	}
	fmt.Println()
	return nil
}
