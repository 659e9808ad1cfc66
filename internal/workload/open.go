package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/metrics"
	"sicost/internal/onlinecheck"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
)

// OpenConfig parameterizes an open-system run: instead of MPL clients
// in a closed loop, transactions arrive as a Poisson process at an
// offered rate, each served by its own virtual client. The number of
// in-flight clients is unbounded (up to MaxInFlight, a memory
// backstop), which is exactly what makes overload *visible*: past
// saturation the closed driver just slows its clients down, while the
// open driver keeps offering load and the backlog — queueing delay,
// abort storms, goodput decline — lands on the engine. Pair with
// engine.Config.Admission to measure the peak-then-decline curve
// flattening into a plateau.
type OpenConfig struct {
	Strategy *smallbank.Strategy
	// Rate is the offered load in arrivals per second (Poisson).
	Rate float64
	// Customers, HotspotSize, HotspotProb and Mix are as in Config.
	Customers   int
	HotspotSize int
	HotspotProb float64
	Mix         Mix
	// Ramp is discarded warm-up time; Measure is the measured interval
	// (an interaction is attributed to the window its arrival fell in).
	Ramp, Measure time.Duration
	Seed          int64
	// MaxRetries and Retry are the per-interaction retry discipline,
	// as in Config. Under overload, pair with a BudgetedPolicy so
	// retries cannot amplify the offered rate past the budget.
	MaxRetries int
	Retry      RetryPolicy
	// MaxInFlight caps concurrent virtual clients; arrivals past the
	// cap are dropped client-side and counted in OpenResult.Dropped
	// (default 16384). This is a driver memory backstop, not admission
	// control — the engine's gate is Config.Admission.
	MaxInFlight int
	// Check and CheckInterval attach the online isolation checker to
	// the run's trace stream, as in Config.
	Check         *onlinecheck.Checker
	CheckInterval time.Duration
}

func (c *OpenConfig) defaults() error {
	if c.Strategy == nil {
		c.Strategy = smallbank.StrategySI
	}
	if c.Rate <= 0 {
		return fmt.Errorf("workload: offered rate must be positive")
	}
	if c.Customers <= 1 {
		return fmt.Errorf("workload: need at least 2 customers")
	}
	if c.HotspotSize <= 1 || c.HotspotSize > c.Customers {
		return fmt.Errorf("workload: hotspot size %d out of range", c.HotspotSize)
	}
	if c.HotspotProb < 0 || c.HotspotProb > 1 {
		return fmt.Errorf("workload: hotspot probability %v out of range", c.HotspotProb)
	}
	var zero Mix
	if c.Mix == zero {
		c.Mix = UniformMix()
	}
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.Measure <= 0 {
		return fmt.Errorf("workload: measurement interval must be positive")
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 50
	}
	if c.Retry == nil {
		c.Retry = ImmediatePolicy{MaxRetries: c.MaxRetries}
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16384
	}
	return nil
}

// OpenResult is the outcome of one open-system run. All interaction
// counters cover the measurement window (attribution by arrival time);
// CommittedDelta, Engine and Check cover the whole run.
type OpenResult struct {
	Config   OpenConfig
	Measured time.Duration
	// Arrivals counts measured arrivals; Dropped the subset discarded
	// client-side at the MaxInFlight backstop.
	Arrivals int64
	Dropped  int64
	// Commits and Aborts count attempts; AbortsByReason attributes the
	// aborts. Shed and DeadlineExpired are the subsets of interactions
	// whose *final* verdict was ErrOverload / ErrTxDeadline.
	Commits         int64
	Aborts          int64
	AbortsByReason  map[core.AbortReason]int64
	Shed            int64
	DeadlineExpired int64
	// Retries, GiveUps and BudgetGiveUps are as in Result.
	Retries       int64
	GiveUps       int64
	BudgetGiveUps int64
	// Goodput is committed interactions per second over the window.
	Goodput float64
	// Latency is the response-time distribution of committed
	// interactions (arrival to commit, retries and backoff included).
	Latency metrics.HistSnapshot
	// InFlightPeak is the high-water mark of concurrent virtual
	// clients — the effective MPL the offered rate induced.
	InFlightPeak int64
	// CommittedDelta is as in Result (whole run, for conservation).
	CommittedDelta int64
	// Engine is the engine-side metrics delta over the whole run.
	Engine metrics.TxnSnapshot
	// Check is the online checker's report when Config.Check was set.
	Check *onlinecheck.Report
	// TraceEvents is the full trace stream the checker consumed, in
	// delivery order, when the caller's own recorder was reused (as in
	// Result.TraceEvents).
	TraceEvents []trace.Event
}

// openCounters is the run's shared accounting; everything atomic
// because virtual clients finish at arbitrary times.
type openCounters struct {
	arrivals, dropped      atomic.Int64
	commits                atomic.Int64
	abortsByReason         [metrics.NumAbortReasons]atomic.Int64
	shed, deadlineExpired  atomic.Int64
	retries, giveUps       atomic.Int64
	ledger                 atomic.Int64
	inFlight, inFlightPeak atomic.Int64
	latency                metrics.Histogram
}

// RunOpen executes an open-system run against db (already loaded via
// smallbank.Load with cfg.Customers customers). It returns after the
// offered-load window closes and every in-flight virtual client has
// finished or given up.
func RunOpen(db *engine.DB, cfg OpenConfig) (*OpenResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}

	db.SetMetricsEnabled(true)
	defer db.SetMetricsEnabled(false)
	engineBase := db.TxnMetrics()
	var budget *RetryBudget
	var budgetBase int64
	if bp, ok := cfg.Retry.(BudgetedPolicy); ok && bp.Budget != nil {
		budget = bp.Budget
		budgetBase = budget.Denied()
	}

	var finishCheck func() (*onlinecheck.Report, []trace.Event)
	if cfg.Check != nil {
		finishCheck = attachCheck(db, cfg.Check, cfg.CheckInterval)
	}

	ctr := &openCounters{}
	start := time.Now()
	measureStart := start.Add(cfg.Ramp)
	end := measureStart.Add(cfg.Measure)

	// The arrival process: exponential inter-arrival gaps accumulated
	// from the start, so timer jitter does not drift the offered rate.
	arrRng := rand.New(rand.NewSource(cfg.Seed))
	var wg sync.WaitGroup
	next := start
	for id := int64(0); ; id++ {
		gap := arrRng.ExpFloat64() / cfg.Rate
		next = next.Add(time.Duration(gap * float64(time.Second)))
		if next.After(end) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		measuring := next.After(measureStart)
		if measuring {
			ctr.arrivals.Add(1)
		}
		// Client-side backstop: past MaxInFlight the arrival is dropped
		// on the floor (it never touches the engine).
		n := ctr.inFlight.Add(1)
		if n > int64(cfg.MaxInFlight) {
			ctr.inFlight.Add(-1)
			if measuring {
				ctr.dropped.Add(1)
			}
			continue
		}
		for {
			peak := ctr.inFlightPeak.Load()
			if n <= peak || ctr.inFlightPeak.CompareAndSwap(peak, n) {
				break
			}
		}
		wg.Add(1)
		go func(id int64, arrived time.Time, measuring bool) {
			defer wg.Done()
			defer ctr.inFlight.Add(-1)
			rng := rand.New(rand.NewSource(cfg.Seed + 1 + id*7919))
			openInteraction(db, cfg, rng, ctr, arrived, measuring, end)
		}(id, next, measuring)
	}
	wg.Wait()

	res := &OpenResult{Config: cfg, Measured: cfg.Measure}
	if finishCheck != nil {
		res.Check, res.TraceEvents = finishCheck()
	}
	res.Arrivals = ctr.arrivals.Load()
	res.Dropped = ctr.dropped.Load()
	res.Commits = ctr.commits.Load()
	res.AbortsByReason = make(map[core.AbortReason]int64)
	for i := range ctr.abortsByReason {
		if n := ctr.abortsByReason[i].Load(); n > 0 {
			res.AbortsByReason[core.AbortReason(i)] = n
			res.Aborts += n
		}
	}
	res.Shed = ctr.shed.Load()
	res.DeadlineExpired = ctr.deadlineExpired.Load()
	res.Retries = ctr.retries.Load()
	res.GiveUps = ctr.giveUps.Load()
	res.Goodput = float64(res.Commits) / cfg.Measure.Seconds()
	res.Latency = ctr.latency.Snapshot()
	res.InFlightPeak = ctr.inFlightPeak.Load()
	res.CommittedDelta = ctr.ledger.Load()
	res.Engine = db.TxnMetrics().Delta(engineBase)
	if budget != nil {
		res.BudgetGiveUps = budget.Denied() - budgetBase
	}
	return res, nil
}

// openInteraction is one virtual client: a session for the duration of
// one logical interaction, retried under the policy. Counters are only
// touched when the arrival fell in the measurement window; hardStop
// bounds retries so the run terminates even when every attempt fails.
func openInteraction(db *engine.DB, cfg OpenConfig, rng *rand.Rand, ctr *openCounters, arrived time.Time, measuring bool, hardStop time.Time) {
	db.Machine().EnterSession()
	defer db.Machine().LeaveSession()

	c := Config{Customers: cfg.Customers, HotspotSize: cfg.HotspotSize, HotspotProb: cfg.HotspotProb}
	typ := cfg.Mix.pick(rng)
	params := pickParams(c, rng, typ)

	var spentBackoff time.Duration
	var lastErr error
	for failures := 0; ; {
		err := runAttempt(db, cfg.Strategy, typ, params)
		if err == nil {
			ctr.ledger.Add(ledgerDelta(typ, params))
			if measuring {
				ctr.commits.Add(1)
				ctr.latency.Record(time.Since(arrived))
			}
			return
		}
		lastErr = err
		if measuring {
			r := core.ClassifyAbort(err)
			i := int(r)
			if i < 0 || i >= len(ctr.abortsByReason) {
				i = int(core.AbortOther)
			}
			ctr.abortsByReason[i].Add(1)
		}
		if errors.Is(err, core.ErrShuttingDown) {
			return
		}
		if !core.IsRetriable(err) {
			break
		}
		failures++
		d, retry := cfg.Retry.Backoff(failures, spentBackoff, rng)
		if !retry || time.Now().After(hardStop) {
			if measuring {
				ctr.giveUps.Add(1)
			}
			break
		}
		if d > 0 {
			time.Sleep(d)
			spentBackoff += d
		}
		if measuring {
			ctr.retries.Add(1)
		}
	}
	if measuring && lastErr != nil {
		switch {
		case errors.Is(lastErr, core.ErrOverload):
			ctr.shed.Add(1)
		case errors.Is(lastErr, core.ErrTxDeadline):
			ctr.deadlineExpired.Add(1)
		}
	}
}
