// Package workload implements the paper's test driver (§IV): a closed
// system of MPL concurrent clients with no think time, each running
// randomly chosen SmallBank transactions against the engine — 90% of
// transactions on a hotspot region of the customer table — through a
// ramp-up period followed by a measurement interval, tracking commits,
// aborts (by reason) and response times per transaction type.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/metrics"
	"sicost/internal/onlinecheck"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
)

// Mix assigns a probability to each smallbank.TxnType; entries must sum
// to (approximately) 1.
type Mix [smallbank.NumTxnTypes]float64

// UniformMix runs the five transactions with equal probability (most
// experiments in the paper).
func UniformMix() Mix {
	var m Mix
	for i := range m {
		m[i] = 1.0 / float64(len(m))
	}
	return m
}

// BalanceHeavyMix runs Balance with probability pBal and splits the rest
// uniformly (the paper's high-contention experiment uses 60% Balance).
func BalanceHeavyMix(pBal float64) Mix {
	var m Mix
	m[smallbank.Balance] = pBal
	rest := (1 - pBal) / float64(len(m)-1)
	for i := 1; i < len(m); i++ {
		m[i] = rest
	}
	return m
}

// Validate checks the mix sums to 1.
func (m Mix) Validate() error {
	sum := 0.0
	for _, p := range m {
		if p < 0 {
			return fmt.Errorf("workload: negative mix probability %v", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: mix sums to %v, want 1", sum)
	}
	return nil
}

// pick draws a transaction type.
func (m Mix) pick(rng *rand.Rand) smallbank.TxnType {
	r := rng.Float64()
	acc := 0.0
	for i, p := range m {
		acc += p
		if r < acc {
			return smallbank.TxnType(i)
		}
	}
	return smallbank.TxnType(len(m) - 1)
}

// Config parameterizes one workload run.
type Config struct {
	Strategy *smallbank.Strategy
	// MPL is the multiprogramming level: the number of concurrent
	// clients.
	MPL int
	// Customers is the loaded table size (18000 in the paper).
	Customers int
	// HotspotSize is the number of customers in the hotspot (1000
	// normally, 10 for high contention).
	HotspotSize int
	// HotspotProb is the fraction of transactions addressing the
	// hotspot (0.9 in the paper).
	HotspotProb float64
	Mix         Mix
	// Ramp is discarded warm-up time; Measure is the measured interval.
	Ramp, Measure time.Duration
	Seed          int64
	// MaxRetries bounds how often one logical transaction is retried
	// after serialization/deadlock aborts before the client gives up
	// and moves on (each attempt's abort is still counted).
	MaxRetries int
	// Retry chooses the retry discipline. Nil means
	// ImmediatePolicy{MaxRetries} — the paper's closed-loop behaviour.
	Retry RetryPolicy
	// Check, when non-nil, subscribes this online windowed isolation
	// checker to the run's live trace stream: Run attaches it to the
	// database's lifecycle recorder (installing a private recorder when
	// none is configured) and finalizes its report into Result.Check
	// after the clients drain, with Report.Dropped set from the
	// recorder's overflow count. The caller constructs the checker so it
	// can also expose the live Stats (e.g. through expvar) while the
	// run is in flight.
	Check *onlinecheck.Checker
	// CheckInterval is the subscription pump period when Check is set
	// (0 means trace.DefaultSubInterval).
	CheckInterval time.Duration
}

func (c *Config) defaults() error {
	if c.Strategy == nil {
		c.Strategy = smallbank.StrategySI
	}
	if c.MPL <= 0 {
		return fmt.Errorf("workload: MPL must be positive")
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
	return nil
}

// TypeStats aggregates one transaction type's outcomes during the
// measurement interval.
type TypeStats struct {
	Commits int64
	// Aborts counts attempts that did not commit, by reason.
	Aborts map[core.AbortReason]int64
	// Retries counts re-attempts after retriable aborts.
	Retries int64
	// Backoff is total time spent sleeping between retries.
	Backoff time.Duration
	// GiveUps counts interactions abandoned when the retry policy
	// refused another attempt (retry or budget exhaustion).
	GiveUps int64
	// Latency is the client-perceived response-time distribution of
	// each completed interaction (including its retries and backoff).
	Latency metrics.HistSnapshot
}

// TotalAborts sums aborts across reasons.
func (s *TypeStats) TotalAborts() int64 {
	var n int64
	for _, v := range s.Aborts {
		n += v
	}
	return n
}

// SerializationAbortRate is the fraction of attempts of this type that
// failed with a serialization error — the quantity of the paper's
// Figure 6.
func (s *TypeStats) SerializationAbortRate() float64 {
	attempts := s.Commits + s.TotalAborts()
	if attempts == 0 {
		return 0
	}
	return float64(s.Aborts[core.AbortSerialization]) / float64(attempts)
}

// Result is the outcome of one workload run.
type Result struct {
	Config   Config
	Measured time.Duration
	Commits  int64
	Aborts   int64
	PerType  [smallbank.NumTxnTypes]TypeStats
	// TPS is committed transactions per second over the measurement
	// interval.
	TPS float64
	// MeanLatency is the mean committed-interaction response time.
	MeanLatency time.Duration
	// Retries, BackoffTime and GiveUps aggregate the retry discipline's
	// activity over the measurement interval.
	Retries     int64
	BackoffTime time.Duration
	GiveUps     int64
	// BudgetGiveUps is the subset of give-ups caused by the shared
	// retry budget refusing a token (Config.Retry is a BudgetedPolicy
	// whose bucket ran dry), counted over the whole run. These also
	// appear in GiveUps/PerType.GiveUps when they land in the
	// measurement interval.
	BudgetGiveUps int64
	// CommittedDelta is the net money movement of every committed
	// DepositChecking/TransactSaving over the whole run (ramp included):
	// the amount by which smallbank.TotalMoney should have changed when
	// the mix contains no WriteCheck (whose overdraft penalty the client
	// cannot observe). The chaos harness checks conservation against it.
	CommittedDelta int64
	// Contention is the engine's synchronization-counter delta over the
	// whole run (ramp included): lock fast-path/wait/deadlock counts,
	// blocked time, per-stripe wait skew, commit-sequencer waits.
	Contention engine.ContentionStats
	// Engine is the engine-side transaction-metrics delta over the whole
	// run (ramp included): commit count, the abort taxonomy, and the
	// lock-wait and commit-latency histograms. Commit-latency metering
	// is switched on for the run's duration by Run itself.
	Engine metrics.TxnSnapshot
	// Check is the online checker's finalized report when Config.Check
	// was set: the live serializability/SI verdict over the whole run
	// (ramp included) plus window and retirement statistics.
	Check *onlinecheck.Report
	// TraceEvents is the full trace stream the checker consumed, in
	// delivery order — populated only when Config.Check was set AND the
	// database already had a recorder installed (the subscription takes
	// over that recorder's single-consumer role, so callers that also
	// want the raw stream, e.g. cmd/smallbank -trace -check, read it
	// from here instead of draining the recorder themselves).
	TraceEvents []trace.Event
}

// AbortAttribution is the fraction of the run's engine-side aborts that
// carry a specific taxonomy reason (1 when there were none). The
// observability story treats ≥0.95 as healthy; below that, aborts are
// escaping classification and the taxonomy needs a new class.
func (r *Result) AbortAttribution() float64 {
	return r.Engine.Aborts.AttributionRate()
}

// clientStats is each goroutine's private accumulator.
type clientStats struct {
	perType [smallbank.NumTxnTypes]TypeStats
	// ledger is the client's committed money movement over the whole
	// run (see Result.CommittedDelta).
	ledger int64
}

func newClientStats() *clientStats {
	cs := &clientStats{}
	for i := range cs.perType {
		cs.perType[i].Aborts = make(map[core.AbortReason]int64)
	}
	return cs
}

// Run executes the workload against db (already loaded via
// smallbank.Load with cfg.Customers customers).
func Run(db *engine.DB, cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}

	contBase := db.Contention()
	// Meter commit latency for the duration of the run (it is off by
	// default to keep the bare commit path clock-free), and snapshot the
	// engine metrics so Result.Engine is this run's delta.
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

	// The clock starts after instrumentation setup: allocating a private
	// recorder's rings is real work (notably under the race detector),
	// and it must not eat into the ramp or the measurement interval.
	start := time.Now()
	measureStart := start.Add(cfg.Ramp)
	deadline := measureStart.Add(cfg.Measure)

	var wg sync.WaitGroup
	stats := make([]*clientStats, cfg.MPL)
	// One response-time histogram per type, shared by every client.
	var latency [smallbank.NumTxnTypes]metrics.Histogram
	for c := 0; c < cfg.MPL; c++ {
		stats[c] = newClientStats()
		wg.Add(1)
		go func(id int, cs *clientStats) {
			defer wg.Done()
			db.Machine().EnterSession()
			defer db.Machine().LeaveSession()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			client(db, cfg, rng, cs, &latency, measureStart, deadline)
		}(c, stats[c])
	}
	wg.Wait()

	res := &Result{Config: cfg, Measured: cfg.Measure}
	if finishCheck != nil {
		res.Check, res.TraceEvents = finishCheck()
	}
	for i := range res.PerType {
		res.PerType[i].Aborts = make(map[core.AbortReason]int64)
	}
	for _, cs := range stats {
		res.CommittedDelta += cs.ledger
		for i := range cs.perType {
			res.PerType[i].Commits += cs.perType[i].Commits
			for r, n := range cs.perType[i].Aborts {
				res.PerType[i].Aborts[r] += n
			}
			res.PerType[i].Retries += cs.perType[i].Retries
			res.PerType[i].Backoff += cs.perType[i].Backoff
			res.PerType[i].GiveUps += cs.perType[i].GiveUps
		}
	}
	var latN, latSum uint64
	for i := range res.PerType {
		res.PerType[i].Latency = latency[i].Snapshot()
		latN += res.PerType[i].Latency.Count
		latSum += res.PerType[i].Latency.SumNanos
		res.Retries += res.PerType[i].Retries
		res.BackoffTime += res.PerType[i].Backoff
		res.GiveUps += res.PerType[i].GiveUps
		res.Commits += res.PerType[i].Commits
		res.Aborts += res.PerType[i].TotalAborts()
	}
	res.TPS = float64(res.Commits) / cfg.Measure.Seconds()
	if latN > 0 {
		res.MeanLatency = time.Duration(latSum / latN)
	}
	res.Contention = db.Contention().Delta(contBase)
	res.Engine = db.TxnMetrics().Delta(engineBase)
	if budget != nil {
		res.BudgetGiveUps = budget.Denied() - budgetBase
	}
	return res, nil
}

// client is one closed-system thread: run a transaction, wait for the
// reply, immediately start the next (§IV: "no think time"), or sleep
// first when the retry policy prescribes backoff.
func client(db *engine.DB, cfg Config, rng *rand.Rand, cs *clientStats, latency *[smallbank.NumTxnTypes]metrics.Histogram, measureStart, deadline time.Time) {
	for {
		now := time.Now()
		if now.After(deadline) {
			return
		}
		measuring := now.After(measureStart)

		typ := cfg.Mix.pick(rng)
		params := pickParams(cfg, rng, typ)

		begin := time.Now()
		committed := false
		var spentBackoff time.Duration
		for failures := 0; ; {
			err := runAttempt(db, cfg.Strategy, typ, params)
			if err == nil {
				committed = true
				cs.ledger += ledgerDelta(typ, params)
				if measuring {
					cs.perType[typ].Commits++
				}
				break
			}
			if measuring {
				cs.perType[typ].Aborts[core.ClassifyAbort(err)]++
			}
			if errors.Is(err, core.ErrShuttingDown) {
				return // database is draining; the client is done
			}
			if !core.IsRetriable(err) {
				break // application rollback or hard error: new params
			}
			failures++
			d, retry := cfg.Retry.Backoff(failures, spentBackoff, rng)
			if !retry {
				if measuring {
					cs.perType[typ].GiveUps++
				}
				break
			}
			if d > 0 {
				time.Sleep(d)
				spentBackoff += d
				if measuring {
					cs.perType[typ].Backoff += d
				}
			}
			if measuring {
				cs.perType[typ].Retries++
			}
			if time.Now().After(deadline) {
				return
			}
		}
		if committed && measuring {
			latency[typ].Record(time.Since(begin))
		}
	}
}

// runAttempt executes one smallbank attempt, converting an injected
// panic (faultinject.ActPanic) into an ordinary non-retriable error so
// chaos runs keep going; any other panic propagates.
func runAttempt(db *engine.DB, s *smallbank.Strategy, typ smallbank.TxnType, p smallbank.Params) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := faultinject.AsPanic(r)
			if !ok {
				panic(r)
			}
			err = f
		}
	}()
	return smallbank.Run(db, s, typ, p)
}

// ledgerDelta is the exact change a committed transaction makes to
// smallbank.TotalMoney: deposits add V, TransactSaving moves V (possibly
// negative) in or out, Balance/Amalgamate conserve. WriteCheck is the
// one program whose delta the client cannot know (the overdraft penalty
// depends on state it raced for), so conservation checks require a mix
// without it.
func ledgerDelta(typ smallbank.TxnType, p smallbank.Params) int64 {
	switch typ {
	case smallbank.DepositChecking, smallbank.TransactSaving:
		return p.V
	default:
		return 0
	}
}

// pickParams draws customers (90% hotspot by default) and an amount.
func pickParams(cfg Config, rng *rand.Rand, typ smallbank.TxnType) smallbank.Params {
	c1 := pickCustomer(cfg, rng)
	p := smallbank.Params{N1: smallbank.CustomerName(c1)}
	switch typ {
	case smallbank.Amalgamate:
		c2 := pickCustomer(cfg, rng)
		for c2 == c1 {
			c2 = pickCustomer(cfg, rng)
		}
		p.N2 = smallbank.CustomerName(c2)
	case smallbank.DepositChecking:
		p.V = 1 + rng.Int63n(100_00)
	case smallbank.TransactSaving:
		// Mostly deposits with occasional withdrawals, so application
		// rollbacks (negative balance) stay rare.
		p.V = rng.Int63n(200_00) - 50_00
	case smallbank.WriteCheck:
		p.V = 1 + rng.Int63n(50_00)
	}
	return p
}

// pickCustomer draws from the hotspot with cfg.HotspotProb, else
// uniformly from the remainder of the table (§IV).
func pickCustomer(cfg Config, rng *rand.Rand) int {
	if rng.Float64() < cfg.HotspotProb {
		return rng.Intn(cfg.HotspotSize)
	}
	if cfg.Customers == cfg.HotspotSize {
		return rng.Intn(cfg.HotspotSize)
	}
	return cfg.HotspotSize + rng.Intn(cfg.Customers-cfg.HotspotSize)
}
