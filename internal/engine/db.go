// Package engine implements the transactional database engines the paper
// evaluates on: snapshot isolation with the First-Updater-Wins rule (the
// PostgreSQL platform), the commercial platform's SI variant (where
// SELECT ... FOR UPDATE participates in write-conflict detection), strict
// two-phase locking, and — as a forward-looking extension — serializable
// SI (runtime rw-antidependency detection).
//
// The engine is an in-memory multiversion system over internal/storage.
// Simulated hardware costs (CPU service time, WAL fsyncs with group
// commit) are charged at the points where the real systems pay them, so
// the workload driver reproduces the paper's throughput shapes.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/metrics"
	"sicost/internal/simres"
	"sicost/internal/storage"
	"sicost/internal/trace"
	"sicost/internal/wal"
)

// Fault-point names of the engine's hot paths. Points past the commit
// point (CSN allocation and publication) are delay-only: an injected
// error there could not be rolled back without acknowledging a lie, so
// only stalls are honoured (see faultinject.FireDelayOnly).
const (
	// FaultBegin fires when a transaction starts, before its snapshot
	// is taken. An injected error poisons the handle (every statement
	// and the commit return it); a delay stalls the snapshot point.
	FaultBegin = "engine/begin"
	// FaultLockAcquire fires before every row-lock acquisition (the
	// 2PL read path and the write/select-for-update paths of every
	// mode).
	FaultLockAcquire = "engine/lock/acquire"
	// FaultCommitStamp fires at the head of an updating commit's
	// stamping phase, before the CSN is allocated — the last point
	// where the commit can still abort cleanly (locks released,
	// versions unlinked).
	FaultCommitStamp = "engine/commit/stamp"
	// FaultCSNAlloc fires inside CSN allocation (delay-only): a stall
	// here backs up every concurrent committer behind the sequencer.
	FaultCSNAlloc = "engine/commit/csn-alloc"
	// FaultCSNPublish fires after the commit's CSN is published but
	// before its locks release (delay-only): a stall here holds row
	// locks across an already-visible commit, the regime FUW waiters
	// suffer under a slow committer.
	FaultCSNPublish = "engine/commit/csn-publish"
)

// Config assembles one database instance.
type Config struct {
	// Mode selects the concurrency-control algorithm.
	Mode core.CCMode
	// Platform selects behavioural details (select-for-update semantics,
	// cost model defaults) for SI modes.
	Platform core.Platform
	// Res parameterizes the simulated machine; zero disables the model.
	Res simres.Config
	// WAL parameterizes the simulated log device; zero disables it.
	WAL wal.Config
	// AsyncCommit makes Commit return as soon as the commit is
	// published, without waiting for its WAL record to reach the platter
	// (PostgreSQL's synchronous_commit=off). The commit is visible to
	// other transactions immediately; durability arrives later and can
	// be awaited via Tx.Durable or DB.WaitDurable. A crash may lose the
	// tail of acknowledged-but-not-yet-durable commits — never a commit
	// whose durability future has resolved. Per-transaction override:
	// Tx.SetAsync.
	AsyncCommit bool
	// Cost overrides the per-strategy statement penalties; when zero,
	// platform defaults apply (see DefaultCostModel).
	Cost *CostModel
	// LockWaitTimeout bounds every row-lock wait; a wait that exceeds
	// it fails with core.ErrLockTimeout (retriable). Zero waits
	// forever. Transactions can override per-handle with
	// Tx.SetLockWaitTimeout.
	LockWaitTimeout time.Duration
	// Admission, when non-nil, puts an adaptive concurrency gate in
	// front of Begin: at most limit transactions execute at once, up
	// to MaxQueue more wait FIFO, and the rest are shed with
	// core.ErrOverload. An AIMD controller moves the limit from
	// commit-latency and abort-attribution deltas; enabling admission
	// therefore also enables commit-latency metering (two clock reads
	// per updating commit — see SetMetricsEnabled).
	Admission *admission.Config
	// DefaultTxDeadline, when positive, stamps every transaction with
	// deadline = Begin time + DefaultTxDeadline. The deadline is
	// honoured in the admission queue, between statements, in lock
	// waits (bounding them alongside LockWaitTimeout) and in the
	// sync-commit WAL flush-group wait; expiry fails the transaction
	// with core.ErrTxDeadline (classified AbortDeadline). Transactions
	// can override per-handle with Tx.SetDeadline.
	DefaultTxDeadline time.Duration
	// CheckpointLogBytes, when positive, runs a background scheduler
	// that takes a fuzzy incremental checkpoint (CheckpointIncremental)
	// whenever the log has grown by at least this many bytes since the
	// last checkpoint. Requires a durable device; ignored otherwise.
	CheckpointLogBytes int64
	// CheckpointChainMax bounds the delta chain: every
	// CheckpointChainMax-th link is written as a full (base-0) link,
	// re-rooting the chain and advancing the segment-retirement bound.
	// Zero means DefaultCheckpointChainMax.
	CheckpointChainMax int
	// ArchiveDir, when non-empty, copies each segment the checkpoint
	// chain retires there before the unlink — the point-in-time-recovery
	// source.
	ArchiveDir string
	// Faults is the fault-injection registry consulted by the engine,
	// storage and WAL fault points; nil (the default) compiles every
	// hook down to a pointer test.
	Faults *faultinject.Registry
	// Tracer records transaction-lifecycle events (internal/trace); nil
	// (the default) compiles every emission point down to a pointer
	// test, and a disabled recorder costs one extra atomic load.
	Tracer *trace.Recorder
}

// WaitObserver is the engine's step-yield hook: it is told whenever a
// transaction blocks on a row lock (the FUW and 2PL wait paths) and
// whenever a blocked transaction is resolved — woken with the lock
// granted (err == nil) or ejected because it aborted while queued
// (err != nil). Wake notifications fire synchronously inside the
// operation that causes them (a commit, abort or failed statement of
// another transaction), before that operation returns, so a scripted
// scheduler (internal/detsim) can drive transactions through exact
// statement-level interleavings without wall-clock grace periods.
// Callbacks run with the lock table's mutex held: they must be quick and
// must not call back into the database.
type WaitObserver interface {
	OnTxWait(txID uint64, table string, key core.Value)
	OnTxWake(txID uint64, table string, key core.Value, err error)
}

// DB is one simulated database instance.
type DB struct {
	cfg     Config
	cost    CostModel
	store   *storage.Store
	locks   *storage.LockTable
	log     *wal.WAL
	machine *simres.Machine

	// Commit sequencing. The old design held one RWMutex across the
	// whole stamping loop (every snapshot blocked behind every commit);
	// the sequencer now has two short phases. allocCSNEnqueue hands out the
	// next CSN under seqMu; the committer stamps its versions with no
	// global lock held (write conflicts are already excluded per row by
	// the sharded lock table — the stamped rows are X-locked by this
	// transaction); publishCSN then advances visibleCSN in CSN order, so
	// a snapshot (an atomic load of visibleCSN) can never observe a
	// half-stamped commit: versions with CSN > visibleCSN are simply
	// not visible yet.
	seqMu      sync.Mutex
	seqWaiters map[uint64]chan struct{} // csn → its committer's wait channel
	nextCSN    uint64                   // last allocated CSN; guarded by seqMu
	visibleCSN atomic.Uint64
	// ckptMu is the checkpoint barrier: every updating commit holds the
	// read side across its allocCSNEnqueue→publishCSN window (WAL enqueue
	// included), so a checkpoint's write side opens only when no commit
	// is between allocation and publication. At that instant every
	// allocated CSN is published and its dirty keys are marked, so the
	// cut, the drained dirty epoch and the begin marker appended under
	// the barrier agree: no commit above the cut precedes the marker in
	// the log, and an async commit's pending frame carries a CSN ≤ the
	// cut, which the link already covers (recovery skips the late frame).
	ckptMu sync.RWMutex
	// Checkpoint chain state. ckptRunMu serializes whole checkpoint runs
	// (a run spans the barrier cut, the streamed link and the end-marker
	// sync); ckptStateMu guards the chain bookkeeping those runs update.
	ckptRunMu   sync.Mutex
	ckptStateMu sync.Mutex
	// chainBase is the cut of the newest durable chain link (0: no
	// chain — the next link must be full); chainLinks the chain length
	// including the root; chainRootSeg the segment index sampled while
	// appending the root's begin marker — the retirement bound (0
	// disables retirement until the next full link re-roots).
	chainBase    uint64
	chainLinks   int
	chainRootSeg int
	// ckptPauseNS accumulates commit-barrier hold time across
	// checkpoints; lastPauseNS is the most recent hold. incrCkpts and
	// fullLinks count completed links and chain re-roots.
	ckptPauseNS atomic.Int64
	lastPauseNS atomic.Int64
	incrCkpts   atomic.Int64
	fullLinks   atomic.Int64
	// ckptStop/ckptDone manage the log-growth checkpoint scheduler.
	ckptStop chan struct{}
	ckptDone chan struct{}
	ckptOnce sync.Once
	// seqWaits counts commits that had to wait in publishCSN for an
	// earlier CSN to publish (commit-sequencer contention).
	seqWaits atomic.Uint64

	nextTxID atomic.Uint64

	faults *faultinject.Registry

	// Shutdown: Close flips closing under closeMu, then waits for the
	// in-flight transaction count to drain. Begin registers new
	// transactions under the same mutex, so no registration can slip
	// past a started drain.
	closeMu  sync.Mutex
	closing  bool
	inflight sync.WaitGroup
	// inflightN mirrors the WaitGroup as a readable gauge: the number of
	// registered (begun, not yet ended) transactions. The server layer's
	// leak audits assert it returns to zero after a drain.
	inflightN atomic.Int64

	// gate is the admission limiter (nil when Config.Admission is nil).
	// Begin acquires a slot before registering with the shutdown drain;
	// endTx releases it. Close closes the gate first, so every queued
	// Begin wakes with ErrShuttingDown before the drain waits.
	gate    *admission.Limiter
	admStop chan struct{}
	admDone chan struct{}
	admOnce sync.Once

	// defaultDeadline is Config.DefaultTxDeadline as live state
	// (nanoseconds), so SetDefaultTxDeadline can arm or disarm the
	// per-transaction budget on a running database — e.g. load without
	// deadlines, then measure with them.
	defaultDeadline atomic.Int64

	ssi *ssiState

	commits atomic.Uint64
	aborts  atomic.Uint64

	// tracer records lifecycle events; nil disables every emission point.
	tracer *trace.Recorder
	// txnMetrics holds the abort taxonomy and the lock-wait/commit-latency
	// histograms; always allocated (recording into it is atomic adds).
	txnMetrics metrics.TxnMetrics
	// meterCommitLatency gates the commit-latency histogram's time.Now
	// calls: the workload driver enables it for measured runs, keeping
	// the default commit path free of clock reads.
	meterCommitLatency atomic.Bool
}

// Open creates a database instance from cfg.
func Open(cfg Config) *DB {
	cost := DefaultCostModel(cfg.Platform)
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	db := &DB{
		cfg:     cfg,
		cost:    cost,
		store:   storage.NewStore(),
		locks:   storage.NewLockTable(),
		log:     wal.New(cfg.WAL),
		machine: simres.New(cfg.Res),
		faults:  cfg.Faults,
	}
	if cfg.Faults != nil {
		db.store.SetFaults(cfg.Faults)
		db.log.SetFaults(cfg.Faults)
	}
	db.locks.SetWaitHistogram(&db.txnMetrics.LockWait)
	if cfg.Tracer != nil {
		db.setTracer(cfg.Tracer)
	}
	db.seqWaiters = make(map[uint64]chan struct{})
	if cfg.Mode == core.SerializableSI {
		db.ssi = newSSIState()
	}
	db.defaultDeadline.Store(int64(cfg.DefaultTxDeadline))
	if cfg.Admission != nil {
		db.gate = admission.New(*cfg.Admission)
		// The controller steers by commit latency; metering must be on.
		db.meterCommitLatency.Store(true)
		db.admStop = make(chan struct{})
		db.admDone = make(chan struct{})
		go db.admissionLoop()
	}
	if cfg.CheckpointLogBytes > 0 && db.log.Persistent() {
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.ckptLoop()
	}
	return db
}

// admissionLoop is the controller tick: every limiter interval it feeds
// the AIMD controller the metrics delta since the previous tick —
// commits, storm aborts (serialization + deadlock + lock-timeout, the
// classes that feed retry storms) and the commit-latency quantiles.
func (db *DB) admissionLoop() {
	defer close(db.admDone)
	prev := db.txnMetrics.Snapshot()
	t := time.NewTicker(db.gate.Interval())
	defer t.Stop()
	for {
		select {
		case <-db.admStop:
			return
		case <-t.C:
			cur := db.txnMetrics.Snapshot()
			d := cur.Delta(prev)
			prev = cur
			lat := d.CommitLatency
			db.gate.Observe(admission.Observation{
				Commits: d.Commits,
				StormAborts: d.Aborts[core.AbortSerialization] +
					d.Aborts[core.AbortDeadlock] +
					d.Aborts[core.AbortLockTimeout],
				CommitP50: lat.Quantile(0.50),
				CommitP99: lat.Quantile(0.99),
			})
		}
	}
}

// Admission returns the admission limiter, nil when admission control
// is disabled. The cmd layer publishes its Stats as the
// sicost_admission expvar.
func (db *DB) Admission() *admission.Limiter { return db.gate }

// allocCSNEnqueue allocates the next CSN and enqueues the commit's WAL
// record under the same seqMu critical section, so the log's enqueue
// order is exactly CSN order. That invariant is what makes the WAL's
// durability watermark a prefix property: when CSN n is durable, every
// logged commit ≤ n is durable too (the foundation of WaitDurable and
// of async-commit recovery losing only a tail). On enqueue failure the
// CSN is still returned — the committer must publish it as an empty
// slot so the publication sequence stays gapless.
func (db *DB) allocCSNEnqueue(rec *wal.Record) (uint64, <-chan error, error) {
	db.faults.FireDelayOnly(FaultCSNAlloc, faultinject.Ctx{})
	db.seqMu.Lock()
	db.nextCSN++
	csn := db.nextCSN
	rec.CSN = csn
	done, err := db.log.Enqueue(rec)
	db.seqMu.Unlock()
	return csn, done, err
}

// publishCSN makes csn visible to new snapshots, in CSN order: a
// committer whose predecessor is still stamping waits here. The wait is
// bounded — between allocCSNEnqueue and publishCSN a committer only stamps
// already-X-locked rows and index entries, never blocks on a lock — so
// the sequencer cannot deadlock. Publication is an exact handoff, not a
// broadcast: a committer that arrives early parks on its own channel,
// and whoever publishes csn-1 closes it — each advance wakes exactly
// the one goroutine that can make progress.
func (db *DB) publishCSN(csn uint64) {
	db.seqMu.Lock()
	if db.visibleCSN.Load() != csn-1 {
		db.seqWaits.Add(1)
		ch := make(chan struct{})
		db.seqWaiters[csn] = ch
		db.seqMu.Unlock()
		<-ch // closed by csn-1's publisher, after visibleCSN reaches csn-1
		db.seqMu.Lock()
	}
	db.visibleCSN.Store(csn)
	if ch, ok := db.seqWaiters[csn+1]; ok {
		delete(db.seqWaiters, csn+1)
		close(ch)
	}
	db.seqMu.Unlock()
}

// Close shuts the database down: new Begins are rejected with a handle
// poisoned by core.ErrShuttingDown, in-flight transactions are drained
// (Close blocks until each has committed or aborted), and the simulated
// log device is closed last, so no draining commit races the WAL
// teardown. Idempotent; concurrent Closes all block until the drain
// completes.
func (db *DB) Close() {
	db.closeMu.Lock()
	db.closing = true
	db.closeMu.Unlock()
	if db.gate != nil {
		// Wake every queued Begin with ErrShuttingDown before waiting
		// on the drain: queued waiters are not registered in-flight, so
		// without this they would hang forever (and with it, none can
		// slip past — a waiter granted concurrently with Close loses to
		// the closing flag above and releases its slot).
		db.gate.Close()
		db.admOnce.Do(func() { close(db.admStop) })
		<-db.admDone
	}
	db.inflight.Wait()
	if db.ckptStop != nil {
		db.ckptOnce.Do(func() { close(db.ckptStop) })
		<-db.ckptDone
	}
	// Drain before Close: with async commit, acknowledged transactions
	// may still have records in the flush queue — a graceful shutdown
	// makes them durable instead of failing them.
	db.log.Drain()
	db.log.Close()
}

// WaitDurable blocks until the commit with sequence number csn is
// durable on the log device. It returns immediately for csn 0 (a
// read-only commit has nothing to persist) and when no log is attached
// (every commit is trivially "as durable as it will ever get"). With a
// broken device it returns the sticky error: the commit is visible but
// will not survive a crash.
func (db *DB) WaitDurable(csn uint64) error {
	if csn == 0 || !db.log.Enabled() {
		return nil
	}
	return db.log.WaitDurableCSN(csn)
}

// DurableSeq returns the newest CSN such that every acked commit at or
// below it is both visible and durable. Without a log that is simply
// the visible high-water mark; otherwise it is the log's acked-durable
// watermark capped by visibility. The cap matters in both directions: a
// sync commit is durable before it publishes (durable briefly leads
// visible), while an async commit publishes before its flush lands
// (visible leads durable — the durability lag CommitSeq − DurableSeq
// measures). Visible alone is never a safe answer while the log is
// enabled: a CSN published as an empty slot — a commit withdrawn from
// the flush queue at its deadline, or torn off by an enqueue failure —
// was never acknowledged and never reaches the device, so the visible
// mark can overshoot what recovery is able to find.
func (db *DB) DurableSeq() uint64 {
	visible := db.visibleCSN.Load()
	if !db.log.Enabled() {
		return visible
	}
	durable, _ := db.log.DurableWatermark()
	if durable < visible {
		return durable
	}
	return visible
}

// LockAudit reports the lock table's outstanding grants and queued
// waiters. A quiescent database must report 0/0; the chaos harness's
// lock-leak invariant checks exactly that after a faulted run.
func (db *DB) LockAudit() (held, queued int) { return db.locks.Outstanding() }

// Faults returns the fault-injection registry the database was opened
// with (nil when fault injection is disabled).
func (db *DB) Faults() *faultinject.Registry { return db.faults }

// CreateTable declares a table. With a durable log attached the schema
// is appended as a DDL frame, so a log that has never been checkpointed
// still rebuilds its table definitions on recovery. The create and the
// DDL append run under the checkpoint barrier's read side: a full link
// cutting between them could embed a schema set without the table and
// then retire the segment holding the schema frame — later commit
// frames for the table would then fail recovery.
func (db *DB) CreateTable(schema *core.Schema) error {
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	if _, err := db.store.CreateTable(schema); err != nil {
		return err
	}
	return db.log.AppendSchema(schema)
}

// DefaultCheckpointChainMax is the chain-length bound applied when
// Config.CheckpointChainMax is zero: the 8th link after a re-root is
// written full again, advancing the segment-retirement bound.
const DefaultCheckpointChainMax = 8

// Checkpoint re-roots the checkpoint chain: it starts a new log segment
// and writes a full link at the current commit high-water mark there,
// whatever the chain length. Like every full link it then retires the
// segments the link covers — here every segment before it — so the live
// log is the link plus what follows it, and recovery replays only that.
// It requires a durable log device. Commits stall only for the cut and
// the segment switch; the rows stream concurrently (see
// CheckpointIncremental). Returns the cut (0, writing nothing, before
// the first commit).
func (db *DB) Checkpoint() (uint64, error) { return db.checkpoint(true) }

// CheckpointIncremental takes one fuzzy checkpoint: a delta link over
// the keys dirtied since the previous link, or a full base-0 link when
// there is no chain or the chain reached CheckpointChainMax. The
// commit barrier is held only for the cut — read the visible CSN, swap
// the dirty epochs, append the begin marker, sample the retirement
// bound — while the expensive parts (resolving after-images, streaming
// them, the end-marker sync) run concurrently with commits: versions
// at or below the cut are immutable, and appending the begin marker
// under the barrier guarantees no commit with CSN > cut precedes it in
// the byte stream. After each completed link, segments wholly behind
// the chain root are retired. Returns the cut (unchanged and without
// writing anything when no commit landed since the previous link).
func (db *DB) CheckpointIncremental() (uint64, error) { return db.checkpoint(false) }

// checkpoint writes one chain link; force makes it a full link in a
// fresh segment.
func (db *DB) checkpoint(force bool) (uint64, error) {
	if !db.log.Persistent() {
		return 0, core.ErrWALClosed
	}
	db.ckptRunMu.Lock()
	defer db.ckptRunMu.Unlock()

	db.ckptStateMu.Lock()
	base, links := db.chainBase, db.chainLinks
	sample := db.chainRootSeg
	db.ckptStateMu.Unlock()
	chainMax := db.cfg.CheckpointChainMax
	if chainMax <= 0 {
		chainMax = DefaultCheckpointChainMax
	}
	full := force || base == 0 || links >= chainMax

	start := time.Now()
	db.ckptMu.Lock()
	cut := db.visibleCSN.Load()
	if cut == 0 || (!full && cut <= base) {
		db.ckptMu.Unlock()
		return cut, nil // nothing committed since the previous link
	}
	dirty := make(map[string][]core.Value)
	for _, name := range db.store.TableNames() {
		t, terr := db.store.Table(name)
		if terr != nil {
			continue
		}
		keys := t.SwapDirty()
		if !full && len(keys) > 0 {
			dirty[name] = keys
		}
	}
	begin := &wal.DeltaBegin{CSN: cut, Schemas: wal.Schemas(db.store)}
	if !full {
		begin.Base = base
	}
	if force {
		// A forced re-root starts a fresh segment first, so the link
		// covers — and retires — every segment before it.
		if err := db.log.Rotate(); err != nil {
			db.ckptMu.Unlock()
			db.resetChain()
			return 0, err
		}
	}
	if full {
		// Sampled before the append: if the begin itself triggers a
		// rotation the marker lands one segment later, so the bound only
		// ever errs conservative (one extra segment kept).
		sample = 0
		if sl, ok := db.log.Device().(*wal.SegmentLog); ok {
			sample = sl.CurrentSegment()
		}
	}
	linkBytes, err := db.log.BeginDelta(begin)
	db.ckptMu.Unlock()
	pause := time.Since(start).Nanoseconds()
	db.ckptPauseNS.Add(pause)
	db.lastPauseNS.Store(pause)
	if err != nil {
		db.resetChain()
		return 0, err
	}

	var rows []wal.DeltaRow
	if full {
		rows = wal.SnapshotAll(db.store, cut)
	} else {
		rows = wal.SnapshotDelta(db.store, dirty, cut)
	}
	if db.tracer.Enabled() {
		db.tracer.Emit(trace.Event{Kind: trace.EvCkptBegin, CSN: cut, Depth: len(rows)})
	}
	const deltaBatch = 256
	for off := 0; off < len(rows); off += deltaBatch {
		end := off + deltaBatch
		if end > len(rows) {
			end = len(rows)
		}
		n, derr := db.log.AppendDeltaRows(&wal.DeltaRows{CSN: cut, Rows: rows[off:end]})
		if derr != nil {
			db.resetChain()
			return 0, derr
		}
		linkBytes += n
	}
	n, err := db.log.EndDelta(&wal.DeltaEnd{CSN: cut, Rows: uint64(len(rows))})
	if err != nil {
		db.resetChain()
		return 0, err
	}
	linkBytes += n

	db.incrCkpts.Add(1)
	if full {
		db.fullLinks.Add(1)
	}
	db.ckptStateMu.Lock()
	db.chainBase = cut
	if full {
		db.chainLinks = 1
		db.chainRootSeg = sample
	} else {
		db.chainLinks++
	}
	links = db.chainLinks
	bound := db.chainRootSeg
	db.ckptStateMu.Unlock()
	if db.tracer.Enabled() {
		db.tracer.Emit(trace.Event{Kind: trace.EvCkptEnd, CSN: cut, Depth: links, Bytes: linkBytes})
	}
	if bound > 0 {
		if _, _, rerr := db.log.Retire(bound, db.cfg.ArchiveDir); rerr != nil {
			return cut, rerr
		}
	}
	return cut, nil
}

// resetChain abandons the in-memory chain state after a failed link:
// whatever the log holds, the next checkpoint starts a fresh full link
// (which also covers the dirty epoch the failed run drained).
func (db *DB) resetChain() {
	db.ckptStateMu.Lock()
	db.chainBase, db.chainLinks, db.chainRootSeg = 0, 0, 0
	db.ckptStateMu.Unlock()
}

// ckptLoopInterval is the checkpoint scheduler's poll period.
const ckptLoopInterval = 5 * time.Millisecond

// ckptLoop is the log-growth checkpoint scheduler: whenever the device
// has accumulated Config.CheckpointLogBytes of appends since the last
// completed checkpoint, it takes an incremental one. Failures are left
// for the next tick (a bricked WAL fails fast until recovery).
func (db *DB) ckptLoop() {
	defer close(db.ckptDone)
	t := time.NewTicker(ckptLoopInterval)
	defer t.Stop()
	last := db.log.Stats().Bytes
	for {
		select {
		case <-db.ckptStop:
			return
		case <-t.C:
			if db.log.Broken() != nil {
				continue
			}
			if db.log.Stats().Bytes-last < db.cfg.CheckpointLogBytes {
				continue
			}
			if _, err := db.CheckpointIncremental(); err != nil {
				continue
			}
			last = db.log.Stats().Bytes
		}
	}
}

// CheckpointStats reports the engine-side checkpoint-chain counters;
// the WAL-side view (links durable, retired and archived segments)
// lives in wal.Stats.
type CheckpointStats struct {
	// Links counts completed chain links, FullLinks the chain re-roots
	// among them (Checkpoint calls included).
	Links     int64
	FullLinks int64
	// ChainLinks and ChainBase describe the current chain: its length
	// including the root, and the newest durable cut.
	ChainLinks int
	ChainBase  uint64
	// DirtyKeys is the dirty-set size across all tables (a gauge,
	// approximate under concurrent commits).
	DirtyKeys int
	// PauseNS is the cumulative commit-barrier hold time across
	// checkpoints; LastPauseNS the most recent hold.
	PauseNS     int64
	LastPauseNS int64
}

// CheckpointStats snapshots the checkpoint-chain counters.
func (db *DB) CheckpointStats() CheckpointStats {
	s := CheckpointStats{
		Links:       db.incrCkpts.Load(),
		FullLinks:   db.fullLinks.Load(),
		PauseNS:     db.ckptPauseNS.Load(),
		LastPauseNS: db.lastPauseNS.Load(),
	}
	db.ckptStateMu.Lock()
	s.ChainLinks, s.ChainBase = db.chainLinks, db.chainBase
	db.ckptStateMu.Unlock()
	for _, name := range db.store.TableNames() {
		if t, err := db.store.Table(name); err == nil {
			s.DirtyKeys += t.DirtyCount()
		}
	}
	return s
}

// Mode returns the configured concurrency-control mode.
func (db *DB) Mode() core.CCMode { return db.cfg.Mode }

// Platform returns the configured platform profile.
func (db *DB) Platform() core.Platform { return db.cfg.Platform }

// Cost returns the active strategy cost model.
func (db *DB) Cost() CostModel { return db.cost }

// Machine exposes the simulated hardware (the workload driver registers
// its sessions on it).
func (db *DB) Machine() *simres.Machine { return db.machine }

// SetResources replaces the simulated hardware. The experiment harness
// loads the database on a free machine and installs the measured
// resource model afterwards; it must not be called while transactions
// are in flight.
func (db *DB) SetResources(cfg simres.Config) { db.machine = simres.New(cfg) }

// WAL exposes the simulated log device for stats and fault injection.
func (db *DB) WAL() *wal.WAL { return db.log }

// SetWaitObserver installs the lock wait/wake observer (nil disables).
// Must not be called while transactions are in flight.
func (db *DB) SetWaitObserver(o WaitObserver) {
	if o == nil {
		db.locks.SetHooks(storage.WaitHooks{})
		return
	}
	db.locks.SetHooks(storage.WaitHooks{
		OnWait: func(tx uint64, key storage.LockKey) {
			o.OnTxWait(tx, key.Table, key.Key)
		},
		OnWake: func(tx uint64, key storage.LockKey, err error) {
			o.OnTxWake(tx, key.Table, key.Key, err)
		},
	})
}

// CommitSeq returns the current global commit sequence number (the
// newest published CSN).
func (db *DB) CommitSeq() uint64 { return db.visibleCSN.Load() }

// ContentionStats aggregates the engine's synchronization counters: the
// sharded lock table's per-stripe wait/deadlock statistics and the
// commit sequencer's publish waits. The workload driver reports the
// delta over a measurement interval alongside throughput.
type ContentionStats struct {
	Lock storage.LockStats
	// CommitPublishWaits counts commits that waited for an earlier CSN
	// to finish stamping before publishing their own.
	CommitPublishWaits uint64
}

// Delta returns s minus an earlier snapshot.
func (s ContentionStats) Delta(prev ContentionStats) ContentionStats {
	return ContentionStats{
		Lock:               s.Lock.Delta(prev.Lock),
		CommitPublishWaits: s.CommitPublishWaits - prev.CommitPublishWaits,
	}
}

// Contention snapshots the engine's contention counters.
func (db *DB) Contention() ContentionStats {
	return ContentionStats{
		Lock:               db.locks.Stats(),
		CommitPublishWaits: db.seqWaits.Load(),
	}
}

// Stats returns cumulative commit and abort counts.
func (db *DB) Stats() (commits, aborts uint64) {
	return db.commits.Load(), db.aborts.Load()
}

// setTracer wires a recorder into every emission layer (engine, lock
// table, WAL).
func (db *DB) setTracer(r *trace.Recorder) {
	db.tracer = r
	db.locks.SetTracer(r)
	db.log.SetTracer(r)
}

// SetTracer installs (or, with nil, removes) the lifecycle-event
// recorder after Open. Must not be called while transactions are in
// flight; to pause and resume capture on a live database, keep the
// recorder installed and use its SetEnabled switch instead.
func (db *DB) SetTracer(r *trace.Recorder) { db.setTracer(r) }

// Tracer returns the installed lifecycle recorder (nil when tracing is
// not configured).
func (db *DB) Tracer() *trace.Recorder { return db.tracer }

// TxnMetrics snapshots the engine's transaction metrics: commit count,
// the abort taxonomy, and the lock-wait and commit-latency histograms.
// Snapshots from two points of a run diff with TxnSnapshot.Delta.
func (db *DB) TxnMetrics() metrics.TxnSnapshot { return db.txnMetrics.Snapshot() }

// SetMetricsEnabled gates the commit-latency histogram (it needs two
// clock reads per updating commit, which the ≤5%-overhead budget keeps
// off the default path). Abort taxonomy and lock-wait metrics are
// always on: they only touch cold paths.
func (db *DB) SetMetricsEnabled(on bool) { db.meterCommitLatency.Store(on) }

// SetDefaultTxDeadline changes the per-transaction time budget stamped
// on every future Begin (0 disarms it). In-flight transactions keep the
// deadline they began with.
func (db *DB) SetDefaultTxDeadline(d time.Duration) { db.defaultDeadline.Store(int64(d)) }

// Begin starts a transaction. The returned Tx must be finished with
// Commit or Abort; it is not safe for concurrent use by multiple
// goroutines (like a SQL session).
func (db *DB) Begin() *Tx {
	// The begin fault fires before the transaction is registered, so an
	// injected panic here unwinds without leaving shutdown bookkeeping
	// behind.
	beginErr := db.faults.Fire(FaultBegin, faultinject.Ctx{})

	var deadline time.Time
	if d := time.Duration(db.defaultDeadline.Load()); d > 0 {
		deadline = time.Now().Add(d)
	}

	// The admission gate sits before shutdown registration: a queued
	// Begin holds no engine resources, and Close wakes the whole queue
	// with ErrShuttingDown before draining registered transactions.
	admitted := false
	if db.gate != nil {
		if aerr := db.gate.Acquire(deadline); aerr != nil {
			// Rejected handle: shed (ErrOverload), expired
			// (ErrTxDeadline) or shutdown. Every statement and the
			// commit return the error; Abort is a cheap cleanup.
			return &Tx{db: db, failedErr: aerr}
		}
		admitted = true
	}

	db.closeMu.Lock()
	if db.closing {
		db.closeMu.Unlock()
		if admitted {
			db.gate.Release()
		}
		// Rejected handle: every statement and the commit return
		// ErrShuttingDown; Abort is a cheap no-op-ish cleanup.
		return &Tx{db: db, failedErr: core.ErrShuttingDown}
	}
	db.inflight.Add(1)
	db.inflightN.Add(1)
	db.closeMu.Unlock()

	// Per-transaction base CPU (parse, plan, session round trip), plus
	// the commercial platform's per-session overhead at the current MPL.
	// Charged before the snapshot is taken, as in the real systems where
	// it precedes the first data access.
	db.machine.UseCPU(db.machine.TxnCost(0))

	// The snapshot point is one atomic load: every CSN ≤ visibleCSN is
	// fully stamped (publishCSN advances in order, after stamping).
	start := db.visibleCSN.Load()

	tx := &Tx{
		db:       db,
		id:       db.nextTxID.Add(1),
		start:    start,
		reg:      true,
		admitted: admitted,
		lockWait: db.cfg.LockWaitTimeout,
		deadline: deadline,
	}
	if beginErr != nil {
		tx.failedErr = beginErr
	}
	if db.ssi != nil {
		db.ssi.begin(tx)
	}
	if db.tracer.Enabled() {
		db.tracer.Emit(trace.Event{Kind: trace.EvBegin, Tx: tx.id, CSN: start})
		db.tracer.Emit(trace.Event{Kind: trace.EvSnapshot, Tx: tx.id, CSN: start})
	}
	return tx
}

// endTx retires a registered transaction from the shutdown drain.
// Called exactly once per registered handle, from Commit or Abort.
func (db *DB) endTx(tx *Tx) {
	if tx.reg {
		tx.reg = false
		if tx.admitted {
			tx.admitted = false
			db.gate.Release()
		}
		db.inflightN.Add(-1)
		db.inflight.Done()
	}
}

// InFlightTxns returns the number of registered transactions that have
// begun and not yet committed or aborted. A quiescent database reports
// zero; the server chaos harness's leaked-transaction invariant checks
// exactly that after every drain.
func (db *DB) InFlightTxns() int64 { return db.inflightN.Load() }

// ScanLatest iterates the newest committed record of every row of the
// named table, in key order. It bypasses transactions and is intended
// for loaders, invariant verification and tests.
func (db *DB) ScanLatest(table string, fn func(key core.Value, rec core.Record) bool) error {
	t, err := db.store.Table(table)
	if err != nil {
		return err
	}
	for _, k := range t.Keys() {
		row := t.Row(k)
		if row == nil {
			continue
		}
		v := row.NewestCommitted()
		if v == nil || v.Rec == nil {
			continue
		}
		if !fn(k, v.Rec) {
			break
		}
	}
	return nil
}

// ScanAsOf iterates the newest record of every row of the named table
// whose commit CSN is at or below cut, walking version chains past
// newer commits — the state a recovery limited to the durable prefix
// [1, cut] rebuilds. The async crash-consistency audits use it to
// compute "published state restricted to acked-durable CSNs" from the
// live database, without replaying the log. Like ScanLatest it bypasses
// transactions; versions of in-flight transactions (CSN 0) are skipped.
func (db *DB) ScanAsOf(table string, cut uint64, fn func(key core.Value, rec core.Record) bool) error {
	t, err := db.store.Table(table)
	if err != nil {
		return err
	}
	for _, k := range t.Keys() {
		row := t.Row(k)
		if row == nil {
			continue
		}
		v := row.Head()
		for v != nil {
			if c := v.CSN(); c != 0 && c <= cut {
				break
			}
			v = v.Prev
		}
		if v == nil || v.Rec == nil {
			continue
		}
		if !fn(k, v.Rec) {
			break
		}
	}
	return nil
}
