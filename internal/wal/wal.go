// Package wal implements the write-ahead log of the engine, modelled on
// the paper's testbed: a dedicated log disk with the write cache
// disabled, so every commit of an updating transaction must wait for a
// real device write — amortized across concurrent committers by group
// commit (the paper configures commit-delay to exploit exactly this).
//
// The log is layered. The latency of the device is simulated
// (Config.FsyncLatency), which is all the throughput experiments need;
// durability is real when a LogDevice is attached (Config.Device): the
// flush loop encodes each commit record — row after-images plus CSN —
// into CRC32-framed binary frames (codec.go), appends each flush group
// to the device, and issues one Sync per coalesced window of groups
// (many appends, one fdatasync). Checkpoint and schema frames share the
// same framing, and Recover (recover.go) classifies a device image back
// into snapshot + redo work with torn-tail truncation; segment.go adds
// the wal.000N segmented layout. Read-only transactions never touch the
// log, which is the mechanism behind the paper's §IV-D observation that
// strategies turning the read-only Balance program into an updater pay
// ~20% at MPL=1 (5/5 instead of 4/5 of transactions must wait for the
// disk).
package wal

import (
	"errors"
	"hash/crc32"
	"sync"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/trace"
)

// Fault-point names of the log device.
const (
	// FaultCommit fires at the head of Commit, before the record is
	// enqueued (a connection to the log that dies before the write).
	// It fires even when the device is disabled, so chaos runs against
	// latency-free test configurations still exercise commit-path
	// failures. The engine fires it before CSN allocation, so an
	// ActPanic here cannot wedge the sequencer.
	FaultCommit = "wal/commit"
	// FaultFlush fires once per flush-group device write, before any
	// byte of that group reaches the device; an injected error fails
	// every commit record in that group without persisting it (groups
	// already appended in the same window are unaffected, and later
	// groups still flush). An ActPanic spec here models the process
	// dying mid-write: the unsynced appends of earlier groups in the
	// window are lost with the page cache, a torn prefix of the crashed
	// group's first frame reaches the platter (so nothing
	// unacknowledged becomes durable), and the WAL bricks itself —
	// every later commit fails until recovery rebuilds the engine.
	FaultFlush = "wal/flush"
	// FaultSync fires once per coalesced window, after every group's
	// append and before the device Sync. An injected error is a failed
	// fsync: durability of the whole window is unknown, so the WAL
	// bricks (the fsyncgate discipline). An ActPanic models power dying
	// inside the coalesced-sync window: every unsynced append vanishes
	// with the page cache and nothing in the window is acknowledged.
	FaultSync = "wal/sync"
	// FaultCkptDelta fires once per delta-rows append of a fuzzy
	// checkpoint link, before any byte reaches the device. An ActPanic
	// models the process dying mid-delta: unsynced appends are lost, a
	// torn prefix of the batch frame may reach the platter, the WAL
	// bricks — and recovery must discard the incomplete link, falling
	// back to the previous complete chain state.
	FaultCkptDelta = "wal/ckpt-delta"
)

// Config parameterizes the log device.
type Config struct {
	// FsyncLatency is the time one device sync takes. With no Device
	// attached, zero disables the log entirely (commits return
	// immediately), which unit tests use.
	FsyncLatency time.Duration
	// MaxBatch caps the number of commit records appended by a single
	// flush-group device write; 0 means unbounded (pure group commit).
	MaxBatch int
	// SyncEveryGroup restores the pre-coalescing discipline: one device
	// Sync (and one FsyncLatency wait) per flush group. The default
	// coalesces every group pending at the start of a flush window into
	// one Sync — many appends, one fdatasync — which is what lets
	// MaxBatch bound device-write sizes without multiplying syncs.
	SyncEveryGroup bool
	// Device, when non-nil, is the durable medium: every flush encodes
	// its batch and appends the frames to the device before
	// acknowledging. Nil keeps the historical latency-only simulation.
	Device LogDevice
	// PreallocBytes, when positive, asks the device to create log
	// segments at this physical size up front (zero-padded past the
	// logical tail), so steady-state appends overwrite allocated blocks
	// instead of extending the file on every flush. Ignored by devices
	// without the notion (memory, flat files); see
	// SegmentLog.SetPrealloc for the recovery story.
	PreallocBytes int64
}

// Scaled returns the config with FsyncLatency multiplied by f.
func (c Config) Scaled(f float64) Config {
	c.FsyncLatency = time.Duration(float64(c.FsyncLatency) * f)
	return c
}

// Record is one commit log record: the transaction's identity, its
// commit sequence number, and the after-image of every row it wrote.
// With a device attached the record is encoded and persisted; without
// one only Bytes is accounted, preserving the latency-only simulation.
type Record struct {
	TxID uint64
	CSN  uint64
	// Rows are the committed after-images (nil Rec = tombstone),
	// in-transaction write order.
	Rows []RowImage
	// Bytes is the accounted payload size. Callers may pre-fill an
	// estimate for latency-only mode; with a device attached Commit
	// overwrites it with the real encoded frame size.
	Bytes int
	// Async marks a record whose committer did not wait for durability
	// (the commit is already published). A failure resolving an async
	// record cannot be rolled back by aborting the transaction, so it
	// bricks the WAL instead.
	Async bool

	enc  []byte
	done chan error
}

// Stats aggregates device activity; used by tests and by the
// group-commit ablation experiment. Only flush groups whose covering
// Sync succeeded count toward Flushes/Records/Bytes; groups that failed
// (injected error, injected crash, device error, or a failed Sync)
// count in FailedFlushes and contribute nothing else — in particular, a
// group rejected by an injected device error while its window's other
// groups proceed is counted exactly once, as failed.
type Stats struct {
	// Flushes counts flush groups appended and covered by a successful
	// Sync; Syncs counts the device syncs themselves. With coalescing,
	// Flushes/Syncs > 1 is the whole point: many appends, one
	// fdatasync.
	Flushes int64
	Syncs   int64
	Records int64
	Bytes   int64
	// FailedFlushes counts flush groups that failed; their records
	// were rejected, not acknowledged.
	FailedFlushes int64
	// Checkpoints counts checkpoint frames written (each rewrites the
	// device to checkpoint + empty tail).
	Checkpoints int64
	// DeltaCheckpoints counts fuzzy chain links made durable (end
	// marker synced).
	DeltaCheckpoints int64
	// RetiredSegments counts sealed segments unlinked by Retire because
	// the checkpoint chain covers them; ArchivedSegments counts how many
	// of those were copied to the archive directory first.
	RetiredSegments  int64
	ArchivedSegments int64
}

// AvgBatch returns the mean number of commit records per successful
// flush group.
func (s Stats) AvgBatch() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Flushes)
}

// CommitsPerSync returns the mean number of commit records made durable
// per device sync — the coalescing win the async/segmented rework is
// after.
func (s Stats) CommitsPerSync() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Syncs)
}

// WAL is the group-commit log. The zero value is not usable; call New.
type WAL struct {
	cfg    Config
	faults *faultinject.Registry
	tracer *trace.Recorder

	// devMu serializes all device operations (flush appends and syncs,
	// checkpoint rewrites, schema appends) so frames never interleave
	// mid-write.
	devMu sync.Mutex
	// devDead, guarded by devMu, is set by a simulated crash before
	// devMu is released; every later device operation fails with it. A
	// dead process writes nothing more, so an append or sync racing a
	// crash on another goroutine (a flush window against a fuzzy-
	// checkpoint delta or a segment retirement) can neither land after
	// the torn tail nor acknowledge frames the crash dropped.
	devDead error

	mu      sync.Mutex
	idle    sync.Cond // broadcast when the flush loop exits
	durable sync.Cond // broadcast when the durability watermark moves or the WAL dies
	pending []*Record
	flusher bool // a flush loop is running
	closed  bool
	failErr error // injected fault: every subsequent flush fails with it
	broken  error // sticky: the device died (crash or IO error); recovery required
	stats   Stats

	// Durability watermark. The engine enqueues commit records in CSN
	// order (allocation and enqueue share the sequencer's critical
	// section) and the flush loop resolves them in queue order, so
	// durableCSN — the highest CSN acknowledged durable — only ever
	// advances, and everything at or below it is durable.
	// outstandingRecs counts enqueued, unresolved records carrying a
	// CSN; zero means the log has no durability debt.
	durableCSN      uint64
	outstandingRecs int
}

// New creates a WAL. With no device and zero FsyncLatency the log is
// disabled and Commit returns immediately.
func New(cfg Config) *WAL {
	w := &WAL{cfg: cfg}
	w.idle.L = &w.mu
	w.durable.L = &w.mu
	if cfg.PreallocBytes > 0 {
		if d, ok := cfg.Device.(interface{ SetPrealloc(int64) error }); ok {
			// Preallocation is a performance lever, not a correctness one:
			// a device that cannot extend (full disk, odd medium) just
			// runs append-grown.
			_ = d.SetPrealloc(cfg.PreallocBytes)
		}
	}
	return w
}

// SetFaults installs the fault registry consulted by the FaultCommit,
// FaultFlush and FaultSync points (nil disables), propagating it to a
// device that has fault points of its own (SegmentLog's rotation).
// Call before commits are in flight.
func (w *WAL) SetFaults(r *faultinject.Registry) {
	w.faults = r
	if d, ok := w.cfg.Device.(interface {
		SetFaults(*faultinject.Registry)
	}); ok {
		d.SetFaults(r)
	}
}

// SetTracer installs the lifecycle-event recorder for EvWALCommit and
// EvWALFlush (nil disables). Call before commits are in flight.
func (w *WAL) SetTracer(r *trace.Recorder) { w.tracer = r }

// CommitFault fires the wal/commit fault point on behalf of tx. The
// engine calls it before CSN allocation so an ActPanic here unwinds
// with no sequencer state to clean up.
func (w *WAL) CommitFault(tx uint64) error {
	return w.faults.Fire(FaultCommit, faultinject.Ctx{Tx: tx})
}

// Commit appends rec to the log and blocks until it is durable (the
// device sync covering its flush group completed). It returns
// core.ErrWALClosed if the device shuts down first, the injected fault
// if one is set, or the sticky crash error once a flush has torn the
// device.
func (w *WAL) Commit(rec *Record) error {
	if err := w.CommitFault(rec.TxID); err != nil {
		return err
	}
	done, err := w.Enqueue(rec)
	if err != nil {
		return err
	}
	if done == nil {
		return nil
	}
	return <-done
}

// Enqueue appends rec to the flush queue without waiting for
// durability. It returns a buffered channel that receives exactly one
// verdict when the record's flush resolves, or (nil, nil) when the log
// is disabled (the record is trivially "durable"), or a non-nil error
// when the log is closed or broken and nothing was enqueued.
//
// The engine calls Enqueue inside the CSN-allocation critical section,
// so queue order equals CSN order: the durable part of the log is
// always a CSN prefix, which is what makes the durability watermark
// (DurableWatermark, WaitDurableCSN) and async commit's
// lose-only-the-tail recovery guarantee meaningful.
func (w *WAL) Enqueue(rec *Record) (<-chan error, error) {
	if w.cfg.Device != nil {
		rec.enc = EncodeCommit(&CommitFrame{TxID: rec.TxID, CSN: rec.CSN, Rows: rec.Rows})
		rec.Bytes = len(rec.enc)
	}
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.Event{Kind: trace.EvWALCommit, Tx: rec.TxID, Bytes: rec.Bytes})
	}
	if !w.Enabled() {
		return nil, nil
	}
	rec.done = make(chan error, 1)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, core.ErrWALClosed
	}
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return nil, err
	}
	if rec.CSN != 0 {
		w.outstandingRecs++
	}
	w.pending = append(w.pending, rec)
	if !w.flusher {
		w.flusher = true
		go w.flushLoop()
	}
	w.mu.Unlock()

	return rec.done, nil
}

// Withdraw removes rec from the flush queue if — and only if — no flush
// window has claimed it yet. It reports whether the record was
// withdrawn: true means the record will never reach the device and its
// done channel will never resolve, so the committer may abort cleanly
// (the engine publishes the allocated CSN as an empty slot, the same
// discipline as an enqueue failure — the durability watermark's prefix
// property is unaffected because an empty slot has nothing to lose).
// False means the record is in flight or already resolved: the commit
// can no longer be torn away from the log, and the caller must wait for
// the verdict and complete the commit. This is what bounds a sync
// commit's flush-group wait by the transaction deadline without ever
// leaving a commit half-published.
func (w *WAL) Withdraw(rec *Record) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, r := range w.pending {
		if r != rec {
			continue
		}
		w.pending = append(w.pending[:i], w.pending[i+1:]...)
		if rec.CSN != 0 {
			w.outstandingRecs--
		}
		// Waiters on the watermark may be blocked behind this record's
		// outstanding count.
		w.durable.Broadcast()
		return true
	}
	return false
}

// fireFlush hits the FaultFlush point, converting an injected panic
// (ActPanic modelling a mid-flush crash) into its error value instead
// of letting it kill the background flush goroutine — and with it the
// whole process. crashed reports that conversion, which the flush loop
// turns into a torn device append plus a bricked WAL.
func (w *WAL) fireFlush() (err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := faultinject.AsPanic(r)
			if !ok {
				panic(r)
			}
			err, crashed = p, true
		}
	}()
	return w.faults.Fire(FaultFlush, faultinject.Ctx{}), false
}

// fireSync hits the FaultSync point with the same panic conversion.
func (w *WAL) fireSync() (err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := faultinject.AsPanic(r)
			if !ok {
				panic(r)
			}
			err, crashed = p, true
		}
	}()
	return w.faults.Fire(FaultSync, faultinject.Ctx{}), false
}

// flushLoop drains pending records window by window. Exactly one loop
// runs at a time; it exits when the queue empties, so an idle log costs
// nothing. In the default coalescing mode a window is everything
// pending at loop-start — split into MaxBatch-sized append groups but
// covered by a single Sync; with SyncEveryGroup each window is one
// group, the pre-coalescing one-sync-per-group discipline.
func (w *WAL) flushLoop() {
	for {
		w.mu.Lock()
		if len(w.pending) == 0 || w.closed {
			w.flusher = false
			// Closing drains remaining waiters in Close; wake it now
			// that no flush is in flight.
			w.idle.Broadcast()
			w.mu.Unlock()
			return
		}
		var window []*Record
		if w.cfg.SyncEveryGroup && w.cfg.MaxBatch > 0 && len(w.pending) > w.cfg.MaxBatch {
			window = w.pending[:w.cfg.MaxBatch:w.cfg.MaxBatch]
			w.pending = w.pending[w.cfg.MaxBatch:]
		} else {
			window = w.pending
			w.pending = nil
		}
		injected := w.failErr
		if injected == nil {
			injected = w.broken
		}
		w.mu.Unlock()

		w.flushWindow(window, injected)
	}
}

// group is one device-write unit inside a flush window.
type group struct {
	recs   []*Record
	frames []byte
	bytes  int
}

// splitGroups cuts a window into MaxBatch-sized flush groups and
// encodes each one's frame block.
func (w *WAL) splitGroups(window []*Record) []group {
	var groups []group
	for len(window) > 0 {
		n := len(window)
		if w.cfg.MaxBatch > 0 && n > w.cfg.MaxBatch {
			n = w.cfg.MaxBatch
		}
		g := group{recs: window[:n]}
		for _, r := range g.recs {
			g.bytes += r.Bytes
			g.frames = append(g.frames, r.enc...)
		}
		groups = append(groups, g)
		window = window[n:]
	}
	return groups
}

// flushWindow appends every group of the window to the device and
// covers them with one Sync. Group-level failures are independent: an
// injected device error rejects exactly that group's records (counted
// once, in FailedFlushes — never also in Flushes/Bytes) while earlier
// appends stay covered by the window's Sync and later groups still
// run. Crashes (injected panics) lose the window's unsynced appends,
// leave at most a torn fragment, and brick the WAL.
func (w *WAL) flushWindow(window []*Record, injected error) {
	groups := w.splitGroups(window)

	// The device sync occupies the log for the configured latency,
	// once per window: every group in the window shares the wait —
	// coalesced group commit.
	time.Sleep(w.cfg.FsyncLatency)

	if injected != nil {
		w.mu.Lock()
		w.stats.FailedFlushes += int64(len(groups))
		w.mu.Unlock()
		for _, g := range groups {
			w.resolve(g.recs, injected)
		}
		return
	}

	var appended []group
	var crashErr error
	failFrom := len(groups) // first group index not appended due to crash
	for gi, g := range groups {
		err, crashed := w.fireFlush()
		if crashed {
			// Mid-write crash: the page cache — earlier groups' unsynced
			// appends — is lost; a torn prefix of this group's first
			// frame made the platter mid-write.
			w.crash(g.frames, err)
			crashErr, failFrom = err, gi
			break
		}
		if err != nil {
			// Injected device error for this group only: rejected before
			// any byte reached the device; the rest of the window
			// proceeds.
			w.mu.Lock()
			w.stats.FailedFlushes++
			w.mu.Unlock()
			w.resolve(g.recs, err)
			continue
		}
		if derr := w.devAppend(g.frames); derr != nil {
			w.brick(derr)
			crashErr, failFrom = derr, gi
			break
		}
		appended = append(appended, g)
	}

	if crashErr != nil {
		// The crash loses every unacknowledged record of the window:
		// the appended-but-unsynced groups and everything after the
		// crash point.
		w.mu.Lock()
		w.stats.FailedFlushes += int64(len(appended) + len(groups) - failFrom)
		w.mu.Unlock()
		for _, g := range appended {
			w.resolve(g.recs, crashErr)
		}
		for _, g := range groups[failFrom:] {
			w.resolve(g.recs, crashErr)
		}
		return
	}

	if len(appended) == 0 {
		return
	}

	serr, scrashed := w.fireSync()
	if scrashed {
		// Power dies inside the coalesced-sync window, before the sync
		// reaches the device: the whole window's appends sit in the
		// lost page cache.
		w.crash(nil, serr)
		w.failWindow(appended, serr)
		return
	}
	if serr == nil {
		serr = w.devSync()
	}
	if serr != nil {
		// Failed fsync: durability of everything since the last
		// successful sync is unknown (fsyncgate) — brick.
		w.failWindow(appended, serr)
		return
	}

	w.mu.Lock()
	w.stats.Syncs++
	for _, g := range appended {
		w.stats.Flushes++
		w.stats.Records += int64(len(g.recs))
		w.stats.Bytes += int64(g.bytes)
	}
	w.mu.Unlock()

	if w.tracer.Enabled() {
		// Device-level events: no transaction; Depth is the group size.
		for _, g := range appended {
			w.tracer.Emit(trace.Event{Kind: trace.EvWALFlush, Depth: len(g.recs), Bytes: g.bytes})
		}
	}

	for _, g := range appended {
		w.resolve(g.recs, nil)
	}
}

// failWindow bricks the WAL with err and rejects every appended group.
func (w *WAL) failWindow(appended []group, err error) {
	w.brick(err)
	w.mu.Lock()
	w.stats.FailedFlushes += int64(len(appended))
	w.mu.Unlock()
	for _, g := range appended {
		w.resolve(g.recs, err)
	}
}

// resolve delivers one verdict to every record of a flush group,
// advancing the durability watermark for successes and bricking the WAL
// when an async (already published) record fails — that loss cannot be
// rolled back by aborting a transaction.
func (w *WAL) resolve(recs []*Record, err error) {
	w.mu.Lock()
	for _, r := range recs {
		if r.CSN != 0 {
			w.outstandingRecs--
		}
		switch {
		case err == nil:
			if r.CSN > w.durableCSN {
				w.durableCSN = r.CSN
			}
		case r.Async:
			if w.broken == nil {
				w.broken = err
			}
		}
	}
	w.durable.Broadcast()
	w.mu.Unlock()
	for _, r := range recs {
		r.done <- err
	}
}

// brick marks the device dead; every later commit fails until recovery.
func (w *WAL) brick(err error) {
	w.mu.Lock()
	if w.broken == nil {
		w.broken = err
	}
	w.durable.Broadcast()
	w.mu.Unlock()
}

// devOp runs one device operation under devMu, failing fast with the
// crash cause once the device is dead. A crash injected inside the
// device itself (segment rotation or retirement) kills it before devMu
// is released, losing the page cache like any other crash.
func (w *WAL) devOp(op func(LogDevice) error) error {
	w.devMu.Lock()
	defer w.devMu.Unlock()
	if w.devDead != nil {
		return w.devDead
	}
	err := op(w.cfg.Device)
	var p *faultinject.Panic
	if errors.As(err, &p) {
		w.dieLocked(nil, err)
	}
	return err
}

// devAppend writes one flush group to the device.
func (w *WAL) devAppend(frames []byte) error {
	if w.cfg.Device == nil || len(frames) == 0 {
		return nil
	}
	return w.devOp(func(d LogDevice) error { return d.Append(frames) })
}

// devSync issues the device sync covering every append since the last.
func (w *WAL) devSync() error {
	if w.cfg.Device == nil {
		return nil
	}
	return w.devOp(LogDevice.Sync)
}

// crash simulates process death at a fault point and bricks the WAL.
// Under one devMu critical section it loses the page cache (every
// unsynced append, on a crash-capable device), persists the torn
// fragment of torn (nil for none) and marks the device dead, so no
// concurrent append or sync lands after it. A device that is already
// dead receives nothing.
func (w *WAL) crash(torn []byte, err error) {
	w.devMu.Lock()
	w.dieLocked(torn, err)
	w.devMu.Unlock()
	w.brick(err)
}

// dieLocked is crash's device half; the caller holds devMu.
func (w *WAL) dieLocked(torn []byte, err error) {
	if w.devDead != nil {
		return
	}
	w.devDead = err
	if w.cfg.Device == nil {
		return
	}
	if vd, ok := w.cfg.Device.(VolatileDevice); ok {
		_, _ = vd.DropUnsynced()
	}
	w.tornAppend(torn)
}

// tornAppend simulates the crash-interrupted device write: a strict
// prefix of the group's first frame is persisted, deterministically cut
// by the group checksum. Keeping the cut inside the first frame
// guarantees no unacknowledged commit becomes durable, while still
// leaving a genuinely torn tail for recovery to truncate. The fragment
// is synced: it models bytes the platter received mid-write, not page
// cache. The caller holds devMu.
func (w *WAL) tornAppend(frames []byte) {
	if len(frames) == 0 {
		return
	}
	_, first, err := DecodeFrameAt(frames, 0)
	if err != nil || first <= 0 {
		first = len(frames)
	}
	cut := int(crc32.Checksum(frames, castagnoli) % uint32(first))
	_ = w.cfg.Device.Append(frames[:cut])
	_ = w.cfg.Device.Sync()
}

// DurableWatermark returns the highest CSN acknowledged durable and
// whether any enqueued record is still awaiting its verdict.
func (w *WAL) DurableWatermark() (csn uint64, outstanding bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableCSN, w.outstandingRecs > 0
}

// ResumeDurable seeds the durability watermark, used once at recovery:
// every commit the log replayed is durable by construction, so the
// revived WAL's watermark starts at the recovered high-water mark
// instead of re-earning it one flush at a time.
func (w *WAL) ResumeDurable(csn uint64) {
	w.mu.Lock()
	if csn > w.durableCSN {
		w.durableCSN = csn
	}
	w.mu.Unlock()
}

// WaitDurableCSN blocks until the commit with sequence number csn is
// durable (nil), or the WAL dies first — broken returns the sticky
// device error, a close before durability returns core.ErrWALClosed.
// Because enqueue order is CSN order, csn durable implies every logged
// commit at or below csn is durable too.
func (w *WAL) WaitDurableCSN(csn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durableCSN < csn && w.broken == nil && !w.closed {
		w.durable.Wait()
	}
	if w.durableCSN >= csn {
		return nil
	}
	if w.broken != nil {
		return w.broken
	}
	return core.ErrWALClosed
}

// Drain blocks until the flush queue is empty and no flush is in
// flight. DB.Close uses it to flush async commits before teardown; the
// caller must guarantee no new Enqueues arrive (a broken WAL still
// drains — its pending records fail fast).
func (w *WAL) Drain() {
	w.mu.Lock()
	for w.flusher || len(w.pending) > 0 {
		w.idle.Wait()
	}
	w.mu.Unlock()
}

// WriteCheckpoint truncates the log to a single checkpoint frame. The
// caller (engine.DB.Checkpoint) must guarantee quiescence: no commit
// may sit between CSN allocation and publication, so every durable
// frame is covered by the snapshot and Rewrite loses nothing. (Async
// records may still be in the flush queue, but the barrier guarantees
// their CSNs are published, hence ≤ the cut: their frames land after
// the checkpoint and recovery skips them as already covered.)
func (w *WAL) WriteCheckpoint(c *Checkpoint) error {
	if w.cfg.Device == nil {
		return core.ErrWALClosed
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return core.ErrWALClosed
	}
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()

	enc := EncodeCheckpoint(c)
	err := w.devOp(func(d LogDevice) error { return d.Rewrite(enc) })

	w.mu.Lock()
	if err == nil {
		w.stats.Checkpoints++
		w.stats.Bytes += int64(len(enc))
	} else {
		w.broken = err
		w.durable.Broadcast()
	}
	w.mu.Unlock()
	return err
}

// AppendSchema persists a DDL frame so a log without a checkpoint can
// still rebuild table definitions. The frame is synced immediately —
// DDL is rare and must not sit in the page cache behind a commit
// window. No-op without a device.
func (w *WAL) AppendSchema(s *core.Schema) error {
	if w.cfg.Device == nil {
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return core.ErrWALClosed
	}
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()

	enc := EncodeSchema(s)
	err := w.devOp(func(d LogDevice) error {
		if err := d.Append(enc); err != nil {
			return err
		}
		return d.Sync()
	})

	w.mu.Lock()
	if err == nil {
		w.stats.Bytes += int64(len(enc))
		w.stats.Syncs++
	} else {
		w.broken = err
		w.durable.Broadcast()
	}
	w.mu.Unlock()
	return err
}

// guardOpen rejects device-side operations on a closed or bricked WAL.
func (w *WAL) guardOpen() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return core.ErrWALClosed
	}
	return w.broken
}

// BeginDelta appends a fuzzy-checkpoint chain-link begin marker. The
// caller (engine.DB.CheckpointIncremental) holds the commit barrier's
// write side across this append, which is the whole point: no commit
// with CSN > d.CSN can precede the marker in the byte stream, so every
// frame before it is covered by the chain once the link completes. The
// marker is NOT synced here — the end marker's sync covers it, and a
// begin lost with the page cache just leaves an incomplete link that
// recovery ignores.
func (w *WAL) BeginDelta(d *DeltaBegin) (int, error) {
	if w.cfg.Device == nil {
		return 0, core.ErrWALClosed
	}
	if err := w.guardOpen(); err != nil {
		return 0, err
	}
	enc := EncodeDeltaBegin(d)
	err := w.devOp(func(dev LogDevice) error { return dev.Append(enc) })
	w.mu.Lock()
	if err == nil {
		w.stats.Bytes += int64(len(enc))
	} else if w.broken == nil {
		w.broken = err
		w.durable.Broadcast()
	}
	w.mu.Unlock()
	return len(enc), err
}

// fireCkptDelta hits the FaultCkptDelta point with the flush loop's
// panic conversion: an ActPanic models the process dying mid-delta.
func (w *WAL) fireCkptDelta() (err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := faultinject.AsPanic(r)
			if !ok {
				panic(r)
			}
			err, crashed = p, true
		}
	}()
	return w.faults.Fire(FaultCkptDelta, faultinject.Ctx{}), false
}

// AppendDeltaRows appends one batch of a link's after-images. It runs
// WITHOUT the commit barrier — versions at or below the cut are
// immutable, so commits interleave freely with these appends. A crash
// here (FaultCkptDelta with ActPanic) loses unsynced appends, leaves at
// most a torn prefix of this batch on the platter and bricks the WAL:
// recovery sees an incomplete link and falls back to the previous
// complete chain state. Any other append failure also bricks — a
// half-written link whose device state is unknown cannot be reasoned
// about frame by frame.
func (w *WAL) AppendDeltaRows(d *DeltaRows) (int, error) {
	if w.cfg.Device == nil {
		return 0, core.ErrWALClosed
	}
	if err := w.guardOpen(); err != nil {
		return 0, err
	}
	enc := EncodeDeltaRows(d)
	ferr, crashed := w.fireCkptDelta()
	if crashed {
		w.crash(enc, ferr)
		return 0, ferr
	}
	if ferr == nil {
		ferr = w.devAppend(enc)
	}
	w.mu.Lock()
	if ferr == nil {
		w.stats.Bytes += int64(len(enc))
	} else if w.broken == nil {
		w.broken = ferr
		w.durable.Broadcast()
	}
	w.mu.Unlock()
	if ferr != nil {
		return 0, ferr
	}
	return len(enc), nil
}

// EndDelta appends the link's end marker and syncs: the durability
// point of the whole link (begin, every rows batch, end — appends are
// ordered, one sync covers them all). Only after EndDelta returns nil
// may the engine extend its in-memory chain state or retire segments.
func (w *WAL) EndDelta(d *DeltaEnd) (int, error) {
	if w.cfg.Device == nil {
		return 0, core.ErrWALClosed
	}
	if err := w.guardOpen(); err != nil {
		return 0, err
	}
	enc := EncodeDeltaEnd(d)
	err := w.devOp(func(dev LogDevice) error {
		if err := dev.Append(enc); err != nil {
			return err
		}
		return dev.Sync()
	})
	w.mu.Lock()
	if err == nil {
		w.stats.Bytes += int64(len(enc))
		w.stats.Syncs++
		w.stats.DeltaCheckpoints++
	} else if w.broken == nil {
		w.broken = err
		w.durable.Broadcast()
	}
	w.mu.Unlock()
	return len(enc), err
}

// Retirer is implemented by log devices that can unlink sealed segments
// wholly covered by a durable checkpoint chain (the segmented log).
type Retirer interface {
	// RetireSegments removes every sealed segment with index < beforeIdx,
	// oldest first; with archiveDir non-empty each is copied there before
	// the unlink. It returns how many segments were removed and how many
	// of those were archived. A crash mid-retire leaves a shorter prefix
	// removed — still a valid suffix layout.
	RetireSegments(beforeIdx int, archiveDir string) (retired, archived int, err error)
}

// Retire unlinks sealed segments with index < beforeIdx, optionally
// archiving each to archiveDir first (point-in-time-recovery source).
// The caller must only pass a beforeIdx at or below the segment index
// that was current when the chain's ROOT link appended its begin marker
// — everything before that point is reconstructible from the chain. A
// no-op (0, 0, nil) when the device does not support retirement.
func (w *WAL) Retire(beforeIdx int, archiveDir string) (retired, archived int, err error) {
	r, ok := w.cfg.Device.(Retirer)
	if !ok {
		return 0, 0, nil
	}
	if err := w.guardOpen(); err != nil {
		return 0, 0, err
	}
	err = w.devOp(func(LogDevice) error {
		var rerr error
		retired, archived, rerr = r.RetireSegments(beforeIdx, archiveDir)
		return rerr
	})
	w.mu.Lock()
	w.stats.RetiredSegments += int64(retired)
	w.stats.ArchivedSegments += int64(archived)
	if err != nil && w.broken == nil {
		w.broken = err
		w.durable.Broadcast()
	}
	w.mu.Unlock()
	return retired, archived, err
}

// InjectFailure makes every subsequent flush window acknowledge its
// records with err (nil clears the fault). Nothing reaches the device
// while the fault is set. Used by failure-injection tests.
func (w *WAL) InjectFailure(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failErr = err
}

// Broken returns the sticky device-death error (nil while healthy). A
// broken WAL rejects every commit until the engine is rebuilt from the
// device via Recover.
func (w *WAL) Broken() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Stats returns a snapshot of device activity.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close shuts the device down. Pending, unflushed records fail with
// core.ErrWALClosed; records already in a device write are acknowledged
// by that flush. Close is idempotent, safe against concurrent Commit
// and concurrent Close, and returns only once no flush goroutine is
// running — a closed WAL has no background activity left. (DB.Close
// drains the queue first, so a graceful shutdown flushes async commits
// rather than failing them.)
func (w *WAL) Close() {
	w.mu.Lock()
	w.closed = true
	pending := w.pending
	w.pending = nil
	for w.flusher {
		w.idle.Wait()
	}
	w.durable.Broadcast()
	w.mu.Unlock()
	// The flush loop exited and Enqueue rejects new records once closed,
	// so these drained records are exclusively ours to fail. Each
	// record's done channel is buffered and receives exactly one
	// verdict, so a second racing Close (which drained an empty
	// pending slice) cannot double-send. resolve also pops them from
	// the outstanding count, releasing WaitDurableCSN callers.
	w.resolve(pending, core.ErrWALClosed)
}

// Enabled reports whether commits must wait for the log: either the
// latency simulation or a durable device is active.
func (w *WAL) Enabled() bool { return w.cfg.FsyncLatency > 0 || w.cfg.Device != nil }

// Persistent reports whether a durable device is attached.
func (w *WAL) Persistent() bool { return w.cfg.Device != nil }

// Device returns the attached log device (nil in latency-only mode).
func (w *WAL) Device() LogDevice { return w.cfg.Device }
