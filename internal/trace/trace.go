// Package trace is the transaction-lifecycle event recorder: a
// low-overhead, lock-free, ring-buffered capture of everything that
// happens to a transaction — begin, snapshot acquisition, per-table-key
// reads and writes, lock waits with queue depth, conflict detection,
// aborts with their taxonomy reason, and commits with their CSN — with
// monotonic timestamps, flushed on demand to a central collector.
//
// Design constraints, in order:
//
//  1. Disabled tracing costs one atomic load (plus a nil test) on the
//     hot path: every emission site is `if rec.Enabled() { rec.Emit(…) }`
//     and Enabled on a nil or disabled recorder does no other work.
//  2. Enabled tracing never blocks a transaction: events go into
//     bounded lock-free rings (Vyukov MPMC queues), sharded by
//     transaction id so concurrent producers rarely contend on a CAS;
//     a full shard drops the event and counts the drop rather than
//     stalling the engine.
//  3. The collector (Drain) merges the shards and orders events by
//     timestamp, yielding one coherent stream for the JSONL dump
//     (WriteJSONL), the invariant validator (Validate) and the detsim
//     replay hint (detsim.ReplayTrace).
//
// Timestamps are monotonic nanoseconds since the recorder's epoch by
// default; deterministic consumers (the golden-file schema test)
// install a logical clock via Options.Clock.
package trace

import (
	"sort"
	"sync/atomic"
	"time"

	"sicost/internal/core"
)

// Kind identifies a lifecycle event type.
type Kind uint8

// Lifecycle event kinds, in the order they can occur within one
// transaction.
const (
	// EvBegin: a transaction started. CSN carries the snapshot it reads
	// from (the newest published commit at begin time).
	EvBegin Kind = iota
	// EvSnapshot: the snapshot point itself — emitted with EvBegin in
	// this engine (snapshot acquisition is one atomic load inside
	// Begin) but kept distinct so engines with deferred snapshots can
	// reuse the schema.
	EvSnapshot
	// EvRead: a point read (Get/GetByIndex) of Table/Key, emitted at
	// statement start (before any 2PL shared-lock wait) so each
	// transaction's event order equals its statement dispatch order.
	EvRead
	// EvWrite: a write access (Update/Insert/Delete) to Table/Key,
	// emitted before the row lock is taken so the event order matches
	// dispatch order even when the write blocks.
	EvWrite
	// EvSFU: SELECT ... FOR UPDATE on Table/Key, emitted like EvWrite.
	EvSFU
	// EvLockWait: the transaction queued on the row lock of Table/Key.
	// Depth is the wait-queue length at the moment of blocking
	// (excluding this waiter).
	EvLockWait
	// EvLockWake: the queued request resolved. WaitNS is the blocked
	// time; Reason is AbortNone for a grant, or the abort class of the
	// ejection error (deadlock victim, lock timeout, eviction by
	// ReleaseAll).
	EvLockWake
	// EvConflict: concurrency control detected a conflict that dooms
	// the statement. Reason is a Conflict* cause.
	EvConflict
	// EvAbort: the transaction rolled back. Reason is the
	// core.ClassifyAbort class of the terminating error, or AbortNone
	// for a voluntary rollback.
	EvAbort
	// EvCommit: the transaction committed. CSN is the commit sequence
	// number (for read-only transactions, the snapshot they logically
	// committed at). Table carries the transaction's application tag
	// (engine Tx.SetTag, e.g. the SmallBank program "WC"), empty when
	// none was set, so checker reports can name cycle participants.
	EvCommit
	// EvWALCommit: an updating commit enqueued its commit record on the
	// simulated log device. Bytes is the record payload.
	EvWALCommit
	// EvWALFlush: the log device completed one group-commit write. Tx
	// is zero; Depth is the number of commit records acknowledged and
	// Bytes their total payload.
	EvWALFlush
	// EvRecovery: a database was rebuilt from a log device. Tx is zero;
	// CSN is the recovered high-water mark, Depth the number of commit
	// frames replayed and Bytes the valid log prefix length.
	EvRecovery
	// EvReadVer: the version actually read by a point read of Table/Key —
	// CSN is the commit sequence number of that version (0 for rows
	// created before tracing was enabled). Unlike EvRead (statement
	// start), this is emitted after visibility resolution and skips reads
	// of the transaction's own writes, so a transaction's read-ver events
	// are exactly its dependency-relevant read set — the reads the online
	// checker (internal/onlinecheck) derives WR and RW edges from.
	// Within a transaction it occurs between begin and commit.
	EvReadVer
	// EvWriteVer: one committed version created by the transaction on
	// Table/Key, CSN = the commit CSN. Emitted inside Commit after the
	// CSN is allocated, one event per written row, before EvCommit —
	// unlike EvWrite (statement start), which over-approximates the
	// write set (a statement can fail without dooming the transaction).
	// The write-ver events are exactly the versions the commit created.
	EvWriteVer
	// EvCkptBegin: a checkpoint opened its chain link (a full re-root
	// or a delta). Tx is zero; CSN is the begin cut (the link's CSN)
	// and Depth the number of row images the link will stream.
	EvCkptBegin
	// EvCkptEnd: the link's end marker is durable. Tx is zero; CSN is
	// the cut, Depth the chain length including this link, Bytes the
	// total encoded size of the link's frames.
	EvCkptEnd

	numKinds
)

// kindNames is the JSONL wire name of each kind; Validate rejects
// anything else.
var kindNames = [numKinds]string{
	"begin", "snapshot", "read", "write", "sfu",
	"lock-wait", "lock-wake", "conflict", "abort", "commit",
	"wal-commit", "wal-flush", "recovery",
	"read-ver", "write-ver", "ckpt-begin", "ckpt-end",
}

// NumKinds returns the number of defined event kinds. Consumers that
// must tolerate streams from newer schemas (the online checker) compare
// Kind values against it instead of panicking on unknowns.
func NumKinds() int { return int(numKinds) }

// String returns the wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Conflict causes carried in EvConflict.Reason: which concurrency-control
// rule detected the conflict.
const (
	// ConflictFUW: First-Updater-Wins — the newest committed version of
	// the target row postdates the writer's snapshot.
	ConflictFUW uint8 = iota
	// ConflictSFUCommit: commercial-platform semantics — a concurrent
	// committed SELECT FOR UPDATE counts as a write against this writer.
	ConflictSFUCommit
	// ConflictSSI: serializable SI aborted a dangerous rw-antidependency
	// structure (this transaction was the pivot or read/wrote into one).
	ConflictSSI

	numConflicts
)

// conflictNames is the JSONL wire name of each conflict cause.
var conflictNames = [numConflicts]string{"fuw", "sfu-commit", "ssi"}

// ConflictName returns the wire name of a conflict cause.
func ConflictName(c uint8) string {
	if int(c) < len(conflictNames) {
		return conflictNames[c]
	}
	return "unknown"
}

// Event is one recorded lifecycle event. Unused fields are zero; the
// JSONL encoding omits them. Events are plain values — safe to copy,
// sort and batch.
type Event struct {
	// TS is the event timestamp: monotonic nanoseconds since the
	// recorder's epoch (or a logical counter under a custom clock).
	TS int64
	// Tx is the engine transaction id (0 for device-level events).
	Tx uint64
	// Kind is the event type.
	Kind Kind
	// Table and Key name the row for data and lock events; on EvCommit,
	// Table carries the transaction's application tag.
	Table string
	Key   core.Value
	// CSN is the snapshot CSN (EvBegin/EvSnapshot), commit CSN
	// (EvCommit) or version CSN (EvReadVer/EvWriteVer).
	CSN uint64
	// Depth is the lock queue depth (EvLockWait) or the flush-group
	// size (EvWALFlush).
	Depth int
	// WaitNS is the blocked time in nanoseconds (EvLockWake).
	WaitNS int64
	// Reason is kind-dependent: a core.AbortReason for
	// EvAbort/EvLockWake, a Conflict* cause for EvConflict.
	Reason uint8
	// Bytes is the WAL payload size (EvWALCommit, EvWALFlush).
	Bytes int
}

// DefaultShards is the recorder's shard count: enough that concurrent
// clients rarely collide on one ring's tail CAS.
const DefaultShards = 16

// DefaultShardCap is each shard's ring capacity. 16 shards × 64k events
// ≈ one million buffered events (~100 MB-scale runs flush between
// phases; cmd/smallbank drains once at the end).
const DefaultShardCap = 1 << 16

// Options configures a Recorder.
type Options struct {
	// Shards is the ring count (rounded up to a power of two); 0 means
	// DefaultShards.
	Shards int
	// ShardCap is each ring's capacity (rounded up to a power of two);
	// 0 means DefaultShardCap.
	ShardCap int
	// Clock, when non-nil, replaces the monotonic wall clock — the
	// deterministic tests install an atomic counter so event streams
	// are bit-identical across runs.
	Clock func() int64
	// Disabled creates the recorder switched off (SetEnabled turns it
	// on later); by default New returns an enabled recorder.
	Disabled bool
}

// Recorder collects lifecycle events. Emission is concurrent-safe and
// non-blocking; Drain is the single-consumer flush point. A nil
// *Recorder is a valid always-disabled recorder, which is how the
// engine compiles tracing down to a pointer test when unused.
type Recorder struct {
	enabled atomic.Bool
	epoch   time.Time
	clock   func() int64
	shards  []*ring
	mask    uint64
	dropped atomic.Uint64
}

// New creates a Recorder.
func New(opts Options) *Recorder {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	capacity := opts.ShardCap
	if capacity <= 0 {
		capacity = DefaultShardCap
	}
	r := &Recorder{
		epoch:  time.Now(),
		clock:  opts.Clock,
		shards: make([]*ring, size),
		mask:   uint64(size - 1),
	}
	for i := range r.shards {
		r.shards[i] = newRing(capacity)
	}
	r.enabled.Store(!opts.Disabled)
	return r
}

// Enabled reports whether events should be emitted. This is the hot-path
// guard: a nil receiver or a disabled recorder costs one pointer test
// plus one atomic load, nothing else.
func (r *Recorder) Enabled() bool {
	return r != nil && r.enabled.Load()
}

// SetEnabled flips event capture on or off. Emissions racing the flip
// may or may not be recorded; the switch itself is always safe.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// now returns the next timestamp.
func (r *Recorder) now() int64 {
	if r.clock != nil {
		return r.clock()
	}
	return int64(time.Since(r.epoch))
}

// Emit records one event, stamping TS if the caller left it zero. The
// shard is chosen by transaction id, so one transaction's events are
// FIFO within their shard even under timestamp ties. Emit never blocks:
// a full shard counts a drop instead.
func (r *Recorder) Emit(ev Event) {
	if !r.Enabled() {
		return
	}
	if ev.TS == 0 {
		ev.TS = r.now()
	}
	if !r.shards[ev.Tx&r.mask].push(ev) {
		r.dropped.Add(1)
	}
}

// Dropped returns how many events were discarded because their shard's
// ring was full. A non-zero value means the trace has gaps; Validate
// relaxes its pairing invariants accordingly only if the caller asks.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Drain flushes every shard into one timestamp-ordered slice and leaves
// the rings empty. It is the central collector: call it between run
// phases (the per-phase diff) or once at the end. Drain is not
// concurrent-safe against itself; producers may keep emitting, and
// their in-flight events simply land in the next drain.
func (r *Recorder) Drain() []Event {
	if r == nil {
		return nil
	}
	// Take a consistent cut before popping anything: snapshot every
	// shard's occupancy first, then collect at most that much from each.
	// Popping shard by shard to exhaustion instead would admit events
	// emitted *during* the drain into late shards but not early ones —
	// a skew of whole scheduler quanta on a busy box — and a subscriber
	// deriving a watermark from the stream (the online checker) would
	// see transactions whose begin made the cut but whose commit did
	// not, pinning its window to the skew. The cut loop is a handful of
	// atomic loads; events racing it land in the next drain.
	counts := make([]int, len(r.shards))
	total := 0
	for i, s := range r.shards {
		counts[i] = int(s.tail.Load() - s.head.Load())
		total += counts[i]
	}
	out := make([]Event, 0, total)
	for i, s := range r.shards {
		for n := counts[i]; n > 0; n-- {
			ev, ok := s.pop()
			if !ok {
				// A producer claimed a ticket inside the cut but has not
				// published the event yet; it belongs to the next drain.
				break
			}
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// CounterClock returns a Clock producing 1, 2, 3, … — a deterministic
// logical clock for reproducible event streams (safe for concurrent
// use; in concurrent runs it provides uniqueness, not global order).
func CounterClock() func() int64 {
	var c atomic.Int64
	return func() int64 { return c.Add(1) }
}
