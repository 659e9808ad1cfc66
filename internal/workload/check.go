package workload

import (
	"time"

	"sicost/internal/engine"
	"sicost/internal/onlinecheck"
	"sicost/internal/trace"
)

// attachCheck subscribes check to db's lifecycle recorder before any
// client starts, so the very first begin is observed: the database's
// own recorder when it has one (its delivered events are retained, as
// the subscription takes over its single consumer), else a private one
// installed for the run. The returned finish func, called once the
// clients have drained, delivers the final pass and returns the verdict
// — with Dropped counting the run's ring-overflow drops, since a lost
// read-ver can hide a cycle — and the retained events.
func attachCheck(db *engine.DB, check *onlinecheck.Checker, interval time.Duration) (finish func() (*onlinecheck.Report, []trace.Event)) {
	rec := db.Tracer()
	reuse := rec != nil
	if !reuse {
		rec = trace.New(trace.Options{})
		db.SetTracer(rec)
	}
	dropped := rec.Dropped()
	sub := trace.Subscribe(rec, check.Ingest, trace.SubOptions{Interval: interval, Retain: reuse})
	return func() (*onlinecheck.Report, []trace.Event) {
		sub.Close() // final drain: every committed event reaches the checker
		// End-of-stream settle pass: with every terminal delivered and no
		// transaction in flight, the floor reaches the newest published
		// CSN and the whole window retires — the report carries the true
		// memory high-water mark, not a tail of unretired commits.
		check.Ingest(nil)
		rep := check.Finalize()
		rep.Dropped = rec.Dropped() - dropped
		if !reuse {
			db.SetTracer(nil)
			return rep, nil
		}
		return rep, sub.Events()
	}
}
