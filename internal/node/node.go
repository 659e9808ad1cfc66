// Package node assembles the platform every binary runs SmallBank on —
// the paper's one configured DBMS on one server with one log disk (§IV):
// the engine configuration for a platform, mode and cost scale (scale 0
// = measured costs: no simres charge, no modelled fsync, a zero
// CostModel), the open step (recover a non-empty segment log, else
// create and load the schema on free hardware), and the expvars.
package node

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof for Serve
	"os"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/simres"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

// Config builds the engine configuration of a platform and a mode, as
// spelled on the command line, at the given cost scale.
func Config(platform, mode string, scale float64) (engine.Config, error) {
	p, err := core.ParsePlatform(platform)
	if err != nil {
		return engine.Config{}, err
	}
	m, err := core.ParseMode(mode)
	if err != nil {
		return engine.Config{}, err
	}
	cfg := PostgresDB(scale)
	if p == core.PlatformCommercial {
		cfg = CommercialDB(scale)
	}
	cfg.Mode = m
	return cfg, nil
}

// Costs is the stderr line that labels which costs a binary's numbers
// include at the given scale.
func Costs(scale float64) string {
	if scale == 0 {
		return "costs: measured"
	}
	return fmt.Sprintf("costs: modelled (scale %g: simres CPU, cost model, %v fsync)",
		scale, LogDevice(scale).FsyncLatency)
}

// Options says what Open builds.
type Options struct {
	Engine engine.Config
	// Dir, when set, is the durable log: a directory of wal.NNNN
	// segments rotated at SegmentSize bytes (0 = wal.DefaultSegmentSize).
	Dir         string
	SegmentSize int64
	// Customers and Seed size a fresh load.
	Customers int
	Seed      int64
	// Progress, when set, receives the loading or recovered line.
	Progress io.Writer
}

// Node is one opened, loaded platform.
type Node struct {
	DB        *engine.DB
	Log       *wal.SegmentLog // nil when memory only
	Customers int
	// Recovered is set when Open rebuilt the database from the log.
	Recovered *engine.RecoveryReport
}

// Open opens the engine. A non-empty log is recovered, and the
// customer count is derived from Account; otherwise the schema is
// created and loaded. Either step runs on free hardware, and the
// configured resources are installed afterwards.
func Open(o Options) (n *Node, err error) {
	n = &Node{Customers: o.Customers}
	if o.Progress == nil {
		o.Progress = io.Discard
	}
	defer func() {
		if err != nil {
			n.Close()
			n = nil
		}
	}()
	if o.Dir != "" {
		if n.Log, err = wal.OpenSegmentLog(o.Dir, o.SegmentSize); err != nil {
			return n, err
		}
		o.Engine.WAL.Device = n.Log
	}
	measured := o.Engine.Res
	o.Engine.Res = simres.Config{}
	if n.Log != nil && n.Log.Size() > 0 {
		if n.DB, n.Recovered, err = engine.Recover(n.Log, o.Engine); err != nil {
			return n, fmt.Errorf("recover: %w", err)
		}
		n.Customers = 0
		if err = n.DB.ScanLatest(smallbank.TableAccount, func(core.Value, core.Record) bool {
			n.Customers++
			return true
		}); err != nil {
			return n, err
		}
		rep := n.Recovered
		fmt.Fprintf(o.Progress, "recovered %s: %d segments, %d checkpoint rows, %d commits replayed, %d torn bytes truncated, CSN %d, %d customers\n",
			o.Dir, rep.Log.Segments, rep.CheckpointRows, rep.ReplayedCommits, rep.Log.TornBytes, rep.HighCSN, n.Customers)
	} else {
		n.DB = engine.Open(o.Engine)
		if err = smallbank.CreateSchema(n.DB); err != nil {
			return n, err
		}
		fmt.Fprintf(o.Progress, "loading %d customers...\n", o.Customers)
		if _, err = smallbank.Load(n.DB, smallbank.LoadConfig{Customers: o.Customers, Seed: o.Seed}); err != nil {
			return n, err
		}
	}
	n.DB.SetResources(measured)
	return n, nil
}

// Close closes the engine, then the log.
func (n *Node) Close() {
	if n.DB != nil {
		n.DB.Close()
	}
	if n.Log != nil {
		n.Log.Close()
	}
}

// Publish registers the engine's expvars — sicost_txn_metrics,
// sicost_wal and, when admission is on, sicost_admission — plus the
// caller's own (sicost_server, sicost_onlinecheck). Expvar names are
// process-global, so call it once per process.
func (n *Node) Publish(extra map[string]func() any) {
	db := n.DB
	vars := map[string]func() any{
		"sicost_txn_metrics": func() any { return db.TxnMetrics() },
		// Durability lag (published commits ahead of the device; 0 in
		// sync mode once quiescent), flush/sync counters and the
		// fuzzy-checkpoint gauges (OBSERVABILITY.md §9).
		"sicost_wal": func() any {
			durable, commit := db.DurableSeq(), db.CommitSeq()
			return map[string]any{
				"CommitSeq": commit, "DurableSeq": durable, "DurabilityLag": commit - durable,
				"Stats": db.WAL().Stats(), "Checkpoint": db.CheckpointStats(),
			}
		},
	}
	if lim := db.Admission(); lim != nil {
		vars["sicost_admission"] = func() any { return lim.Stats() }
	}
	for name, f := range extra {
		vars[name] = f
	}
	for name, f := range vars {
		expvar.Publish(name, expvar.Func(f))
	}
}

// Serve publishes the expvars (see Publish) and serves them, with
// net/http/pprof, on addr in the background.
func (n *Node) Serve(addr string, extra map[string]func() any) {
	n.Publish(extra)
	go func() {
		fmt.Fprintf(os.Stderr, "pprof/expvar: http://%s/debug/pprof http://%s/debug/vars\n", addr, addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "pprof server:", err)
		}
	}()
}
