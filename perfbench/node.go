package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/server"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

// segmentBytes is the log segment size; a run's log fills at most a few
// segments, so rotations are rare.
const segmentBytes = 64 << 20

// options fixes one run.
type options struct {
	spec      spec
	seed      int64
	measure   time.Duration
	warmup    time.Duration
	customers int
	setups    int
	// dir holds this run's logs; removed at exit.
	dir string
	// spans is where a traced run writes its spans.
	spans string
}

// engineConfig is the one engine assembly every workload uses:
// serializable SI on the PostgreSQL platform, asynchronous commit on the
// given durable device, and no modelled cost (the zero simres config and
// zero FsyncLatency; CostModel charges are no-ops without simres). No
// checkpoint scheduler runs.
func engineConfig(dev wal.LogDevice) engine.Config {
	return engine.Config{
		Mode:        core.SerializableSI,
		Platform:    core.PlatformPostgres,
		AsyncCommit: true,
		WAL:         wal.Config{Device: dev},
	}
}

// node is one assembled system under test: log, engine, loaded
// database and, for wire workloads, the server with one connection per
// client.
type node struct {
	dir    string
	seg    *wal.SegmentLog
	db     *engine.DB
	loaded int64

	srv       *server.Server
	serveDone chan error
	conns     []*tcpTransport
}

// assemble builds a node in dir: open the log, create the schema, load
// the customers and connect the clients. A non-nil tr wraps the log
// device and the listener with its timing wrappers.
func assemble(o options, dir string, tr *tracer) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seg, err := wal.OpenSegmentLog(dir, segmentBytes)
	if err != nil {
		return nil, err
	}
	var dev wal.LogDevice = seg
	if tr != nil {
		dev = &timedDevice{LogDevice: seg, log: tr.newLog()}
	}
	n := &node{dir: dir, seg: seg, db: engine.Open(engineConfig(dev))}
	if err := smallbank.CreateSchema(n.db); err != nil {
		n.abandon()
		return nil, err
	}
	if n.loaded, err = smallbank.Load(n.db, smallbank.LoadConfig{Customers: o.customers, Seed: o.seed}); err != nil {
		n.abandon()
		return nil, err
	}
	if !o.spec.wire {
		return n, nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.abandon()
		return nil, err
	}
	addr := ln.Addr().String()
	if tr != nil {
		ln = &timedListener{Listener: ln, tr: tr}
	}
	n.srv = server.New(server.Config{DB: n.db})
	n.serveDone = make(chan error, 1)
	go func() { n.serveDone <- n.srv.Serve(ln) }()
	for i := 0; i < clients; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			n.abandon()
			return nil, err
		}
		n.conns = append(n.conns, &tcpTransport{nc: nc, r: bufio.NewReader(nc)})
	}
	return n, nil
}

// stopServing disconnects the clients and drains the server, waiting
// for its accept loop and every connection goroutine to end, and
// returns the server's final counters.
func (n *node) stopServing() (server.Stats, error) {
	if n.srv == nil {
		return server.Stats{}, nil
	}
	for _, c := range n.conns {
		c.nc.Close()
	}
	n.conns = nil
	n.srv.Shutdown()
	err := <-n.serveDone
	st := n.srv.Stats()
	n.srv, n.serveDone = nil, nil
	if err != nil {
		return st, fmt.Errorf("server: %w", err)
	}
	return st, nil
}

// closeDB drains and closes the engine, then the log.
func (n *node) closeDB() error {
	n.db.Close()
	if err := n.seg.Close(); err != nil {
		return fmt.Errorf("close log: %w", err)
	}
	return nil
}

// abandon tears a node down without checks (set-up failures and the
// extra set-ups that only time the assembly).
func (n *node) abandon() {
	_, _ = n.stopServing()
	_ = n.closeDB()
	os.RemoveAll(n.dir)
}
