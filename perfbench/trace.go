package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sicost/internal/engine"
	"sicost/internal/server"
	"sicost/internal/sqlmini"
	"sicost/internal/wal"
)

// Span names. Spans are taken only in this package, around calls into
// each layer's public functions; a span's parent is the client attempt
// that caused it where the caller knows it, 0 otherwise.
const (
	spanTxn            = "client.txn"
	spanAttempt        = "client.attempt"
	spanAttemptAborted = "client.attempt.aborted"
	spanRTT            = "client.rtt"
	spanHandle         = "server.handle" // request read to response written, per server conn
	spanDecode         = "server.decode"
	spanParse          = "sqlmini.parse"
	spanExecute        = "server.execute." // + begin|select|update|commit|rollback
	spanEncode         = "server.encode"
	spanBegin          = "engine.begin"
	spanExec           = "engine.exec"
	spanCommit         = "engine.commit"
	spanWALAppend      = "wal.append"
	spanWALSync        = "wal.sync"
)

// spanEvery is the sampling interval of client spans: a traced client
// records the spans of one logical transaction in spanEvery, which
// keeps a traced phase's memory and span file small while leaving tens
// of thousands of samples per span name.
const spanEvery = 8

type span struct {
	id, parent uint64
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer owns the span logs of one traced phase. Spans stay in memory
// until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newLog registers a span log for one recording goroutine (a client,
// a server connection, the log device).
func (tr *tracer) newLog() *spanLog {
	l := &spanLog{tr: tr}
	tr.mu.Lock()
	tr.logs = append(tr.logs, l)
	tr.mu.Unlock()
	return l
}

// spans returns every recorded span; call once recording has stopped.
func (tr *tracer) spans() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var all []span
	for _, l := range tr.logs {
		l.mu.Lock()
		all = append(all, l.spans...)
		l.mu.Unlock()
	}
	return all
}

// wireBytes sums the bytes the server connections read and wrote.
func (tr *tracer) wireBytes() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var n int64
	for _, l := range tr.logs {
		l.mu.Lock()
		n += l.bytes
		l.mu.Unlock()
	}
	return n
}

type spanLog struct {
	tr    *tracer
	mu    sync.Mutex
	spans []span
	bytes int64
}

func (l *spanLog) newID() uint64 { return l.tr.ids.Add(1) }

// add records a span from start to now under parent and returns now, so
// consecutive spans chain without extra clock reads.
func (l *spanLog) add(parent uint64, name string, start time.Time) time.Time {
	now := time.Now()
	l.addID(l.newID(), parent, name, start, now)
	return now
}

func (l *spanLog) addID(id, parent uint64, name string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{id: id, parent: parent, name: name,
		start: start.Sub(l.tr.epoch), end: end.Sub(l.tr.epoch)})
	l.mu.Unlock()
}

func (l *spanLog) addBytes(n int) {
	l.mu.Lock()
	l.bytes += int64(n)
	l.mu.Unlock()
}

// writeSpans writes every phase's spans as tab-separated lines:
// phase, id, parent, name, start and end in nanoseconds.
func writeSpans(path string, phases map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "phase\tid\tparent\tname\tstart_ns\tend_ns")
	for phase, tr := range phases {
		for _, s := range tr.spans() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\n", phase, s.id, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedDevice times the WAL's calls into its log device. The engine
// type-asserts *wal.SegmentLog only for checkpoints and segment
// retirement, which the benchmark leaves off.
type timedDevice struct {
	wal.LogDevice
	log *spanLog
}

func (d *timedDevice) Append(b []byte) error {
	t := time.Now()
	err := d.LogDevice.Append(b)
	d.log.add(0, spanWALAppend, t)
	return err
}

func (d *timedDevice) Sync() error {
	t := time.Now()
	err := d.LogDevice.Sync()
	d.log.add(0, spanWALSync, t)
	return err
}

// timedListener hands the server connections that time each request
// from the read that brings it to the write of its response.
type timedListener struct {
	net.Listener
	tr *tracer
}

func (l *timedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: nc, log: l.tr.newLog()}, nil
}

// timedConn is used by its connection's server goroutine only; the
// protocol is one request, one response, so a read after a write starts
// the next request.
type timedConn struct {
	net.Conn
	log     *spanLog
	pending bool
	since   time.Time
}

func (c *timedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		if !c.pending {
			c.pending, c.since = true, time.Now()
		}
		c.log.addBytes(n)
	}
	return n, err
}

func (c *timedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.log.addBytes(n)
	if c.pending {
		c.log.add(0, spanHandle, c.since)
		c.pending = false
	}
	return n, err
}

// replayTransport replays a client's statement stream in-process
// through the server's own steps — server.DecodeRequest, sqlmini.Parse,
// server.Session.Execute, server.EncodeResponse — timing each step of
// the sampled transactions (attempt != 0). Execute parses the statement
// again itself; the separate Parse call only measures parsing.
type replayTransport struct {
	sess *server.Session
	log  *spanLog
}

func (t *replayTransport) roundTrip(q string, attempt uint64) (server.Response, error) {
	line, err := json.Marshal(server.Request{Q: q})
	if err != nil {
		return server.Response{}, err
	}
	step := func(name string, start time.Time) time.Time {
		if attempt == 0 {
			return start
		}
		return t.log.add(attempt, name, start)
	}
	t0 := time.Now()
	req, err := server.DecodeRequest(line)
	if err != nil {
		return server.Response{}, err
	}
	t1 := step(spanDecode, t0)
	kind := strings.ToLower(strings.Fields(req.Q)[0])
	if kind == "select" || kind == "update" {
		if _, err := sqlmini.Parse(req.Q); err != nil {
			return server.Response{}, err
		}
		t1 = step(spanParse, t1)
	}
	resp := t.sess.Execute(req.Q)
	t2 := step(spanExecute+kind, t1)
	out := server.EncodeResponse(resp)
	step(spanEncode, t2)
	var got server.Response
	if err := json.Unmarshal(out, &got); err != nil {
		return server.Response{}, fmt.Errorf("decode response: %w", err)
	}
	return got, nil
}

// lagSampler samples the durability lag (published minus durable
// commit sequence numbers) every millisecond of a traced phase.
type lagSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startLagSampler(db *engine.DB) *lagSampler {
	s := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				durable := db.DurableSeq() // first: CommitSeq only grows, so the lag is never negative
				s.samples = append(s.samples, float64(db.CommitSeq()-durable))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *lagSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}
