package main

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"sicost/internal/smallbank"
)

// Sizes shared by every workload: the paper's table size and a closed
// loop of two clients, one per vCPU of the reference machine.
const (
	customers = 18000
	clients   = 2
	// warmup runs the clients before the measured interval, so the
	// load's log flush and the first allocations of every code path are
	// done when timing starts.
	warmup = time.Second
	// setups is how many times a timed run assembles the node; setup_s
	// is their median.
	setups = 5
	// maxAttempts bounds the retries of one logical transaction; running
	// out counts toward error_rate. The bound sits far above the longest
	// retry streak backoff leaves, so only a livelock counts as a failure.
	maxAttempts = 10000
	// Retry backoff (see client.backoff): immediate retries for the
	// first backoffAfter aborts in a row, then a random wait of up to
	// backoffBase, doubling per further abort up to backoffMax. Without
	// it, on engine-hotspot a WriteCheck or Amalgamate on a hot customer
	// and the other client's transaction could doom each other hundreds
	// to 10000 times in a row, so about one logical transaction in 10^6
	// ran out of attempts and a run's failed count was 0, 1 or 2 by
	// chance.
	backoffAfter = 8
	backoffBase  = 10 * time.Microsecond
	backoffMax   = time.Millisecond
)

// spec is one workload: the transaction stream and the path it takes.
type spec struct {
	name string
	// wire sends the stream as SQL text over TCP through the server;
	// otherwise the clients call the smallbank programs on the engine.
	wire bool
	// balanceOnly restricts the mix to Balance; otherwise the five
	// programs are drawn uniformly (the paper's default mix).
	balanceOnly bool
	// hotspot customers receive hotProb of all draws (§IV).
	hotspot int
	hotProb float64
}

// workloads are the benchmark's workloads. wire-mix is the north-star
// path (a durable update through every layer); wire-read takes the same
// server, parser and snapshot reads with no write and no log record, so
// a log or commit-path change predicts no change there; engine-hotspot
// drops the socket and the parser to isolate SSI tracking, lock and
// version-chain work and abort/retry waste at the paper's
// high-contention setting.
var workloads = map[string]spec{
	"wire-mix":       {name: "wire-mix", wire: true, hotspot: 1000, hotProb: 0.9},
	"wire-read":      {name: "wire-read", wire: true, balanceOnly: true, hotspot: 1000, hotProb: 0.9},
	"engine-hotspot": {name: "engine-hotspot", hotspot: 10, hotProb: 0.9},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// txnReq is one generated logical transaction: the program, its
// customers (by index; the name is smallbank.CustomerName) and amount.
type txnReq struct {
	typ    smallbank.TxnType
	c1, c2 int
	v      int64
}

func (r txnReq) params() smallbank.Params {
	p := smallbank.Params{N1: smallbank.CustomerName(r.c1), V: r.v}
	if r.typ == smallbank.Amalgamate {
		p.N2 = smallbank.CustomerName(r.c2)
	}
	return p
}

// generator draws the transaction stream. It alone decides program,
// customers and amounts; the server and the engine only ever see the
// SQL text or the smallbank.Params made from its output.
type generator struct {
	rng       *rand.Rand
	s         spec
	customers int
}

// newGenerator seeds client i's stream from the run seed, so a seed
// fixes every client's stream.
func newGenerator(s spec, customers int, seed int64, i int) *generator {
	return &generator{rng: rand.New(rand.NewSource(clientSeed(seed, i))), s: s, customers: customers}
}

// clientSeed is client i's share of the run seed.
func clientSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func (g *generator) next() txnReq {
	r := txnReq{typ: smallbank.Balance}
	if !g.s.balanceOnly {
		r.typ = smallbank.TxnType(g.rng.Intn(smallbank.NumTxnTypes))
	}
	r.c1 = g.customer()
	switch r.typ {
	case smallbank.Amalgamate:
		r.c2 = g.customer()
		for r.c2 == r.c1 {
			r.c2 = g.customer()
		}
	case smallbank.DepositChecking:
		r.v = 1 + g.rng.Int63n(100_00)
	case smallbank.TransactSaving:
		// Mostly deposits, some withdrawals: a withdrawal past the
		// savings balance is the program's application rollback.
		r.v = g.rng.Int63n(200_00) - 50_00
	case smallbank.WriteCheck:
		r.v = 1 + g.rng.Int63n(50_00)
	}
	return r
}

// customer draws from the hotspot with probability hotProb, otherwise
// uniformly from the rest of the table.
func (g *generator) customer() int {
	hot := min(g.s.hotspot, g.customers)
	if g.rng.Float64() < g.s.hotProb || hot == g.customers {
		return g.rng.Intn(hot)
	}
	return hot + g.rng.Intn(g.customers-hot)
}
