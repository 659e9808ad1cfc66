// Package experiments defines one runner per table and figure of the
// paper's evaluation (§IV), plus the ablation studies listed in
// DESIGN.md. Each experiment builds the appropriate platform profile,
// loads SmallBank, drives the closed-system workload across the
// configured MPLs and renders the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"sicost/internal/engine"
	"sicost/internal/metrics"
	"sicost/internal/node"
	"sicost/internal/smallbank"
	"sicost/internal/workload"
)

// Config controls how much work an experiment run does. The zero value
// is filled with quick defaults (a full figure in tens of seconds); the
// cmd/sibench flags expose paper-scale settings.
type Config struct {
	// Scale multiplies every simulated-hardware duration (1 = default
	// profile; 4 ≈ the paper's hardware speed).
	Scale float64
	// Ramp and Measure are the warm-up and measurement intervals per
	// point (the paper uses 30s + 60s).
	Ramp, Measure time.Duration
	// Reps repeats each point; results carry 95% confidence intervals
	// (the paper uses 5).
	Reps int
	// MPLs is the multiprogramming-level sweep.
	MPLs []int
	// Customers is the table size (the paper loads 18000).
	Customers int
	Seed      int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Defaults fills unset fields with the quick profile.
func (c Config) Defaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Ramp == 0 {
		c.Ramp = 100 * time.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 400 * time.Millisecond
	}
	if c.Reps == 0 {
		c.Reps = 2
	}
	if len(c.MPLs) == 0 {
		c.MPLs = []int{1, 3, 5, 10, 15, 20, 25, 30}
	}
	if c.Customers == 0 {
		c.Customers = 18000
	}
	if c.Seed == 0 {
		c.Seed = 20080407 // ICDE 2008
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Point is one measured value of a series.
type Point struct {
	// Label is the x-coordinate: an MPL ("10") or a transaction type
	// ("Balance").
	Label string
	Mean  float64
	CI    float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Point returns the point with the given label, or nil.
func (s *Series) Point(label string) *Point {
	for i := range s.Points {
		if s.Points[i].Label == label {
			return &s.Points[i]
		}
	}
	return nil
}

// Result is a fully rendered experiment outcome.
type Result struct {
	ID, Title      string
	XLabel, YLabel string
	Series         []Series
	// Notes carries shape expectations and caveats shown with the data.
	Notes []string
	// Text is pre-rendered non-tabular output (static analyses).
	Text string
}

// Experiment is one table/figure runner.
type Experiment struct {
	ID, Title string
	Run       func(cfg Config) (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: tables updated by each strategy", runTable1},
		{"fig1", "Figure 1: SDG for the SmallBank benchmark", runFig1},
		{"fig2", "Figure 2: SDG for Option WT", runFig2},
		{"fig3", "Figure 3: SDGs for Option BW", runFig3},
		{"fig4", "Figure 4: eliminating ALL vulnerable edges (PostgreSQL)", runFig4},
		{"fig5a", "Figure 5(a): Option WT and BW throughput (PostgreSQL)", runFig5a},
		{"fig5b", "Figure 5(b): throughput relative to SI (PostgreSQL)", runFig5b},
		{"fig6", "Figure 6: serialization-failure abort rates at MPL=20 (PostgreSQL)", runFig6},
		{"fig7", "Figure 7: high contention — hotspot 10, 60% Balance (PostgreSQL)", runFig7},
		{"fig8", "Figure 8: Option WT on the commercial platform", runFig8},
		{"fig9", "Figure 9: Option BW on the commercial platform", runFig9},
		{"anomaly", "Anomaly validation: SI corrupts, strategies do not", runAnomaly},
		{"ablation-fixedrow", "Ablation: per-customer vs single-row materialization", runAblationFixedRow},
		{"ablation-groupcommit", "Ablation: group commit on/off", runAblationGroupCommit},
		{"ablation-engine", "Extension: SSI and 2PL engine modes vs app-level strategies", runAblationEngine},
		{"ablation-hotspot", "Ablation: hotspot-size sweep between Fig 5 and Fig 7", runAblationHotspot},
		{"ablation-advisor", "Extension: analytic advisor predictions vs measured throughput", runAblationAdvisor},
		{"ablation-latency", "Ablation: mean response time over MPL", runAblationLatency},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// run measures one repetition of one point: it opens a freshly loaded
// engine, drives w on it with the run's customers, intervals and the
// repetition's seed, and closes it.
func (c Config) run(engCfg engine.Config, rep int, w workload.Config) (*workload.Result, error) {
	n, err := node.Open(node.Options{Engine: engCfg, Customers: c.Customers, Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	defer n.Close()
	w.Customers, w.Ramp, w.Measure = c.Customers, c.Ramp, c.Measure
	w.Seed = c.Seed + int64(rep+1)*104729
	return workload.Run(n.DB, w)
}

// measure runs cfg.Reps repetitions of w on fresh engines and returns
// the mean of metric over them with its 95% confidence interval.
func (c Config) measure(engCfg engine.Config, w workload.Config, metric func(*workload.Result) float64) (mean, ci float64, err error) {
	xs := make([]float64, c.Reps)
	for rep := range xs {
		res, err := c.run(engCfg, rep, w)
		if err != nil {
			return 0, 0, err
		}
		xs[rep] = metric(res)
	}
	mean, ci = metrics.CI95(xs)
	return mean, ci, nil
}

// tps is measure's throughput metric.
func tps(r *workload.Result) float64 { return r.TPS }

// runSweep measures the TPS of w at each MPL with cfg.Reps repetitions
// and returns the series with 95% confidence intervals.
func runSweep(name string, engCfg engine.Config, w workload.Config, cfg Config) (Series, error) {
	s := Series{Name: name}
	for _, mpl := range cfg.MPLs {
		w.MPL = mpl
		mean, ci, err := cfg.measure(engCfg, w, tps)
		if err != nil {
			return s, err
		}
		s.Points = append(s.Points, Point{Label: fmt.Sprintf("%d", mpl), Mean: mean, CI: ci})
		cfg.logf("  %-22s MPL %-3d  %8.0f TPS ±%.0f", name, mpl, mean, ci)
	}
	return s, nil
}

// throughputFigure runs a set of strategies over the MPL sweep on one
// platform profile.
func throughputFigure(id, title string, cfg Config, engCfg engine.Config, mix workload.Mix,
	hotspot int, hotProb float64, strategies []*smallbank.Strategy, notes ...string) (*Result, error) {

	res := &Result{
		ID: id, Title: title,
		XLabel: "MPL", YLabel: "TPS",
		Notes: notes,
	}
	for _, s := range strategies {
		cfg.logf("%s: strategy %s", id, s.Name)
		series, err := runSweep(s.Name, engCfg, workload.Config{
			Strategy: s, Mix: mix, HotspotSize: hotspot, HotspotProb: hotProb,
		}, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// relativeToFirst converts an absolute-TPS result into one normalized to
// its first series (SI), as the paper's 5(b)/8(b)/9(b) panels do.
func relativeToFirst(abs *Result, id, title string) *Result {
	rel := &Result{
		ID: id, Title: title,
		XLabel: abs.XLabel, YLabel: "% of SI throughput",
		Notes: abs.Notes,
	}
	if len(abs.Series) == 0 {
		return rel
	}
	base := abs.Series[0]
	for _, s := range abs.Series[1:] {
		out := Series{Name: s.Name}
		for _, p := range s.Points {
			bp := base.Point(p.Label)
			if bp == nil || bp.Mean == 0 {
				continue
			}
			out.Points = append(out.Points, Point{
				Label: p.Label,
				Mean:  100 * p.Mean / bp.Mean,
				CI:    100 * p.CI / bp.Mean,
			})
		}
		rel.Series = append(rel.Series, out)
	}
	return rel
}
