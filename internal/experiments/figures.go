package experiments

import (
	"fmt"

	"sicost/internal/node"
	"sicost/internal/smallbank"
	"sicost/internal/workload"
)

// Default workload shape shared by Figures 4–6, 8 and 9 (§IV): 18000
// customers, hotspot 1000, 90% of transactions on the hotspot, uniform
// mix.
const (
	defaultHotspot = 1000
	defaultHotProb = 0.9
)

// hotspotFor clamps the standard hotspot to the loaded table size (quick
// runs load fewer customers).
func hotspotFor(cfg Config, want int) int {
	if want >= cfg.Customers {
		return cfg.Customers / 2
	}
	return want
}

// runFig4 — eliminating ALL vulnerable edges on PostgreSQL: SI vs
// MaterializeALL vs PromoteALL.
func runFig4(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return throughputFigure("fig4", "Figure 4: costs for SI-serializability when eliminating ALL vulnerable edges (PostgreSQL)",
		cfg, node.PostgresDB(cfg.Scale), workload.UniformMix(), hotspotFor(cfg, defaultHotspot), defaultHotProb,
		[]*smallbank.Strategy{
			smallbank.StrategySI,
			smallbank.StrategyMaterializeALL,
			smallbank.StrategyPromoteALL,
		},
		"Paper shape: PromoteALL starts ~20% below SI and climbs to ~95%;",
		"MaterializeALL plateaus ~25% below SI.",
	)
}

// fig5Strategies are the four targeted repairs compared in Figure 5.
func fig5Strategies() []*smallbank.Strategy {
	return []*smallbank.Strategy{
		smallbank.StrategySI,
		smallbank.StrategyMaterializeBW,
		smallbank.StrategyPromoteBWUpd,
		smallbank.StrategyMaterializeWT,
		smallbank.StrategyPromoteWTUpd,
	}
}

// runFig5a — absolute throughput for the WT and BW options (PostgreSQL).
func runFig5a(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return throughputFigure("fig5a", "Figure 5(a): throughput over MPL, Options WT and BW (PostgreSQL)",
		cfg, node.PostgresDB(cfg.Scale), workload.UniformMix(), hotspotFor(cfg, defaultHotspot), defaultHotProb,
		fig5Strategies(),
		"Paper shape: PromoteWT indistinguishable from SI; MaterializeWT ~90% of SI's peak;",
		"BW options pay ~20% at MPL=1 (Balance must hit the log disk) and converge upward.",
	)
}

// runFig5b — the same data normalized to SI.
func runFig5b(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	abs, err := runFig5a(cfg)
	if err != nil {
		return nil, err
	}
	rel := relativeToFirst(abs, "fig5b", "Figure 5(b): throughput relative to SI (PostgreSQL)")
	rel.Notes = append(rel.Notes,
		"Paper shape: WT options ~100% at MPL=1; BW options ~80% at MPL=1 (the 5/4 disk-write ratio);",
		"the gap narrows as MPL grows — the reverse cost profile of Option WT.")
	return rel, nil
}

// runFig6 — serialization-failure abort rates per transaction type at
// MPL=20 on PostgreSQL.
func runFig6(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	res := &Result{
		ID: "fig6", Title: "Figure 6: serialization-failure abort rate by transaction type, MPL=20 (PostgreSQL)",
		XLabel: "transaction type", YLabel: "% aborted (serialization failure)",
		Notes: []string{
			"Paper shape: PromoteBW-upd shows markedly higher abort rates for Balance,",
			"DepositChecking and Amalgamate than SI or the other strategies, because the",
			"promoted Balance write conflicts with every updater of Checking.",
		},
	}
	strategies := fig5Strategies()
	for _, s := range strategies {
		cfg.logf("fig6: strategy %s", s.Name)
		series := Series{Name: s.Name}
		byType := make([][]float64, smallbank.NumTxnTypes)
		for rep := 0; rep < cfg.Reps; rep++ {
			out, err := cfg.run(node.PostgresDB(cfg.Scale), rep, workload.Config{
				Strategy:    s,
				MPL:         20,
				HotspotSize: hotspotFor(cfg, defaultHotspot), HotspotProb: defaultHotProb,
			})
			if err != nil {
				return nil, err
			}
			for t := 0; t < smallbank.NumTxnTypes; t++ {
				byType[t] = append(byType[t], 100*out.PerType[t].SerializationAbortRate())
			}
		}
		for t := 0; t < smallbank.NumTxnTypes; t++ {
			mean, ci := ci95(byType[t])
			series.Points = append(series.Points, Point{
				Label: smallbank.TxnType(t).String(), Mean: mean, CI: ci,
			})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// runFig7 — high contention: hotspot of 10 customers, 60% Balance mix.
func runFig7(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return throughputFigure("fig7", "Figure 7: costs with high contention (PostgreSQL; hotspot 10, 60% Balance)",
		cfg, node.PostgresDB(cfg.Scale), workload.BalanceHeavyMix(0.6), 10, defaultHotProb,
		[]*smallbank.Strategy{
			smallbank.StrategySI,
			smallbank.StrategyMaterializeBW,
			smallbank.StrategyPromoteBWUpd,
			smallbank.StrategyMaterializeWT,
			smallbank.StrategyPromoteWTUpd,
			smallbank.StrategyMaterializeALL,
			smallbank.StrategyPromoteALL,
		},
		"Paper shape: eliminating the WT edge costs almost nothing; MaterializeBW ~½ of SI;",
		"the ALL strategies bottom out around 40% of SI — the headline 'up to 60% lower throughput'.",
	)
}

// runFig8 — Option WT on the commercial platform (absolute + relative).
func runFig8(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	abs, err := throughputFigure("fig8a", "Figure 8(a): Option WT throughput (Commercial Platform)",
		cfg, node.CommercialDB(cfg.Scale), workload.UniformMix(), hotspotFor(cfg, defaultHotspot), defaultHotProb,
		[]*smallbank.Strategy{
			smallbank.StrategySI,
			smallbank.StrategyMaterializeWT,
			smallbank.StrategyPromoteWTSfu,
			smallbank.StrategyPromoteWTUpd,
		},
		"Paper shape: throughput peaks near MPL 20-25 then declines (per-session overhead);",
		"PromoteWT-sfu reaches SI's peak; materialization beats promotion-by-update here —",
		"the reverse of PostgreSQL (guideline 4).",
	)
	if err != nil {
		return nil, err
	}
	rel := relativeToFirst(abs, "fig8b", "Figure 8(b): throughput relative to SI (Commercial Platform)")
	return mergeResults("fig8", "Figure 8: eliminating the WT vulnerability (Commercial Platform)", abs, rel), nil
}

// runFig9 — Option BW on the commercial platform (absolute + relative).
func runFig9(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	abs, err := throughputFigure("fig9a", "Figure 9(a): Option BW throughput (Commercial Platform)",
		cfg, node.CommercialDB(cfg.Scale), workload.UniformMix(), hotspotFor(cfg, defaultHotspot), defaultHotProb,
		[]*smallbank.Strategy{
			smallbank.StrategySI,
			smallbank.StrategyMaterializeBW,
			smallbank.StrategyPromoteBWSfu,
			smallbank.StrategyPromoteBWUpd,
		},
		"Paper shape: every BW repair loses at least ~10% of peak; PromoteBW-upd peaks at",
		"~80% of SI's throughput.",
	)
	if err != nil {
		return nil, err
	}
	rel := relativeToFirst(abs, "fig9b", "Figure 9(b): throughput relative to SI (Commercial Platform)")
	return mergeResults("fig9", "Figure 9: eliminating the BW vulnerability (Commercial Platform)", abs, rel), nil
}

// mergeResults renders two panels as one result.
func mergeResults(id, title string, parts ...*Result) *Result {
	out := &Result{ID: id, Title: title}
	for _, p := range parts {
		out.Text += fmt.Sprintf("--- %s ---\n%s\n", p.Title, RenderTable(p))
		out.Notes = append(out.Notes, p.Notes...)
		p.Notes = nil
	}
	return out
}
