// Command sdgtool analyses a transaction-program mix with the Static
// Dependency Graph theory: it prints the SDG (vulnerable edges marked),
// the dangerous structures, the minimal sets of edges to repair, and —
// with -fix — the modified program mix after applying a technique.
//
// With no input file it analyses the built-in SmallBank mix. A custom
// mix is described in JSON:
//
//	{
//	  "programs": [
//	    {"name": "P", "accesses": [
//	      {"table": "T", "cols": ["V"], "param": "x", "kind": "r"},
//	      {"table": "U", "cols": ["V"], "param": "x", "kind": "w"}
//	    ]}
//	  ]
//	}
//
// kinds: "r" read, "w" write, "pr" predicate read. Add "fixed": true for
// constant-row accesses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sicost/internal/advisor"
	"sicost/internal/node"
	"sicost/internal/sdg"
	"sicost/internal/smallbank"
)

type jsonAccess struct {
	Table string   `json:"table"`
	Cols  []string `json:"cols"`
	Param string   `json:"param"`
	Fixed bool     `json:"fixed"`
	Kind  string   `json:"kind"`
}

type jsonProgram struct {
	Name     string       `json:"name"`
	Accesses []jsonAccess `json:"accesses"`
}

type jsonMix struct {
	Programs []jsonProgram `json:"programs"`
}

func parseMix(path string) ([]*sdg.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mix jsonMix
	if err := json.Unmarshal(data, &mix); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	var progs []*sdg.Program
	for _, jp := range mix.Programs {
		p := &sdg.Program{Name: jp.Name}
		for _, ja := range jp.Accesses {
			var kind sdg.AccessKind
			switch ja.Kind {
			case "r":
				kind = sdg.Read
			case "w":
				kind = sdg.Write
			case "pr":
				kind = sdg.PredRead
			default:
				return nil, fmt.Errorf("program %s: unknown access kind %q", jp.Name, ja.Kind)
			}
			p.Accesses = append(p.Accesses, sdg.Access{
				Table: ja.Table, Cols: ja.Cols, Param: ja.Param, Fixed: ja.Fixed, Kind: kind,
			})
		}
		progs = append(progs, p)
	}
	return progs, nil
}

func main() {
	var (
		input    = flag.String("mix", "", "JSON program-mix file (default: built-in SmallBank)")
		fix      = flag.String("fix", "", "apply a repair: '<from>-><to>:<materialize|promote-upd|promote-sfu>' or 'all:<technique>'")
		dot      = flag.Bool("dot", false, "emit Graphviz dot instead of the text report")
		advise   = flag.Bool("advise", false, "rank repair options by predicted throughput (the paper's future-work tool)")
		platName = flag.String("platform", "postgres", "platform profile for -advise: postgres or commercial")
		mpl      = flag.Int("mpl", 20, "MPL for -advise predictions")
		hotspot  = flag.Int("hotspot", 1000, "hotspot size for -advise predictions")
	)
	flag.Parse()

	var progs []*sdg.Program
	var err error
	if *input == "" {
		progs = smallbank.BasePrograms()
	} else if progs, err = parseMix(*input); err != nil {
		fmt.Fprintln(os.Stderr, "sdgtool:", err)
		os.Exit(1)
	}

	if *fix != "" {
		progs, err = applyFix(progs, *fix)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdgtool:", err)
			os.Exit(1)
		}
	}

	if *advise {
		if err := runAdvise(progs, *platName, *mpl, *hotspot); err != nil {
			fmt.Fprintln(os.Stderr, "sdgtool:", err)
			os.Exit(1)
		}
		return
	}

	out, err := report(progs, *dot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdgtool:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// report renders the command's main output for a program mix: the SDG
// text report, or its Graphviz form when dot is set.
func report(progs []*sdg.Program, dot bool) (string, error) {
	g, err := sdg.New(progs...)
	if err != nil {
		return "", err
	}
	if dot {
		return g.ToDOT("sdg"), nil
	}
	return g.Describe(), nil
}

// runAdvise ranks repair options with the analytic performance model
// (internal/advisor), assuming a uniform transaction mix over the
// programs.
func runAdvise(progs []*sdg.Program, platName string, mpl, hotspot int) error {
	weights := make(map[string]float64, len(progs))
	for _, p := range progs {
		weights[p.Name] = 1.0 / float64(len(progs))
	}
	engCfg, err := node.Config(platName, "si", 1)
	if err != nil {
		return err
	}
	plat := advisor.PlatformOf(engCfg)
	preds, err := advisor.Advise(progs, advisor.Workload{
		Weights: weights, HotspotSize: hotspot, HotspotProb: 0.9, MPL: mpl,
	}, plat)
	if err != nil {
		return err
	}
	fmt.Printf("Repair options ranked by predicted throughput (%s, MPL %d, hotspot %d):\n\n",
		platName, mpl, hotspot)
	fmt.Print(advisor.Render(preds))
	fmt.Println("\nRecommended:", preds[0].Option.Name)
	return nil
}

func parseTechnique(s string) (sdg.Technique, error) {
	switch s {
	case "materialize":
		return sdg.Materialize, nil
	case "promote-upd":
		return sdg.PromoteUpdate, nil
	case "promote-sfu":
		return sdg.PromoteSFU, nil
	default:
		return 0, fmt.Errorf("unknown technique %q (want materialize, promote-upd or promote-sfu)", s)
	}
}

func applyFix(progs []*sdg.Program, spec string) ([]*sdg.Program, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -fix %q (want 'edge:technique')", spec)
	}
	tech, err := parseTechnique(parts[1])
	if err != nil {
		return nil, err
	}
	if parts[0] == "all" {
		out, mods, err := sdg.NeutralizeAll(progs, tech)
		if err != nil {
			return nil, err
		}
		reportMods(mods)
		return out, nil
	}
	ft := strings.SplitN(parts[0], "->", 2)
	if len(ft) != 2 {
		return nil, fmt.Errorf("bad edge %q (want 'From->To')", parts[0])
	}
	g, err := sdg.New(progs...)
	if err != nil {
		return nil, err
	}
	edge := g.Edge(ft[0], ft[1])
	if edge == nil {
		return nil, fmt.Errorf("no edge %s->%s in the SDG", ft[0], ft[1])
	}
	out, mods, err := sdg.Neutralize(progs, edge, tech)
	if err != nil {
		return nil, err
	}
	reportMods(mods)
	return out, nil
}

func reportMods(mods []sdg.Modification) {
	fmt.Print(describeMods(mods))
}

// describeMods renders the applied-modification block printed before a
// -fix report. Sorts its argument.
func describeMods(mods []sdg.Modification) string {
	sdg.SortModifications(mods)
	var b strings.Builder
	b.WriteString("Applied modifications:\n")
	for _, m := range mods {
		fmt.Fprintf(&b, "  %-12s += %s   (%s, edge %s)\n", m.Program, m.Add, m.Technique, m.Edge)
	}
	b.WriteString("\n")
	return b.String()
}
