// Command tracecheck validates and summarizes a transaction-lifecycle
// trace in the JSONL wire format (internal/trace). It is the consumer
// side of `smallbank -trace out.jsonl`: the CI trace-smoke target runs
// it over a short capture to pin both the schema (every line must
// decode) and the lifecycle invariants (begin-before-use, one terminal
// event per transaction, paired lock waits, taxonomy-bounded reasons).
//
// With -check it additionally replays the stream through the online
// windowed isolation checker (internal/onlinecheck): dependency cycles
// and — under -mode si or ssi — snapshot-isolation rule violations are
// reported with their structured evidence, and the exit status turns
// nonzero. A recorded anomaly thereby becomes a regression artifact:
// commit the JSONL, and `tracecheck -check` re-convicts it forever.
//
// Usage:
//
//	tracecheck run.jsonl
//	tracecheck -check -mode si run.jsonl
//	smallbank -trace /dev/stdout ... | tracecheck -allow-gaps -q -
//
// -allow-gaps relaxes the wait/wake pairing and terminal-event checks
// for truncated captures (the recorder drops events rather than block
// when a ring fills); schema-level checks still apply. Exit status is 0
// for a valid stream, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sicost/internal/core"
	"sicost/internal/onlinecheck"
	"sicost/internal/trace"
)

func main() {
	allowGaps := flag.Bool("allow-gaps", false, "tolerate truncated streams (unpaired waits, missing terminals)")
	quiet := flag.Bool("q", false, "suppress the summary; only report validity")
	check := flag.Bool("check", false, "replay the stream through the online isolation checker")
	mode := flag.String("mode", "si", "isolation expectation for -check: si or ssi enforce the SI read/write rules, 2pl checks cycles only")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tracecheck [-allow-gaps] [-q] [-check [-mode si|ssi|2pl]] <trace.jsonl | ->\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), options{
		allowGaps: *allowGaps, quiet: *quiet, check: *check, mode: *mode,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
		os.Exit(1)
	}
}

// options carries the flag set into run, which tests drive directly.
type options struct {
	allowGaps, quiet, check bool
	mode                    string
}

func run(out io.Writer, path string, opts options) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	events, err := trace.ParseJSONL(in)
	if err != nil {
		return err
	}
	if err := trace.ValidateWith(events, trace.ValidateOptions{AllowGaps: opts.allowGaps}); err != nil {
		return err
	}
	if !opts.quiet {
		fmt.Fprintln(out, trace.Summarize(events))
	}
	if opts.check {
		mode, err := core.ParseMode(opts.mode)
		if err != nil {
			return err
		}
		rep := onlinecheck.Run(events, onlinecheck.Config{SIRules: mode != core.Strict2PL})
		fmt.Fprint(out, rep.Describe())
		if !rep.Serializable || rep.SIViolations != 0 {
			return fmt.Errorf("isolation violations detected (%d cycle(s), %d SI-rule violation(s))",
				rep.Stats.Cycles, rep.SIViolations)
		}
	}
	fmt.Fprintf(out, "ok: %d events\n", len(events))
	return nil
}
