// Command addsfuzz runs the generative differential-testing campaign: it
// generates random well-typed ADDS programs (internal/gen), loads each once
// and runs the difftest checks on it — the addslint validation,
// interpreter traces vs. static alias oracles, original vs. transformed
// execution, sequential vs. parallel analysis, and the SMG-lite vs.
// path-matrix cross-check — and reports every divergence minimized and
// content-addressed. The smg check's may-alias disagreements are precision
// deltas: logged and reported (the "deltas" field), never failures.
//
// Usage:
//
//	addsfuzz -seed 1 -budget 5000 -par 4
//	addsfuzz -profile list -budget 1000 -corpus out/corpus
//	addsfuzz -budget 5000 -log-format json   # machine-readable progress
//
// The JSON triage report goes to stdout and is deterministic for a given
// (seed, budget, profile) whatever the job count; progress goes to stderr
// as structured slog records (programs, execs/sec, divergences so far).
// Exit status 0 means the campaign ran clean, 7 (ExitDivergence) that it
// found at least one divergence, 2 flag misuse, 1 internal failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/adds"
	"repro/internal/cli"
	"repro/internal/difftest"
	"repro/internal/gen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored out so tests can drive it in-process.
// Internal panics are reported as a single line instead of a stack trace.
func run(args []string, stdout, stderr io.Writer) (status int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "addsfuzz: internal error: %v\n", r)
			status = adds.ExitInternal
		}
	}()

	fs := flag.NewFlagSet("addsfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "base seed; program i uses seed+i")
	budget := fs.Int("budget", 1000, "total number of generated programs")
	var jobs int
	fs.IntVar(&jobs, "par", 0, "parallel workers (0 = one per CPU)")
	fs.IntVar(&jobs, "jobs", 0, "alias for -par")
	profile := fs.String("profile", "", "comma-separated generation profiles (empty = all: "+profileNames()+")")
	corpus := fs.String("corpus", "", "directory for minimized repros and triage records")
	checks := fs.String("checks", "", "comma-separated checks (empty = all: "+strings.Join(difftest.AllChecks(), ",")+")")
	summaries := fs.Bool("summaries", true, "give the soundness and smg checks' path-matrix oracles interprocedural call summaries (false: all-args call havoc)")
	lf := cli.RegisterLogFlags(fs, "text")
	if err := fs.Parse(args); err != nil {
		return adds.ExitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: addsfuzz [flags]")
		return adds.ExitUsage
	}
	lg, err := lf.Logger(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "addsfuzz:", err)
		return cli.ExitCode(err)
	}
	if *budget <= 0 {
		fmt.Fprintln(stderr, "addsfuzz: -budget must be positive")
		return adds.ExitUsage
	}
	for _, name := range splitList(*profile) {
		if _, err := gen.ProfileByName(name); err != nil {
			fmt.Fprintln(stderr, "addsfuzz:", err)
			return adds.ExitUsage
		}
	}
	for _, name := range splitList(*checks) {
		if !slices.Contains(difftest.AllChecks(), name) {
			fmt.Fprintf(stderr, "addsfuzz: unknown check %q (have %s)\n", name, strings.Join(difftest.AllChecks(), ","))
			return adds.ExitUsage
		}
	}

	c := difftest.Campaign{
		Seed:      *seed,
		Budget:    *budget,
		Jobs:      jobs,
		Profiles:  splitList(*profile),
		CorpusDir: *corpus,
		// -summaries=false falls back to the all-args call havoc, so the
		// calls profile pits summarized and havoc-only analyses against the
		// same interpreter traces.
		Config: difftest.Config{Checks: splitList(*checks), Havoc: !*summaries},
	}

	// Progress: a counter the ticker below renders at most once a second,
	// so worker throughput never blocks on terminal writes.
	var done atomic.Int64
	c.Progress = func(d, total int) { done.Store(int64(d)) }

	lg.Info("campaign start", "seed", *seed, "budget", *budget, "jobs", jobs,
		"profiles", *profile, "checks", *checks, "summaries", *summaries)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	quit := make(chan struct{})
	ticking := make(chan struct{})
	go func() {
		defer close(ticking)
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				d := done.Load()
				el := time.Since(start).Seconds()
				lg.Info("campaign progress", "programs", d, "budget", *budget,
					"execsPerSec", int64(float64(d)/el))
			}
		}
	}()

	rep, err := c.Run(ctx)
	close(quit)
	<-ticking
	if err != nil {
		fmt.Fprintln(stderr, "addsfuzz:", err)
		return adds.ExitCode(err)
	}

	el := time.Since(start)
	lg.Info("campaign done", "programs", rep.Programs,
		"elapsed", el.Round(time.Millisecond),
		"execsPerSec", int64(float64(rep.Programs)/el.Seconds()),
		"divergences", len(rep.Divergences))
	for _, d := range rep.Divergences {
		lg.Warn("divergence", "check", d.Check, "profile", d.Profile,
			"seed", d.Seed, "hash", d.Hash, "minHash", d.MinHash,
			"minStmts", d.MinStmts)
	}
	// Precision deltas are triage signal, not failures: they never affect
	// the exit status.
	kinds := make([]string, 0, len(rep.Deltas))
	for kind := range rep.Deltas {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		lg.Info("precision delta", "kind", kind, "count", rep.Deltas[kind])
	}

	js, err := difftest.MarshalReport(rep)
	if err != nil {
		fmt.Fprintln(stderr, "addsfuzz:", err)
		return adds.ExitInternal
	}
	if _, err := stdout.Write(js); err != nil {
		fmt.Fprintln(stderr, "addsfuzz:", err)
		return adds.ExitInternal
	}
	if len(rep.Divergences) > 0 {
		fmt.Fprintf(stderr, "addsfuzz: %v\n", adds.ErrDivergence)
		return adds.ExitCode(adds.ErrDivergence)
	}
	return adds.ExitOK
}

func profileNames() string {
	var names []string
	for _, p := range gen.Profiles() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ",")
}

// splitList parses a comma-separated flag into a clean slice (nil when
// empty, so downstream defaults apply).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
