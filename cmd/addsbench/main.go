// Command addsbench regenerates the paper's evaluation artifacts (the
// experiment index E1-E10 in DESIGN.md): worked path matrices, dependence
// graphs, the pipelining derivation with theoretical and measured speedups,
// the unrolling sweep, and the baseline comparisons.
//
// Usage:
//
//	addsbench            # run every experiment
//	addsbench E4 E6      # run selected experiments
//	addsbench -par 4     # run experiments concurrently (same output)
//	addsbench -list      # list experiment ids and titles
//	addsbench -format json E4
//
// Exit codes follow the shared adds convention: 0 ok, 1 internal or unknown
// experiment, 2 flag misuse; typed facade errors surfacing from experiment
// code keep their shared codes via adds.ExitCode.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/adds"
	"repro/internal/cli"
	"repro/internal/jsonw"
	"repro/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored out so tests can drive it in-process.
// Internal panics are reported as a single line instead of a stack trace.
func run(args []string, stdout, stderr io.Writer) (status int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "addsbench: internal error: %v\n", r)
			status = 1
		}
	}()

	fs := flag.NewFlagSet("addsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments without running them")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	parFlag := cli.RegisterPar(fs, "experiment")
	format := cli.RegisterFormat(fs, "text", "text", "json")
	lf := cli.RegisterLogFlags(fs, "text")
	if err := fs.Parse(args); err != nil {
		return adds.ExitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "addsbench:", err)
		return cli.ExitCode(err)
	}
	if err := cli.CheckFormat("addsbench", *format, "text", "json"); err != nil {
		return fail(err)
	}
	lg, err := lf.Logger(stderr)
	if err != nil {
		return fail(err)
	}

	if *list {
		if *format == "json" {
			doc := []byte{'['}
			for i, d := range adds.ExperimentDefs() {
				if i > 0 {
					doc = append(doc, ',')
				}
				doc = append(doc, `{"id":`...)
				doc = jsonw.StringNoHTML(doc, d.ID)
				doc = append(doc, `,"title":`...)
				doc = jsonw.StringNoHTML(doc, d.Title)
				doc = append(doc, '}')
			}
			return writeIndented(stdout, fail, append(doc, ']'))
		}
		for _, d := range adds.ExperimentDefs() {
			fmt.Fprintf(stdout, "%-4s %s\n", d.ID, d.Title)
		}
		return 0
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Resolve the requested ids (all of them when none are named) against the
	// registry before running anything.
	defs := adds.ExperimentDefs()
	byID := map[string]adds.ExperimentDef{}
	for _, d := range defs {
		byID[strings.ToUpper(d.ID)] = d
	}
	toRun := defs
	if ids := fs.Args(); len(ids) > 0 {
		toRun = nil
		for _, id := range ids {
			d, ok := byID[strings.ToUpper(id)]
			if !ok {
				fmt.Fprintf(stderr, "addsbench: unknown experiment %q (try -list)\n", id)
				status = 1
				continue
			}
			toRun = append(toRun, d)
		}
	}

	// Run experiments on at most -par workers, buffering each report so
	// output order matches request order regardless of worker scheduling.
	// A panicking experiment surfaces here, where run's recover formats it.
	workers, note := effectiveWorkers(*parFlag, *cpuprofile != "")
	if note != "" {
		fmt.Fprintln(stderr, "addsbench:", note)
	}
	start := time.Now()
	reports := make([]*adds.Report, len(toRun))
	par.Each(context.Background(), len(toRun), workers, func(i int) error { //nolint:errcheck // never fails: no ctx, f returns nil
		reports[i] = toRun[i].Run()
		return nil
	})
	lg.Debug("experiments complete", "count", len(reports), "workers", workers,
		"elapsed", time.Since(start))

	if *format == "json" {
		doc := []byte{'['}
		for i, rep := range reports {
			if i > 0 {
				doc = append(doc, ',')
			}
			doc = rep.AppendJSON(doc)
		}
		if s := writeIndented(stdout, fail, append(doc, ']')); s != 0 {
			return s
		}
		return status
	}
	for _, rep := range reports {
		fmt.Fprintln(stdout, rep.Format())
	}
	return status
}

// effectiveWorkers applies the -cpuprofile rule to -par. A CPU profile and
// a parallel run do not mix — pprof samples every goroutine into one
// profile, so -par N turns the per-experiment attribution into an
// unreadable interleaving; when both are requested the experiments run
// serially and the caller is told.
func effectiveWorkers(n int, profiling bool) (workers int, note string) {
	if profiling && n != 1 {
		return 1, fmt.Sprintf("-cpuprofile forces serial execution (ignoring -par %d)", n)
	}
	return n, ""
}

// writeIndented prints the compact document doc laid out as the indenting,
// non-HTML-escaping json.Encoder that -format json used to go through.
func writeIndented(stdout io.Writer, fail func(error) int, doc []byte) int {
	if _, err := stdout.Write(jsonw.Indent(nil, doc)); err != nil {
		return fail(err)
	}
	return 0
}
