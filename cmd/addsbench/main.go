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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/adds"
	"repro/internal/cli"
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
	par := cli.RegisterPar(fs, "experiment")
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
			type row struct {
				ID    string `json:"id"`
				Title string `json:"title"`
			}
			rows := []row{}
			for _, d := range adds.ExperimentDefs() {
				rows = append(rows, row{ID: d.ID, Title: d.Title})
			}
			return writeIndentedJSON(stdout, stderr, fail, rows)
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

	// Run experiments with a bounded worker pool, buffering each report so
	// output order matches request order regardless of worker scheduling.
	workers, note := effectiveWorkers(*par, *cpuprofile != "", len(toRun))
	if note != "" {
		fmt.Fprintln(stderr, "addsbench:", note)
	}
	start := time.Now()
	reports := make([]*adds.Report, len(toRun))
	if workers <= 1 {
		for i, d := range toRun {
			reports[i] = d.Run()
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		panics := make([]any, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panics[w] = r
						for range next { // keep the feeder unblocked
						}
					}
				}()
				for i := range next {
					reports[i] = toRun[i].Run()
				}
			}(w)
		}
		for i := range toRun {
			next <- i
		}
		close(next)
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p) // surface on the caller, where run's recover formats it
			}
		}
	}
	lg.Debug("experiments complete", "count", len(reports), "workers", workers,
		"elapsed", time.Since(start))

	if *format == "json" {
		if s := writeIndentedJSON(stdout, stderr, fail, reports); s != 0 {
			return s
		}
		return status
	}
	for _, rep := range reports {
		fmt.Fprintln(stdout, rep.Format())
	}
	return status
}

// effectiveWorkers bounds the worker pool. A CPU profile and a parallel run
// do not mix — pprof samples every goroutine into one profile, so -par N
// turns the per-experiment attribution into an unreadable interleaving; when
// both are requested the experiments run serially and the caller is told.
func effectiveWorkers(par int, profiling bool, n int) (workers int, note string) {
	workers = par
	if workers <= 0 || workers > n {
		workers = n
	}
	if profiling && workers > 1 {
		return 1, fmt.Sprintf("-cpuprofile forces serial execution (ignoring -par %d)", par)
	}
	return workers, ""
}

func writeIndentedJSON(stdout, stderr io.Writer, fail func(error) int, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return fail(err)
	}
	return 0
}
