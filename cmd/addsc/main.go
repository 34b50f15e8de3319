// Command addsc is the analysis driver: it parses a mini source file and
// prints, per function, whatever the -show flags request — path matrices,
// dependence graphs (optionally DOT), pseudo-assembly, or the software
// pipelining derivation.
//
// Usage:
//
//	addsc -fn shift -show matrix,deps prog.mini
//	addsc -fn shift -show pipeline -width 8 prog.mini
//	addsc -fn shift -oracle conservative -show deps prog.mini
//	addsc -show check prog.mini          # parse + type-check only
//	addsc -par 4 -show matrix prog.mini  # analyze functions in parallel
//	addsc -format json prog.mini         # the addsd wire encoding, to stdout
//	addsc -trace -fn shift prog.mini     # span tree of the run, to stderr
//
// Exit codes are shared across the adds tools: 0 ok, 1 internal, 2 usage,
// 3 source error, 4 unknown function, 5 no such loop, 6 bad width.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/respond"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored out so tests can drive it in-process.
// Internal panics (analysis bugs, not user errors) are reported as a single
// line instead of a stack trace.
func run(args []string, stdout, stderr io.Writer) (status int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "addsc: internal error: %v\n", r)
			status = 1
		}
	}()

	fs := flag.NewFlagSet("addsc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fn := fs.String("fn", "", "function to analyze (default: every function)")
	show := fs.String("show", "matrix", "comma-separated: check,ir,matrix,iter,deps,dot,validate,pipeline,unroll")
	width := fs.Int("width", 8, "VLIW width for -show pipeline (at least 1)")
	unroll := fs.Int("unroll", 3, "factor for -show unroll")
	trace := fs.Bool("trace", false, "trace the run and render the span tree to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	of := cli.RegisterOracleFlags(fs)
	par := cli.RegisterPar(fs, "analysis")
	format := cli.RegisterFormat(fs, "text", "text", "json")
	lf := cli.RegisterLogFlags(fs, "text")
	if err := fs.Parse(args); err != nil {
		return adds.ExitUsage
	}

	// fail reports one error the one-line way and picks the shared exit code
	// for its class, so scripts can branch on status without parsing text.
	fail := func(err error) int {
		fmt.Fprintln(stderr, "addsc:", err)
		return cli.ExitCode(err)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: addsc [flags] file.mini")
		fs.Usage()
		return adds.ExitUsage
	}
	if err := cli.CheckFormat("addsc", *format, "text", "json"); err != nil {
		return fail(err)
	}
	lg, err := lf.Logger(stderr)
	if err != nil {
		return fail(err)
	}
	oracleName, err := of.Canonical()
	if err != nil {
		return fail(err)
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
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}

	known := map[string]bool{
		"check": true, "ir": true, "matrix": true, "iter": true, "deps": true,
		"dot": true, "validate": true, "pipeline": true, "unroll": true,
	}
	wants := map[string]bool{}
	for _, s := range strings.Split(*show, ",") {
		s = strings.TrimSpace(s)
		if !known[s] {
			fmt.Fprintf(stderr, "addsc: unknown -show item %q (known: check,ir,matrix,iter,deps,dot,validate,pipeline,unroll)\n", s)
			return adds.ExitUsage
		}
		wants[s] = true
	}
	// One width check for both formats, before any analysis runs.
	if wants["pipeline"] && *width < 1 {
		return fail(fmt.Errorf("%w: %d", adds.ErrBadWidth, *width))
	}

	// With -trace the whole run happens under one root span; every phase the
	// facade opens (parse, typecheck, shape, normalize, fixpoint, ir, and the
	// transformation helpers) nests below it, and the tree renders to stderr
	// on the way out — including failed runs, where the partial tree shows
	// which phase died.
	ctx := context.Background()
	var tracer *obs.Tracer
	var root *obs.Span
	if *trace {
		tracer = obs.NewTracer(1)
		ctx, root = tracer.StartRoot(ctx, "addsc", obs.TraceID{})
		defer func() {
			root.End()
			t := tracer.Ring().Get(root.TraceID())
			obs.WriteTree(stderr, t)
		}()
	}

	// JSON mode goes through the same builders as the addsd endpoints, so
	// the CLI and the daemon can never disagree about the wire encoding.
	if *format == "json" {
		return runJSON(ctx, stdout, stderr, fail, string(src), *fn, of.Name, of.K, *par, *width, wants["pipeline"])
	}

	unit, err := adds.LoadCtx(ctx, src)
	if err != nil {
		return fail(err)
	}

	if wants["check"] && len(wants) == 1 {
		fmt.Fprintln(stdout, "ok")
		return 0
	}

	// Analyze up front — all functions in parallel, or just the requested
	// one — then print in source order so output is deterministic.
	var fns []string
	analyses := map[string]*adds.Analysis{}
	if *fn != "" {
		an, err := unit.AnalyzeOpt(ctx, *fn)
		if err != nil {
			return fail(err)
		}
		fns = []string{*fn}
		analyses[*fn] = an
	} else {
		analyses, err = unit.AnalyzeAllOpt(ctx, adds.WithWorkers(*par))
		if err != nil {
			return fail(err)
		}
		for _, fd := range unit.Prog.Funcs {
			fns = append(fns, fd.Name)
		}
	}
	lg.Debug("analysis complete", "functions", len(fns), "oracle", oracleName)

	for _, name := range fns {
		an := analyses[name]
		fmt.Fprintf(stdout, "=== function %s ===\n", name)

		// The name was validated above, so construction cannot fail.
		oracle, err := an.OracleNamed(ctx, oracleName, of.K)
		if err != nil {
			return fail(err)
		}

		if wants["ir"] {
			fmt.Fprintln(stdout, "pseudo-assembly:")
			fmt.Fprintln(stdout, an.IR().String())
		}
		if wants["validate"] {
			fmt.Fprintln(stdout, "abstraction validation (Section 5.1.1):")
			fmt.Fprint(stdout, an.Validation().Report())
		}
		if wants["matrix"] {
			fmt.Fprintln(stdout, "path matrix at exit:")
			fmt.Fprintln(stdout, an.ExitMatrix().String())
			for i := 0; i < an.Loops(); i++ {
				fmt.Fprintf(stdout, "path matrix at loop %d fixed point:\n", i)
				fmt.Fprintln(stdout, an.LoopMatrix(i).String())
			}
		}
		if wants["iter"] {
			for i := 0; i < an.Loops(); i++ {
				fmt.Fprintf(stdout, "iteration (primed) matrix for loop %d:\n", i)
				fmt.Fprintln(stdout, an.IterationMatrix(i).String())
			}
		}
		if wants["deps"] || wants["dot"] {
			for i := 0; i < an.Loops(); i++ {
				dg := an.DependencesCtx(ctx, i, oracle)
				if wants["deps"] {
					fmt.Fprintln(stdout, dg.String())
				}
				if wants["dot"] {
					fmt.Fprintln(stdout, dg.DOT())
				}
			}
		}
		if wants["pipeline"] {
			for i := 0; i < an.Loops(); i++ {
				prog, info, err := an.PipelineCtx(ctx, i, *width)
				if err != nil {
					fmt.Fprintf(stdout, "loop %d: not pipelined: %v\n", i, err)
					continue
				}
				fmt.Fprintf(stdout, "loop %d pipelined (II=%d, theoretical speedup %.1f):\n",
					i, info.II, info.Theoretic)
				fmt.Fprintln(stdout, prog.String())
			}
		}
		if wants["unroll"] {
			for i := 0; i < an.Loops(); i++ {
				u, err := an.UnrollCtx(ctx, i, *unroll)
				if err != nil {
					fmt.Fprintf(stdout, "loop %d: not unrolled: %v\n", i, err)
					continue
				}
				fmt.Fprintf(stdout, "loop %d unrolled %dx:\n", i, *unroll)
				fmt.Fprintln(stdout, u.String())
			}
		}
	}
	return 0
}

// runJSON prints the daemon's wire encoding: an AnalyzeResponse, plus one
// PipelineResponse per loop when -show pipeline was requested, built from
// the same analyses.
func runJSON(ctx context.Context, stdout, stderr io.Writer, fail func(error) int, src, fn, oracle string, k, par, width int, withPipeline bool) int {
	// Request-shape mistakes (an unknown oracle) are usage errors here, the
	// same class the flag parser reports.
	jfail := func(err error) int {
		if errors.Is(err, respond.ErrBadRequest) {
			fmt.Fprintln(stderr, "addsc:", err)
			return adds.ExitUsage
		}
		return fail(err)
	}
	req := &wire.AnalyzeRequest{Source: src, Fn: fn, Oracle: oracle, K: k, Workers: par}
	out := struct {
		*wire.AnalyzeResponse
		Pipelines []*wire.PipelineResponse `json:"pipelines,omitempty"`
	}{}
	var err error
	if withPipeline {
		out.AnalyzeResponse, out.Pipelines, err = respond.BuildAnalyzePipelines(ctx, req, width)
	} else {
		out.AnalyzeResponse, err = respond.BuildAnalyze(ctx, req)
	}
	if err != nil {
		return jfail(err)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		return fail(err)
	}
	return 0
}
