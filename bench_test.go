// Package repro's root benchmarks regenerate every experiment of the
// paper's evaluation (see DESIGN.md's experiment index). One benchmark per
// table/figure; simulated machine metrics are attached with
// b.ReportMetric, so `go test -bench=. -benchmem` prints both the cost of
// the analyses and the reproduced performance numbers.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/alias"
	"repro/internal/core/pathmatrix"
	"repro/internal/depgraph"
	"repro/internal/exper"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/norm"
	"repro/internal/respond"
	"repro/internal/source/parser"
	"repro/internal/source/types"
	"repro/internal/structures"
	"repro/internal/xform"
)

// fixtureFor compiles the shift program once per benchmark.
type fixture struct {
	info *types.Info
	fi   *types.FuncInfo
	g    *norm.Graph
	an   *adds.Analysis
}

func loadShift(b *testing.B) *fixture {
	b.Helper()
	unit := adds.MustLoad(exper.ShiftSrc)
	an := unit.MustAnalyze("shift")
	info := types.MustCheck(parser.MustParse(exper.ShiftSrc))
	fi := info.Func("shift")
	return &fixture{info: info, fi: fi, g: norm.Build(fi, info.Env), an: an}
}

// BenchmarkE1AliasOracles measures the three analyses answering Figure 1's
// questions on the list-add loop.
func BenchmarkE1AliasOracles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.E1()
		if len(r.Rows) != 3 {
			b.Fatal("bad E1")
		}
	}
}

// BenchmarkE2InvariantCheck measures dynamic validation of all six paper
// structures (Defs 4.2-4.9) at size 1000.
func BenchmarkE2InvariantCheck(b *testing.B) {
	env := structures.Env()
	heaps := map[string][]*interp.Node{}
	h := interp.NewHeap()
	for _, name := range structures.Names() {
		roots, err := structures.Random(h, newRand(7), name, 300)
		if err != nil {
			b.Fatal(err)
		}
		heaps[name] = roots
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range structures.Names() {
			if vs := interp.Check(env, heaps[name]...); len(vs) != 0 {
				b.Fatalf("%s: %v", name, vs[0])
			}
		}
	}
}

// BenchmarkE3ConservativeMatrix regenerates the Section 5.1.2 alias matrix.
func BenchmarkE3ConservativeMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exper.E3() == nil {
			b.Fatal("bad E3")
		}
	}
}

// BenchmarkE4PathMatrix measures the general path matrix analysis of the
// shift loop to its fixed point — the core cost of the paper's technique.
func BenchmarkE4PathMatrix(b *testing.B) {
	unit := adds.MustLoad(exper.ShiftSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := unit.MustAnalyze("shift")
		if an.LoopMatrix(0).Entry("hd", "p").String() != "next+" {
			b.Fatal("fixed point wrong")
		}
	}
}

// BenchmarkE5DepGraph measures Figure 2's dependence graph construction
// under both oracles.
func BenchmarkE5DepGraph(b *testing.B) {
	f := loadShift(b)
	gpm := f.an.GPMOracle()
	cons := f.an.ConservativeOracle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(f.an.Dependences(0, gpm).CarriedMemEdges()) != 0 {
			b.Fatal("gpm carried deps")
		}
		if len(f.an.Dependences(0, cons).CarriedMemEdges()) == 0 {
			b.Fatal("cons carried deps")
		}
	}
}

// BenchmarkE6Pipeline measures the full Section 5.2 derivation plus a
// simulated execution, reporting the measured speedup.
func BenchmarkE6Pipeline(b *testing.B) {
	f := loadShift(b)
	prog, info, err := f.an.Pipeline(0, 8)
	if err != nil {
		b.Fatal(err)
	}
	n := 500
	var seqCycles, pipCycles int64
	for i := 0; i < b.N; i++ {
		h1 := interp.NewHeap()
		hd1 := structures.TwoWayList(h1, nil, n)
		seq, err := machine.RunVLIW(machine.Sequentialize(f.an.IR()), machine.DefaultVLIW(),
			h1, map[string]machine.Word{"hd": machine.RefWord(hd1)})
		if err != nil {
			b.Fatal(err)
		}
		h2 := interp.NewHeap()
		hd2 := structures.TwoWayList(h2, nil, n)
		pip, err := machine.RunVLIW(prog, machine.DefaultVLIW(), h2,
			map[string]machine.Word{"hd": machine.RefWord(hd2)})
		if err != nil {
			b.Fatal(err)
		}
		seqCycles, pipCycles = seq.Cycles, pip.Cycles
	}
	b.ReportMetric(info.Theoretic, "theoretical-speedup")
	b.ReportMetric(float64(seqCycles)/float64(pipCycles), "measured-speedup")
	b.ReportMetric(float64(pipCycles)/float64(n), "cycles/node")
}

// BenchmarkE7Unroll measures [HG92]'s 3-unrolling of the init loop at list
// length 100 on the scalar machine, reporting the speedup.
func BenchmarkE7Unroll(b *testing.B) {
	unit := adds.MustLoad(exper.InitSrc)
	an := unit.MustAnalyze("initlist")
	u3, err := an.UnrollCtx(context.Background(), 0, 3)
	if err != nil {
		b.Fatal(err)
	}
	n := 100
	var baseCycles, fastCycles int64
	for i := 0; i < b.N; i++ {
		h1 := interp.NewHeap()
		hd1 := structures.TwoWayList(h1, nil, n)
		base, err := machine.RunScalar(an.IR(), machine.DefaultScalar(), h1,
			map[string]machine.Word{"p": machine.RefWord(hd1)})
		if err != nil {
			b.Fatal(err)
		}
		h2 := interp.NewHeap()
		hd2 := structures.TwoWayList(h2, nil, n)
		fast, err := machine.RunScalar(u3, machine.DefaultScalar(), h2,
			map[string]machine.Word{"p": machine.RefWord(hd2)})
		if err != nil {
			b.Fatal(err)
		}
		baseCycles, fastCycles = base.Cycles, fast.Cycles
	}
	b.ReportMetric((float64(baseCycles)/float64(fastCycles)-1)*100, "speedup-pct")
}

// BenchmarkE8KLimited measures the k-limited analysis on the build-and-
// traverse program against GPM.
func BenchmarkE8KLimited(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.E8()
		if len(r.Rows) != 4 {
			b.Fatal("bad E8")
		}
	}
}

// BenchmarkE9Validation measures the abstraction-validation analysis of the
// subtree move.
func BenchmarkE9Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.E9()
		if len(r.Rows) == 0 {
			b.Fatal("bad E9")
		}
	}
}

// BenchmarkE10VLIW measures the width sweep's best configuration.
func BenchmarkE10VLIW(b *testing.B) {
	f := loadShift(b)
	opt := depgraph.Options{
		Oracle:   alias.NewGPM(f.g, f.info.Env),
		NormLoop: f.g.Loops[0],
		Env:      f.info.Env,
		VarTypes: f.fi.Vars,
	}
	n := 500
	var cycles int64
	for i := 0; i < b.N; i++ {
		pl, err := xform.EmitPipelined(f.an.IR(), f.an.IR().Loops[0], opt, 8)
		if err != nil {
			b.Fatal(err)
		}
		h := interp.NewHeap()
		hd := structures.TwoWayList(h, nil, n)
		res, err := machine.RunVLIW(pl.Prog, machine.DefaultVLIW(), h,
			map[string]machine.Word{"hd": machine.RefWord(hd)})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(n), "cycles/node")
}

// newRand gives each benchmark a deterministic generator.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// manyFuncsSrc generates a program with n distinct two-loop functions, the
// whole-program workload for the serial-vs-parallel engine benchmarks.
func manyFuncsSrc(n int) string {
	var b strings.Builder
	b.WriteString(exper.TwoWayDecl)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
void work%d(TwoWayLL *hd, TwoWayLL *q) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
    p = q;
    while (p != NULL) {
        p->data = 0;
        p = p->prev;
    }
}
`, i)
	}
	return b.String()
}

func benchAnalyzeProgram(b *testing.B, workers int) {
	info := types.MustCheck(parser.MustParse(manyFuncsSrc(8)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := pathmatrix.AnalyzeProgramCtx(context.Background(), info, info.Env, workers)
		if err != nil || len(out) != 8 {
			b.Fatalf("analyzed %d functions, err %v", len(out), err)
		}
	}
}

// BenchmarkAnalyzeProgramSerial analyzes an 8-function program on one worker.
func BenchmarkAnalyzeProgramSerial(b *testing.B) { benchAnalyzeProgram(b, 1) }

// BenchmarkAnalyzeProgramParallel analyzes the same program with one worker
// per CPU. With GOMAXPROCS >= 4 this should run well over 2x faster than
// BenchmarkAnalyzeProgramSerial (per-function analyses are independent).
func BenchmarkAnalyzeProgramParallel(b *testing.B) { benchAnalyzeProgram(b, 0) }

// BenchmarkAnalyzeShift times one path-matrix fixpoint on the paper's shift
// loop.
func BenchmarkAnalyzeShift(b *testing.B) {
	info := types.MustCheck(parser.MustParse(exper.ShiftSrc))
	g := norm.Build(info.Func("shift"), info.Env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := pathmatrix.Analyze(g, info.Env); r == nil {
			b.Fatal("nil result")
		}
	}
}

// BenchmarkAnalyzeHostile times a cold-summary, one-worker analysis of
// generator seed 1 of the four hostile profiles (parent-pointer trees, skip
// lists, rings of lists, break-then-repair): the shapes whose fixpoints
// dominate a miss request.
func BenchmarkAnalyzeHostile(b *testing.B) {
	var infos []*types.Info
	for _, src := range hostileSources(b) {
		infos = append(infos, types.MustCheck(parser.MustParse(src)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pathmatrix.ResetSummaryCache()
		for _, info := range infos {
			if _, err := pathmatrix.AnalyzeProgramCtx(context.Background(), info, info.Env, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// hostileSources returns generator seed 1 of the four hostile profiles.
func hostileSources(b *testing.B) []string {
	var out []string
	for _, name := range []string{"ptree", "skiplist", "ringlol", "repair"} {
		pr, err := gen.ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, string(gen.Generate(1, pr).Source()))
	}
	return out
}

// BenchmarkBuildAnalyzeHostile times what a cold-summary /v1/analyze
// request does with each of BenchmarkAnalyzeHostile's programs: parse,
// type-check, analyze every function, build the comparison oracles and
// dependence graphs, and encode the response.
func BenchmarkBuildAnalyzeHostile(b *testing.B) {
	var reqs []*wire.AnalyzeRequest
	for _, src := range hostileSources(b) {
		reqs = append(reqs, &wire.AnalyzeRequest{Source: src})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		pathmatrix.ResetSummaryCache()
		for _, req := range reqs {
			resp, err := respond.BuildAnalyze(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			buf = resp.AppendJSON(buf[:0])
			encoded = bytes.Clone(buf)
		}
	}
}

// encoded keeps the benchmarks' encodings live.
var encoded []byte

// BenchmarkEncodeHostile times only the encoding of the four responses
// BenchmarkBuildAnalyzeHostile builds, as the daemon encodes a miss: one
// pass into a reused buffer, then a copy of just the body's bytes.
func BenchmarkEncodeHostile(b *testing.B) {
	var resps []*wire.AnalyzeResponse
	for _, src := range hostileSources(b) {
		resp, err := respond.BuildAnalyze(context.Background(), &wire.AnalyzeRequest{Source: src})
		if err != nil {
			b.Fatal(err)
		}
		resps = append(resps, resp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		for _, resp := range resps {
			buf = resp.AppendJSON(buf[:0])
			encoded = bytes.Clone(buf)
		}
	}
}
