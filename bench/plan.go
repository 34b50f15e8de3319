package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/adds/wire"
	"repro/internal/gen"
	"repro/internal/source/ast"
	"repro/internal/source/parser"
)

// workloads names the traffic mixes; BENCHMARK.json and README.md say why
// each is run.
var workloads = []string{"miss-mixed", "miss-hostile", "hit-edit", "cold-cli"}

type jobKind int

const (
	kindAnalyze jobKind = iota // POST /v1/analyze that must miss the result cache
	kindHit                    // POST /v1/analyze of a warmed program: a result-cache hit
	kindEdit                   // POST /v1/reanalyze of a file with one integer literal changed
	kindCLI                    // one addsc -format json -show pipeline process
)

// job is one operation of a plan.
type job struct {
	kind jobKind
	name string   // profile/seed, file name, or edit description
	src  []byte   // the mini source the operation analyzes
	body []byte   // request body (daemon jobs)
	pool int      // the warm-up job it repeats (hit) or edits (edit); the corpus file (cli)
	fns  []string // kindEdit: the file's functions in source order
	prog *gen.Program
}

// plan is everything one pass of a workload sends, fixed before timing.
// The program corpus of each workload is the same for every seed; the seed
// decides the order and which programs the sampled gates check. Analysis
// cost is heavy-tailed, so drawing a few hundred fresh programs per seed
// spread throughput and tail latency by 8-28% between seeds, which would
// measure the draw rather than the code. Each pass of a run visits the
// corpus in its own order, drawn from the seed and the pass number, because
// the peak heap and the tail depend on where the heaviest programs fall:
// with one order per seed, peak RSS on miss-hostile spread 14% over seeds.
type plan struct {
	workload string
	seed     int64
	pass     int
	warm     []job // untimed, sent before the first timed operation
	jobs     []job // one pass, in order
	clients  int   // closed-loop clients (daemon workloads)
	digest   string
}

var mixedProfiles = []string{"list", "tree", "circular", "lols", "readonly", "calls"}

var hostileProfiles = []string{"ptree", "skiplist", "ringlol", "repair"}

const (
	mixedPerProfile   = 40
	hostilePerProfile = 25
	hitPool           = 32
	hitRequests       = 10000
	editEvery         = 10 // one request in editEvery is an edit
	cliRounds         = 8
	cliGenerated      = 12
)

// profile resolves a generator profile. The full-size repair profile spends
// 1-5 s on a typical program, so a run would hold only a handful; the
// benchmark keeps its grammar but bounds the body to 6-10 top-level
// statements (and genPrograms bounds the total).
func profile(name string) gen.Profile {
	pr, err := gen.ProfileByName(name)
	if err != nil {
		panic(err) // names come from the tables above
	}
	if name == "repair" {
		pr.MinStmts, pr.MaxStmts = 6, 10
	}
	return pr
}

// maxRepairStmts bounds a repair program's statement count, nested ones
// included: past it single analyses run into seconds.
const maxRepairStmts = 35

// genPrograms returns n programs of a profile: generator seeds from first
// upward, skipping repair programs over maxRepairStmts.
func genPrograms(name string, first int64, n int) []*gen.Program {
	pr := profile(name)
	var out []*gen.Program
	for s := first; len(out) < n; s++ {
		p := gen.Generate(s, pr)
		if name == "repair" && p.NumStmts() > maxRepairStmts {
			continue
		}
		out = append(out, p)
	}
	return out
}

func analyzeBody(src []byte) []byte {
	b, err := json.Marshal(wire.AnalyzeRequest{Source: string(src)})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

func reanalyzeBody(src []byte) []byte {
	b, err := json.Marshal(wire.ReanalyzeRequest{Source: string(src)})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// rotation interleaves the profiles' programs one of each in turn, each
// profile's list in a seed-chosen order.
func rotation(rng *rand.Rand, names []string, progs [][]*gen.Program) []job {
	perms := make([][]int, len(names))
	for i := range names {
		perms[i] = rng.Perm(len(progs[i]))
	}
	var jobs []job
	for k := range progs[0] {
		for i, name := range names {
			p := progs[i][perms[i][k]]
			src := p.Source()
			jobs = append(jobs, job{
				kind: kindAnalyze,
				name: name + "/" + strconv.FormatInt(p.Seed, 10),
				src:  src,
				body: analyzeBody(src),
				prog: p,
			})
		}
	}
	return jobs
}

// buildPlan fixes one pass of a workload. root is the repository checkout
// (for testdata/ and examples/).
func buildPlan(name string, seed int64, pass int, root string) (*plan, error) {
	if !slices.Contains(workloads, name) {
		return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloads, ", "))
	}
	// Pass 0 draws from the seed; each later pass from its predecessor's
	// first draw.
	rng := rand.New(rand.NewSource(seed))
	for range pass {
		rng = rand.New(rand.NewSource(rng.Int63()))
	}
	p := &plan{workload: name, seed: seed, pass: pass, clients: 1}
	switch name {
	case "miss-mixed":
		progs := make([][]*gen.Program, len(mixedProfiles))
		for i, pr := range mixedProfiles {
			progs[i] = genPrograms(pr, 1, mixedPerProfile)
		}
		p.jobs = rotation(rng, mixedProfiles, progs)
	case "miss-hostile":
		progs := make([][]*gen.Program, len(hostileProfiles))
		for i, pr := range hostileProfiles {
			progs[i] = genPrograms(pr, 1, hostilePerProfile)
		}
		p.jobs = rotation(rng, hostileProfiles, progs)
	case "hit-edit":
		if err := buildHitEdit(p, rng, root); err != nil {
			return nil, err
		}
	case "cold-cli":
		if err := buildColdCLI(p, rng, root); err != nil {
			return nil, err
		}
	}
	p.digest = planDigest(p)
	return p, nil
}

// buildHitEdit warms a pool of generated programs plus the testdata files,
// then sends hits and edits in a fixed nine-to-one interleave.
func buildHitEdit(p *plan, rng *rand.Rand, root string) error {
	p.clients = 2
	progs := make([][]*gen.Program, len(mixedProfiles))
	for i, pr := range mixedProfiles {
		progs[i] = genPrograms(pr, 1001, (hitPool+len(mixedProfiles)-1)/len(mixedProfiles))
	}
	p.warm = rotation(rng, mixedProfiles, progs)[:hitPool]

	files, err := filepath.Glob(filepath.Join(root, "testdata", "*.mini"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no testdata/*.mini under %s", root)
	}
	sort.Strings(files)
	var targets []editTarget
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		ts, err := editTargets(filepath.Base(f), src)
		if err != nil {
			return err
		}
		for i := range ts {
			ts[i].warm = len(p.warm)
		}
		targets = append(targets, ts...)
		p.warm = append(p.warm, job{kind: kindEdit, name: filepath.Base(f), src: src,
			body: reanalyzeBody(src), fns: ts[0].fns})
	}
	off := rng.Intn(len(targets))
	hit := 0
	for i := 0; i < hitRequests; i++ {
		if i%editEvery == editEvery-1 {
			k := i / editEvery
			t := targets[(off+k)%len(targets)]
			src := t.edit(k + 1)
			p.jobs = append(p.jobs, job{kind: kindEdit, name: fmt.Sprintf("%s:%s+%d", t.file, t.fn, k+1),
				src: src, body: reanalyzeBody(src), fns: t.fns, pool: t.warm})
			continue
		}
		j := p.warm[hit%hitPool]
		p.jobs = append(p.jobs, job{kind: kindHit, name: j.name, src: j.src, body: j.body, pool: hit % hitPool})
		hit++
	}
	return nil
}

// editTarget is one function of a testdata file holding an integer literal.
type editTarget struct {
	file, fn string
	src      []byte
	off, n   int // byte offset and length of the function's first literal
	val      int64
	fns      []string
	warm     int // the plan's warm-up job submitting the unedited file
}

// edit returns the file with the target literal increased by delta.
func (t editTarget) edit(delta int) []byte {
	lit := strconv.FormatInt(t.val+int64(delta), 10)
	out := make([]byte, 0, len(t.src)+len(lit))
	out = append(out, t.src[:t.off]...)
	out = append(out, lit...)
	return append(out, t.src[t.off+t.n:]...)
}

func editTargets(file string, src []byte) ([]editTarget, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	var fns []string
	for _, fd := range prog.Funcs {
		fns = append(fns, fd.Name)
	}
	var out []editTarget
	for _, fd := range prog.Funcs {
		var lit *ast.IntLit
		ast.WalkExprs(fd.Body, func(e ast.Expr) {
			if l, ok := e.(*ast.IntLit); ok && lit == nil {
				lit = l
			}
		})
		if lit == nil {
			continue
		}
		n := 0
		for o := lit.LitPos.Offset; o < len(src) && src[o] >= '0' && src[o] <= '9'; o++ {
			n++
		}
		out = append(out, editTarget{file: file, fn: fd.Name, src: src,
			off: lit.LitPos.Offset, n: n, val: lit.Value, fns: fns})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no function holds an integer literal", file)
	}
	return out, nil
}

// buildColdCLI fixes the 16-file corpus and the order addsc visits it in:
// every round runs each file once, in a seed-chosen order.
func buildColdCLI(p *plan, rng *rand.Rand, root string) error {
	files, err := filepath.Glob(filepath.Join(root, "testdata", "*.mini"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	files = append(files, filepath.Join(root, "examples", "shift.mini"))
	var corpus []job
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		corpus = append(corpus, job{kind: kindCLI, name: filepath.Base(f), src: src})
	}
	for i := 0; i < cliGenerated; i++ {
		name := mixedProfiles[i%len(mixedProfiles)]
		g := genPrograms(name, int64(2001+i), 1)[0]
		corpus = append(corpus, job{kind: kindCLI,
			name: fmt.Sprintf("gen-%s-%d.mini", name, g.Seed), src: g.Source()})
	}
	for r := 0; r < cliRounds; r++ {
		for _, i := range rng.Perm(len(corpus)) {
			j := corpus[i]
			j.pool = i
			p.jobs = append(p.jobs, j)
		}
	}
	p.warm = corpus // written to disk during set-up, not sent
	return nil
}

// planDigest content-addresses the plan, so two result files can be shown
// to measure the same operations in the same order. The first pass's digest
// stands for the run: it fixes the corpus and the seed, and so every pass.
func planDigest(p *plan) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", p.workload, p.clients)
	for _, set := range [][]job{p.warm, p.jobs} {
		for _, j := range set {
			fmt.Fprintf(h, "%d\x00%s\x00%d\x00", j.kind, j.name, len(j.src))
			h.Write(j.src)
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
