package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of compare, one per end-to-end metric and workload.
const (
	improved    = "improved"
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved"
)

// verdict judges new runs against old ones by the metric's bound. worse is
// the median change in the metric's bad direction, as a share of the old
// median. A metric whose old runs spread wider than the bound is unresolved
// unless every new run beats every old one. A gain must exceed the old
// runs' own spread (with a single old run, the bound).
func verdict(better string, bound float64, old, new []float64) (string, float64) {
	mo, mn := median(old), median(new)
	if len(old) == 0 || len(new) == 0 || mo == 0 {
		return unresolved, math.NaN()
	}
	worse := (mn - mo) / math.Abs(mo)
	if better == "higher" {
		worse = -worse
	}
	sp := bound
	if len(old) >= 2 {
		sp = spread(old)
	}
	beatsAll := true
	for _, n := range new {
		for _, o := range old {
			if (better == "higher" && n <= o) || (better != "higher" && n >= o) {
				beatsAll = false
			}
		}
	}
	switch {
	case sp > bound && beatsAll:
		return improved, worse
	case sp > bound:
		return unresolved, worse
	case worse > bound:
		return regressed, worse
	case -worse > sp:
		return improved, worse
	}
	return withinBound, worse
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareMain is `bench compare old.json new.json`.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	root := fs.String("root", defaultRoot(), "repository checkout holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-root dir] old.json new.json")
		return 2
	}
	s, err := readSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	old, err := readResult(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	cur, err := readResult(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	n, err := compare(os.Stdout, s, old, cur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if n > 0 {
		return 1
	}
	return 0
}

// compare prints one row per end-to-end metric and workload and returns
// the number of regressions. It refuses results whose plans differ: their
// numbers do not measure the same operations.
func compare(w io.Writer, s *spec, old, cur *resultFile) (int, error) {
	var names []string
	for name, o := range old.Workloads {
		c, ok := cur.Workloads[name]
		if !ok {
			continue
		}
		if o.PlanDigest != c.PlanDigest {
			return 0, fmt.Errorf("workload %s: plan digests differ (%s vs %s); the files measure different plans",
				name, o.PlanDigest, c.PlanDigest)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("the files share no workload")
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %8s  %s\n", "workload", "metric", "old median", "new median", "worse", "verdict")
	for _, name := range names {
		for _, m := range s.EndToEnd {
			ov := values(old.Workloads[name].Runs, m.Name)
			nv := values(cur.Workloads[name].Runs, m.Name)
			v, worse := verdict(m.Better, m.Bound, ov, nv)
			if v == regressed {
				regressions++
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %+7.1f%%  %s (bound %g%%)\n",
				name, m.Name, median(ov), median(nv), 100*worse, v, 100*m.Bound)
		}
	}
	return regressions, nil
}

func values(runs []*runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
