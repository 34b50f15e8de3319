package alias

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/alias/klimit"
	"repro/internal/alias/smg"
	"repro/internal/core/pathmatrix"
	"repro/internal/norm"
	"repro/internal/shape"
	"repro/internal/source/types"
)

// BuildOpts carries everything a Factory may need to construct its oracle
// for one function. Factories ignore the fields they have no use for: the
// conservative baseline only reads the graph, the path-matrix oracles use
// Env and Summaries (and gpm the Result), the storage-graph analyses use
// Env and K.
type BuildOpts struct {
	// Env is the ADDS shape environment of the unit's declarations.
	Env *shape.Env
	// Info is the type-checked program. No factory reads it: the summary
	// table carries the unit the classic factory's stripped table needs.
	Info *types.Info
	// Summaries is the interprocedural summary table the surrounding
	// analysis ran with; nil selects the opaque call havoc. The classic
	// factory analyzes under the table's stripped table (Stripped), which
	// summarizes only the callees of the functions classic builds name.
	Summaries *pathmatrix.SummaryTable
	// Result is the analysis the caller already ran for this function under
	// Env and Summaries. The gpm oracle answers from it; nil makes gpm run
	// its own fixpoint.
	Result *pathmatrix.Result
	// K bounds per-site materialization for k-limited oracles (<= 0 selects
	// the oracle's default).
	K int
}

// Factory describes one oracle: its canonical name, what the
// flag/endpoint documentation should say about it, and how to build it.
// The factories table below is the single list of oracles: CLI -oracle
// flags, /v1 request validation, GET /v1/oracles, and the fuzzing
// harness's soundness check all enumerate it.
type Factory struct {
	// Name is the canonical spelling ("gpm", "klimit", ...).
	Name string
	// Description is the one-line human summary shown by GET /v1/oracles.
	Description string
	// NeedsK reports whether the oracle consumes BuildOpts.K (-k).
	NeedsK bool
	// Aliases are accepted alternate spellings ("klimited").
	Aliases []string
	// Build constructs the oracle for one function. The context carries the
	// caller's tracer so analyses that record obs spans land on the request
	// trace.
	Build func(ctx context.Context, g *norm.Graph, opts BuildOpts) Oracle
}

// factories lists every oracle in listing order: the historical four keep
// their documented order (gpm, classic, conservative, klimit) and newer
// oracles follow. Names and aliases are lowercase.
var factories = []*Factory{
	{
		Name:        "gpm",
		Description: "general path matrix analysis with ADDS declarations (the paper's analysis; default)",
		Build: func(_ context.Context, g *norm.Graph, opts BuildOpts) Oracle {
			if opts.Result != nil {
				return GPMOf(opts.Result)
			}
			return NewGPMWith(g, opts.Env, opts.Summaries)
		},
	},
	{
		Name:        "classic",
		Description: "path matrix analysis with the ADDS declarations stripped",
		Build: func(ctx context.Context, g *norm.Graph, opts BuildOpts) Oracle {
			// Summary rows are environment-dependent; the classic oracle
			// needs a table computed under the stripped environment, never
			// the ADDS-informed one the caller ran with. The caller's table
			// memoizes its stripped table, extended for g's callees, across
			// a request's classic builds. A done context stops both
			// fixpoints; the conservative oracle answering instead is sound.
			var tab *pathmatrix.SummaryTable
			if opts.Summaries != nil {
				var err error
				if tab, err = opts.Summaries.Stripped(ctx, g.Fn.Decl.Name); err != nil {
					return NewConservative(g)
				}
			}
			o, err := newClassicCtx(ctx, g, opts.Env, tab)
			if err != nil {
				return NewConservative(g)
			}
			return o
		},
	},
	{
		Name:        "conservative",
		Description: "worst-case baseline: same-type pointers may always alias",
		Build: func(_ context.Context, g *norm.Graph, _ BuildOpts) Oracle {
			return NewConservative(g)
		},
	},
	{
		Name:        "klimit",
		Description: "k-limited storage graphs (Jones & Muchnick); -k bounds per-site materialization",
		NeedsK:      true,
		Aliases:     []string{"klimited"},
		Build: func(ctx context.Context, g *norm.Graph, opts BuildOpts) Oracle {
			// A done context stops the fixpoint; the conservative oracle
			// answering instead is sound.
			o, err := klimit.Analyze(ctx, g, opts.Env, opts.K)
			if err != nil {
				return NewConservative(g)
			}
			return o
		},
	},
	{
		Name:        "smg",
		Description: "SMG-lite symbolic memory graphs (Predator-style segments with materialization)",
		Build: func(ctx context.Context, g *norm.Graph, opts BuildOpts) Oracle {
			return smg.AnalyzeCtx(ctx, g, opts.Env)
		},
	},
}

// Lookup resolves a CLI/API oracle spelling (case-insensitive; aliases
// accepted; "" selects the default, gpm). Unknown names report an error
// listing every oracle.
func Lookup(name string) (*Factory, error) {
	key := strings.ToLower(name)
	if key == "" {
		key = "gpm"
	}
	for _, f := range factories {
		if f.Name == key || slices.Contains(f.Aliases, key) {
			return f, nil
		}
	}
	return nil, fmt.Errorf("unknown oracle %q (known: %s)", name, strings.Join(Names(), ", "))
}

// Names returns the canonical names in listing order.
func Names() []string {
	out := make([]string, len(factories))
	for i, f := range factories {
		out[i] = f.Name
	}
	return out
}

// Factories returns the factories in listing order. The slice is fresh;
// the pointed-to factories are shared and must not be mutated.
func Factories() []*Factory {
	return slices.Clone(factories)
}
