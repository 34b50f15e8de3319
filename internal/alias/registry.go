package alias

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core/pathmatrix"
	"repro/internal/norm"
	"repro/internal/shape"
	"repro/internal/source/types"
)

// BuildOpts carries everything a Factory may need to construct its oracle
// for one function. Factories ignore the fields they have no use for: the
// conservative baseline only reads the graph, the path-matrix oracles use
// Env/Info/Summaries (and gpm the Result), the storage-graph analyses use
// Env and K.
type BuildOpts struct {
	// Env is the ADDS shape environment of the unit's declarations.
	Env *shape.Env
	// Info is the type-checked program (summary-table computation needs the
	// whole unit, not just the function under analysis).
	Info *types.Info
	// Summaries is the interprocedural summary table the surrounding
	// analysis ran with; nil selects the opaque call havoc. Factories whose
	// tables are environment-dependent (classic) recompute their own.
	Summaries *pathmatrix.SummaryTable
	// Result is the analysis the caller already ran for this function under
	// Env and Summaries. The gpm oracle answers from it; nil makes gpm run
	// its own fixpoint.
	Result *pathmatrix.Result
	// K bounds per-site materialization for k-limited oracles (<= 0 selects
	// the oracle's default).
	K int
}

// Factory describes one registered oracle: its canonical name, what the
// flag/endpoint documentation should say about it, and how to build it.
// Oracles self-register from their package's init, so linking a package in
// is all it takes to make its oracle selectable everywhere — CLI -oracle
// flags, /v1 request validation, GET /v1/oracles, and the fuzzing harness
// all enumerate this registry.
type Factory struct {
	// Name is the canonical spelling ("gpm", "klimit", ...).
	Name string
	// Description is the one-line human summary shown by GET /v1/oracles.
	Description string
	// NeedsK reports whether the oracle consumes BuildOpts.K (-k).
	NeedsK bool
	// Rank orders listings and error messages; the historical four keep
	// their documented order (gpm, classic, conservative, klimit) and new
	// oracles append after them.
	Rank int
	// Aliases are accepted alternate spellings ("klimited").
	Aliases []string
	// Build constructs the oracle for one function. The context carries the
	// caller's tracer so analyses that record obs spans land on the request
	// trace.
	Build func(ctx context.Context, g *norm.Graph, opts BuildOpts) Oracle
}

var registry = struct {
	sync.RWMutex
	byName map[string]*Factory // canonical names and aliases, lowercase
	all    []*Factory
}{byName: map[string]*Factory{}}

// Register adds a factory to the oracle registry. It panics on a duplicate
// or empty name — registration happens in package inits, where a conflict
// is a programming error, not a runtime condition.
func Register(f Factory) {
	if f.Name == "" || f.Build == nil {
		panic("alias: Register: factory needs a Name and a Build func")
	}
	registry.Lock()
	defer registry.Unlock()
	fc := f
	for _, name := range append([]string{fc.Name}, fc.Aliases...) {
		key := strings.ToLower(name)
		if _, dup := registry.byName[key]; dup {
			panic("alias: Register: duplicate oracle name " + name)
		}
		registry.byName[key] = &fc
	}
	registry.all = append(registry.all, &fc)
	sort.SliceStable(registry.all, func(i, j int) bool {
		a, b := registry.all[i], registry.all[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Name < b.Name
	})
}

// Lookup resolves a CLI/API oracle spelling (case-insensitive; aliases
// accepted; "" selects the default, gpm). Unknown names report an error
// listing every registered oracle.
func Lookup(name string) (*Factory, error) {
	registry.RLock()
	defer registry.RUnlock()
	key := strings.ToLower(name)
	if key == "" {
		key = "gpm"
	}
	if f, ok := registry.byName[key]; ok {
		return f, nil
	}
	names := namesLocked()
	return nil, fmt.Errorf("unknown oracle %q (known: %s)", name, strings.Join(names, ", "))
}

// Names returns the canonical registered names in listing order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, len(registry.all))
	for i, f := range registry.all {
		out[i] = f.Name
	}
	return out
}

// Factories returns the registered factories in listing order. The slice is
// fresh; the pointed-to factories are shared and must not be mutated.
func Factories() []*Factory {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]*Factory, len(registry.all))
	copy(out, registry.all)
	return out
}

// The path-matrix oracles and the conservative baseline live in this
// package, so they register here; klimit and smg register from their own
// package inits.
func init() {
	Register(Factory{
		Name:        "gpm",
		Description: "general path matrix analysis with ADDS declarations (the paper's analysis; default)",
		Rank:        0,
		Build: func(_ context.Context, g *norm.Graph, opts BuildOpts) Oracle {
			if opts.Result != nil {
				return GPMOf(opts.Result)
			}
			return NewGPMWith(g, opts.Env, opts.Summaries)
		},
	})
	Register(Factory{
		Name:        "classic",
		Description: "path matrix analysis with the ADDS declarations stripped",
		Rank:        1,
		Build: func(ctx context.Context, g *norm.Graph, opts BuildOpts) Oracle {
			// Summary rows are environment-dependent; the classic oracle
			// needs a table computed under the stripped environment, never
			// the ADDS-informed one the caller ran with. A done context
			// stops both fixpoints; the conservative oracle it answers with
			// instead is sound.
			var tab *pathmatrix.SummaryTable
			if opts.Summaries != nil && opts.Info != nil {
				var err error
				if tab, err = pathmatrix.ComputeSummariesCtx(ctx, opts.Info, opts.Env.Stripped()); err != nil {
					return NewConservative(g)
				}
			}
			o, err := newClassicCtx(ctx, g, opts.Env, tab)
			if err != nil {
				return NewConservative(g)
			}
			return o
		},
	})
	Register(Factory{
		Name:        "conservative",
		Description: "worst-case baseline: same-type pointers may always alias",
		Rank:        2,
		Build: func(_ context.Context, g *norm.Graph, _ BuildOpts) Oracle {
			return NewConservative(g)
		},
	})
}
