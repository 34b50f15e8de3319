package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/gen"
	"repro/internal/par"
)

// Campaign describes one fuzzing run: Budget programs total, rotating
// round-robin through the profiles, diffed by Jobs workers.
type Campaign struct {
	// Seed is the base seed; program i uses Seed + i.
	Seed int64
	// Budget is the total number of programs.
	Budget int
	// Jobs is the worker count (<= 0 means GOMAXPROCS).
	Jobs int
	// Profiles selects generation profiles by name; empty means all.
	Profiles []string
	// CorpusDir, when set, receives minimized repros and their triage
	// records, named by content hash.
	CorpusDir string
	// Config tunes the per-program checks.
	Config Config
	// Progress, when set, is called after each program with the number
	// completed so far (serialized; keep it cheap).
	Progress func(done, total int)
}

// Report is the deterministic triage summary of a campaign: identical
// (seed, budget, profiles, config) inputs produce byte-identical marshaled
// reports, whatever the job count — timing lives on stderr, never here.
type Report struct {
	Seed        int64          `json:"seed"`
	Budget      int            `json:"budget"`
	Profiles    []string       `json:"profiles"`
	Programs    int            `json:"programs"`
	ByCheck     map[string]int `json:"byCheck"`
	Divergences []Divergence   `json:"divergences"`
	// Deltas tallies the smg check's precision deltas — may-alias
	// disagreements that are informational, never failures. Deterministic
	// for a given (seed, budget, profiles, config) whatever the job count.
	Deltas map[string]int `json:"deltas,omitempty"`
}

// Run executes the campaign. The returned report orders divergences by
// (profile, seed, check) regardless of worker interleaving. A panic in a
// worker is re-raised on the caller's goroutine once the others stop.
func (c Campaign) Run(ctx context.Context) (*Report, error) {
	profiles, err := c.profiles()
	if err != nil {
		return nil, err
	}
	if c.Budget < 0 {
		return nil, fmt.Errorf("negative budget %d", c.Budget)
	}

	if c.Config.Deltas == nil {
		c.Config.Deltas = &DeltaCounter{}
	}

	total := c.Budget
	results := make([][]Divergence, total)
	var (
		mu   sync.Mutex
		done int
	)
	err = par.Each(ctx, total, c.Jobs, func(i int) error {
		results[i] = DiffOne(c.Seed+int64(i), profiles[i%len(profiles)], c.Config)
		if c.Progress != nil {
			mu.Lock()
			done++
			c.Progress(done, total)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Seed:     c.Seed,
		Budget:   c.Budget,
		Programs: total,
		ByCheck:  map[string]int{},
		Deltas:   c.Config.Deltas.Snapshot(),
	}
	for _, pr := range profiles {
		rep.Profiles = append(rep.Profiles, pr.Name)
	}
	for i := 0; i < total; i++ {
		for _, d := range results[i] {
			rep.ByCheck[d.Check]++
			rep.Divergences = append(rep.Divergences, d)
		}
	}
	sort.SliceStable(rep.Divergences, func(i, j int) bool {
		a, b := rep.Divergences[i], rep.Divergences[j]
		if a.Profile != b.Profile {
			return a.Profile < b.Profile
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Check < b.Check
	})
	if c.CorpusDir != "" {
		if err := writeCorpus(c.CorpusDir, rep.Divergences); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func (c Campaign) profiles() ([]gen.Profile, error) {
	if len(c.Profiles) == 0 {
		return gen.Profiles(), nil
	}
	var out []gen.Profile
	for _, name := range c.Profiles {
		pr, err := gen.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// writeCorpus persists each divergence as <minhash>.mini (the minimized
// repro source, directly runnable by the CLIs) plus <minhash>.json (the
// full triage record). Content addressing (the respond.Key scheme)
// deduplicates repros across seeds and campaigns for free.
func writeCorpus(dir string, divs []Divergence) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range divs {
		short := d.MinHash
		if len(short) > 16 {
			short = short[:16]
		}
		if err := os.WriteFile(filepath.Join(dir, short+".mini"), []byte(d.Minimized), 0o644); err != nil {
			return err
		}
		js, err := marshalReportJSON(d)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, short+".json"), js, 0o644); err != nil {
			return err
		}
	}
	return nil
}
