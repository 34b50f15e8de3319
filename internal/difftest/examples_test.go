package difftest

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/adds"
)

// extractSrc pulls the `const src = ` backtick literal out of an example's
// main.go. Every example embeds exactly one such block.
func extractSrc(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const marker = "const src = `"
	i := strings.Index(string(data), marker)
	if i < 0 {
		t.Fatalf("%s: no `const src = ` block", path)
	}
	rest := string(data)[i+len(marker):]
	j := strings.IndexByte(rest, '`')
	if j < 0 {
		t.Fatalf("%s: unterminated src block", path)
	}
	return rest[:j]
}

// TestExamplesXformEquivalence aims check 3 (the transformation
// observational-equivalence check) at every function of every shipped
// example: Unroll k=2,3 on the scalar machine and LICM plus software
// pipelining on the VLIW machine must preserve the final heap on the
// example programs the paper's narrative is built around, not just on
// generated ones.
func TestExamplesXformEquivalence(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	for _, path := range dirs {
		name := filepath.Base(filepath.Dir(path))
		t.Run(name, func(t *testing.T) {
			info := adds.MustLoad(extractSrc(t, path)).Info
			fns := make([]string, 0, len(info.Funcs))
			for fn := range info.Funcs {
				fns = append(fns, fn)
			}
			sort.Strings(fns)
			for _, fn := range fns {
				for _, d := range XformCheck(info, fn, 1, nil) {
					t.Errorf("%s: %s", fn, d)
				}
			}
		})
	}
}
