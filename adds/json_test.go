package adds

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden JSON files")

// checkGolden marshals v with indentation and compares it byte-for-byte to
// testdata/golden/<name>.json. Run `go test ./adds -run Golden -update` to
// regenerate after an intentional encoding change; the diff then documents
// exactly what the wire format change was.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v (run with -update to create)", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run with -update if intentional)", name, got, want)
	}

	// Goldens must also round-trip as generic JSON: the encodings are
	// consumed by clients that know nothing about our Go types.
	var generic any
	if err := json.Unmarshal(got, &generic); err != nil {
		t.Errorf("%s: golden output is not valid JSON: %v", name, err)
	}
}

func TestGoldenJSONEncodings(t *testing.T) {
	u := MustLoad(shiftSrc)
	an := u.MustAnalyze("shift")

	checkGolden(t, "shift_loop_matrix", an.LoopMatrix(0))
	checkGolden(t, "shift_iteration_matrix", an.IterationMatrix(0))
	checkGolden(t, "shift_depgraph_gpm", an.Dependences(0, an.GPMOracle()))
	checkGolden(t, "shift_depgraph_conservative", an.Dependences(0, an.ConservativeOracle()))

	_, info, err := an.Pipeline(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shift_pipeline_info", info)
}

// TestGoldenExperimentReport pins every experiment's report (E1–E10) as
// JSON: the reports are deterministic, so any engine change that moves a
// verdict shows up as a golden diff.
func TestGoldenExperimentReport(t *testing.T) {
	defs := ExperimentDefs()
	for i := 1; i <= 10; i++ {
		id := fmt.Sprintf("E%d", i)
		t.Run(id, func(t *testing.T) {
			j := slices.IndexFunc(defs, func(d ExperimentDef) bool { return d.ID == id })
			if j < 0 {
				t.Fatalf("experiment %s missing from registry", id)
			}
			checkGolden(t, "experiment_"+strings.ToLower(id), defs[j].Run())
		})
	}
}

// TestGoldenDeterminism guards the sorted-cell invariant directly: two
// marshals of the same analysis must be identical, because cells are written
// in variable-name order rather than in the order rows are indexed or shared.
func TestGoldenDeterminism(t *testing.T) {
	u := MustLoad(shiftSrc)
	for i := 0; i < 3; i++ {
		an := u.MustAnalyze("shift")
		a, err := json.Marshal(an.LoopMatrix(0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(an.LoopMatrix(0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("marshal not deterministic:\n%s\n%s", a, b)
		}
	}
}
