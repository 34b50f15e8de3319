package exper

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRun exercises every experiment end to end and checks a
// few load-bearing cells against the paper's claims.
func TestAllExperimentsRun(t *testing.T) {
	defs := Defs()
	if len(defs) != 10 {
		t.Fatalf("got %d experiments", len(defs))
	}
	for _, d := range defs {
		r := d.Run()
		if r.ID == "" || r.Title == "" {
			t.Errorf("report missing metadata: %+v", r)
		}
		if s := r.Format(); !strings.Contains(s, r.ID) {
			t.Errorf("%s: Format missing id", r.ID)
		}
	}
}

func findRow(r *Report, key string) []string {
	for _, row := range r.Rows {
		if strings.Contains(row[0], key) || (len(row) > 1 && strings.Contains(row[1], key)) {
			return row
		}
	}
	return nil
}

func TestE1Contrast(t *testing.T) {
	r := E1()
	var cons, gpm []string
	for _, row := range r.Rows {
		switch row[0] {
		case "conservative":
			cons = row
		case "adds+gpm":
			gpm = row
		}
	}
	if cons == nil || gpm == nil {
		t.Fatalf("rows: %v", r.Rows)
	}
	if cons[1] != "no" || cons[2] != "no" {
		t.Errorf("conservative row = %v, want no/no", cons)
	}
	if gpm[1] != "yes" || gpm[2] != "yes" {
		t.Errorf("gpm row = %v, want yes/yes", gpm)
	}
}

func TestE2NoViolations(t *testing.T) {
	r := E2()
	if len(r.Rows) != 18 { // 6 structures x 3 sizes
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[3] != "0" {
			t.Errorf("%s size %s: %s violations", row[0], row[1], row[3])
		}
	}
}

func TestE3AllMaybeAliases(t *testing.T) {
	r := E3()
	if row := findRow(r, "hd,p"); row == nil || row[1] != "yes" {
		t.Errorf("conservative must alias hd,p: %v", r.Rows)
	}
	if !strings.Contains(r.Figures[0], "=?") {
		t.Errorf("alias matrix missing =? entries:\n%s", r.Figures[0])
	}
}

func TestE4MatchesPaper(t *testing.T) {
	r := E4()
	checks := map[string]string{
		"PM(hd,p) before loop": "next",
		"PM(hd,p) fixed point": "next+",
		"PM(p',p)":             "next",
		"MayAlias(hd,p)":       "no",
		"abstraction valid":    "yes",
	}
	for key, want := range checks {
		row := findRow(r, key)
		if row == nil {
			t.Errorf("row %q missing", key)
			continue
		}
		if row[1] != want {
			t.Errorf("%s = %q, want %q", key, row[1], want)
		}
	}
}

func TestE5FalseDepsRemoved(t *testing.T) {
	r := E5()
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	cons, gpm := r.Rows[0], r.Rows[1]
	if cons[2] != "yes" || cons[3] != "yes" {
		t.Errorf("conservative lacks the false carried deps: %v", cons)
	}
	if gpm[1] != "0" {
		t.Errorf("gpm should have 0 carried mem deps: %v", gpm)
	}
	if cons[4] != "yes" || gpm[4] != "yes" {
		t.Errorf("the real S6->S1 recurrence must survive both: %v %v", cons, gpm)
	}
}

func TestE6TheoreticalSpeedupFive(t *testing.T) {
	r := E6()
	if row := findRow(r, "theoretical speedup"); row == nil || row[1] != "5.0" {
		t.Errorf("theoretical speedup row: %v", r.Rows)
	}
	if row := findRow(r, "initiation interval"); row == nil || row[1] != "1" {
		t.Errorf("II row: %v", r.Rows)
	}
	row := findRow(r, "measured VLIW speedup")
	if row == nil {
		t.Fatal("measured row missing")
	}
	var speedup float64
	if _, err := fmtSscanf(row[1], &speedup); err != nil || speedup < 4.5 {
		t.Errorf("measured speedup %v (row %v)", speedup, row)
	}
	if row := findRow(r, "conservative: pipelining legal"); row == nil || row[1] != "no" {
		t.Errorf("conservative contrast row: %v", r.Rows)
	}
}

// fmtSscanf parses the leading float of a cell like "6.43 (seq ...)".
func fmtSscanf(s string, f *float64) (int, error) {
	i := 0
	for i < len(s) && (s[i] == '.' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, err
	}
	*f = v
	return 1, nil
}

func TestE7UnrollShape(t *testing.T) {
	r := E7()
	// Find the n=100, k=3 row: speedup should be substantial (>= +25%).
	for _, row := range r.Rows {
		if row[0] == "100" && row[1] == "3" {
			if !strings.HasPrefix(row[4], "+") {
				t.Fatalf("k=3 speedup row: %v", row)
			}
			var pct float64
			if _, err := fmtSscanf(strings.TrimPrefix(row[4], "+"), &pct); err != nil || pct < 25 {
				t.Errorf("3-unroll speedup = %v%%, want >= 25%% (paper: 47%%)", pct)
			}
			return
		}
	}
	t.Fatal("n=100 k=3 row missing")
}

func TestE8KLimitFails(t *testing.T) {
	r := E8()
	for _, row := range r.Rows {
		if strings.HasPrefix(row[0], "klimit") && row[1] != "yes" {
			t.Errorf("%s should fail to prove advance: %v", row[0], row)
		}
		if row[0] == "adds+gpm" && row[1] != "no" {
			t.Errorf("gpm should prove advance: %v", row)
		}
	}
}

func TestE9ValidityTimeline(t *testing.T) {
	r := E9()
	var afterBreak, afterRepair []string
	for _, row := range r.Rows {
		if strings.Contains(row[0], "dest->left = @t1") || strings.Contains(row[0], "dest->left =") {
			afterBreak = row
		}
		if strings.Contains(row[0], "src->left = NULL") {
			afterRepair = row
		}
	}
	if afterBreak == nil || afterRepair == nil {
		t.Fatalf("rows: %v", r.Rows)
	}
	if afterBreak[1] != "no" {
		t.Errorf("abstraction should be invalid after the move: %v", afterBreak)
	}
	if afterRepair[1] != "yes" {
		t.Errorf("abstraction should be valid after the repair: %v", afterRepair)
	}
}

func TestE10WidthSweep(t *testing.T) {
	r := E10()
	var pipelined bool
	var bestSpeedup float64
	for _, row := range r.Rows {
		if row[2] == "pipelined" {
			pipelined = true
			var s float64
			if _, err := fmtSscanf(row[5], &s); err == nil && s > bestSpeedup {
				bestSpeedup = s
			}
		}
	}
	if !pipelined {
		t.Fatal("no width was wide enough to pipeline")
	}
	if bestSpeedup < 4.5 {
		t.Errorf("best pipelined speedup = %.2f, want >= 4.5", bestSpeedup)
	}
}

// TestDefs keeps the registry metadata in sync with the Report literals:
// each Def must produce a report carrying the same id and title.
func TestDefs(t *testing.T) {
	defs := Defs()
	if len(defs) != 10 {
		t.Fatalf("got %d defs", len(defs))
	}
	for _, d := range defs {
		r := d.Run()
		if r.ID != d.ID {
			t.Errorf("def %s produced report id %s", d.ID, r.ID)
		}
		if r.Title != d.Title {
			t.Errorf("def %s title %q != report title %q", d.ID, d.Title, r.Title)
		}
	}
}

func TestByID(t *testing.T) {
	if ByID("e4") == nil || ByID("E10") == nil {
		t.Error("ByID lookup failed")
	}
	if ByID("E99") != nil {
		t.Error("bogus id matched")
	}
}
