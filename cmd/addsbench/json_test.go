package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/adds"
)

// encoderJSON is what -format json printed before it was written with the
// append writers: v encoded by reflection through an indenting json.Encoder
// that does not escape HTML.
func encoderJSON(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestJSONMatchesEncoder pins -format json byte for byte to encoderJSON:
// the -list rows, every report, and a run whose ids are all unknown.
func TestJSONMatchesEncoder(t *testing.T) {
	type row struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	rows := []row{}
	var ids []string
	var reports []*adds.Report
	for _, d := range adds.ExperimentDefs() {
		rows = append(rows, row{ID: d.ID, Title: d.Title})
		ids = append(ids, d.ID)
		reports = append(reports, d.Run())
	}
	for _, c := range []struct {
		name       string
		args       []string
		wantStatus int
		want       string
	}{
		{"list", []string{"-list"}, 0, encoderJSON(t, rows)},
		{"all", ids, 0, encoderJSON(t, reports)},
		{"one", []string{"e4"}, 0, encoderJSON(t, reports[3:4])},
		{"none", []string{"E99"}, 1, encoderJSON(t, []*adds.Report{})},
	} {
		status, got, stderr := runCmd(t, append([]string{"-format", "json"}, c.args...)...)
		if status != c.wantStatus {
			t.Fatalf("%s: status %d, want %d (stderr %q)", c.name, status, c.wantStatus, stderr)
		}
		if got != c.want {
			t.Errorf("%s: output differs from the json.Encoder document\ngot:\n%s\nwant:\n%s", c.name, got, c.want)
		}
	}
}
