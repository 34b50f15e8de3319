// Package consumer stands in for a benchmark module: its test files are
// roots, so whatever they call stays live.
package consumer

import (
	"testing"

	"fixture/lib"
)

func TestConsumer(t *testing.T) {
	if lib.BenchOnly() != 1 {
		t.Fatal("BenchOnly")
	}
}
