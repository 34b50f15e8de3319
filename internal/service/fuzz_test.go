package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/gen"
	"repro/internal/respond"
)

// FuzzSource feeds raw bytes through the whole /v1/analyze path — lexer,
// parser, type checker, normalizer, fixpoint, oracles — the way addsd
// receives them. Every input must end in a response, a *adds.SourceError
// or the deadline's error within 5 s; any other error, or a panic, fails.
//
//	go test -fuzz=FuzzSource -fuzztime 30s ./internal/service/
func FuzzSource(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, pr := range gen.Profiles() {
		f.Add(gen.Generate(1, pr).Source())
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := respond.BuildAnalyze(ctx, &wire.AnalyzeRequest{Source: string(src)})
		var srcErr *adds.SourceError
		switch {
		case err == nil:
			if resp == nil {
				t.Fatal("nil response without an error")
			}
		case errors.As(err, &srcErr):
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		default:
			t.Fatalf("untyped error %v (%T) for input %q", err, err, src)
		}
	})
}
