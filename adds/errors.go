package adds

import (
	"errors"
	"fmt"

	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// Sentinel errors for the recoverable failure modes of the facade. Wrapped
// errors carry context (function name, loop index, width); match them with
// errors.Is. The CLIs map each to a distinct exit code via ExitCode, and
// addsd maps them to HTTP statuses.
var (
	// ErrUnknownFunction reports a function name not declared in the unit.
	ErrUnknownFunction = errors.New("unknown function")
	// ErrNoSuchLoop reports a loop index outside the function's loops.
	ErrNoSuchLoop = errors.New("no such loop")
	// ErrBadWidth reports a non-positive VLIW machine width.
	ErrBadWidth = errors.New("bad machine width")
	// ErrDivergence reports that a differential-testing campaign found at
	// least one oracle divergence — the run itself succeeded, but the tree
	// is buggy. addsfuzz exits with ExitDivergence so CI can distinguish
	// "found a bug" from "the fuzzer broke".
	ErrDivergence = errors.New("divergence found")
)

// SourceError is a parse or type error carrying its source position.
// Load wraps the first parser or checker diagnostic in one; retrieve it
// with errors.As to report positions structurally.
type SourceError struct {
	Line, Col int
	Msg       string
	More      int // additional diagnostics beyond the first
}

// Error renders the paper-tool style "line:col: message" diagnostic.
func (e *SourceError) Error() string {
	s := fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
	if e.More > 0 {
		s += fmt.Sprintf(" (and %d more errors)", e.More)
	}
	return s
}

// wrapParseErr converts the parser's error forms into *SourceError.
func wrapParseErr(err error) error {
	var list parser.ErrorList
	if errors.As(err, &list) && len(list) > 0 {
		return &SourceError{
			Line: list[0].Pos.Line, Col: list[0].Pos.Column,
			Msg: list[0].Msg, More: len(list) - 1,
		}
	}
	var pe *parser.Error
	if errors.As(err, &pe) {
		return &SourceError{Line: pe.Pos.Line, Col: pe.Pos.Column, Msg: pe.Msg}
	}
	return err
}

// wrapTypeErrs converts checker diagnostics into *SourceError.
func wrapTypeErrs(errs []*types.Error) error {
	if len(errs) == 0 {
		return nil
	}
	return &SourceError{
		Line: errs[0].Pos.Line, Col: errs[0].Pos.Column,
		Msg: errs[0].Msg, More: len(errs) - 1,
	}
}

// Exit codes shared by the CLIs: every tool reports the same failure class
// with the same status, so scripts can branch without parsing messages.
const (
	ExitOK       = 0
	ExitInternal = 1 // unclassified failure (I/O, internal error)
	ExitUsage    = 2 // flag or argument misuse
	ExitSource   = 3 // parse or type error in the input program
	ExitNoFunc   = 4 // ErrUnknownFunction
	ExitNoLoop   = 5 // ErrNoSuchLoop
	ExitWidth    = 6 // ErrBadWidth
	// ExitDivergence is addsfuzz's "the campaign worked and found bugs".
	ExitDivergence = 7 // ErrDivergence
)

// ExitCode maps an error to the shared CLI exit code for its class.
func ExitCode(err error) int {
	var se *SourceError
	switch {
	case err == nil:
		return ExitOK
	case errors.As(err, &se):
		return ExitSource
	case errors.Is(err, ErrUnknownFunction):
		return ExitNoFunc
	case errors.Is(err, ErrNoSuchLoop):
		return ExitNoLoop
	case errors.Is(err, ErrBadWidth):
		return ExitWidth
	case errors.Is(err, ErrDivergence):
		return ExitDivergence
	}
	return ExitInternal
}
