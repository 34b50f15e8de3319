// Package cli holds the flag vocabulary shared by the adds tools, so
// addsc, addsd, addsbench, and addsfuzz spell their common knobs the same
// way: -oracle, -format, -par, -log-level, -log-format. Each helper
// registers the flag with one canonical help string and validates it into
// a typed *UsageError, which ExitCode maps to the shared usage status
// (exit 2) — the tools report flag misuse identically without any of them
// owning the parsing.
package cli

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"flag"

	"repro/adds"
	"repro/internal/obs"
)

// UsageError reports flag or argument misuse: a value outside the flag's
// vocabulary, a missing operand. The CLIs print it one-line and exit with
// adds.ExitUsage.
type UsageError struct{ Msg string }

func (e *UsageError) Error() string { return e.Msg }

// Usagef builds a *UsageError the fmt way.
func Usagef(format string, args ...any) error {
	return &UsageError{Msg: fmt.Sprintf(format, args...)}
}

// ExitCode maps an error to the shared CLI exit code: usage errors to
// adds.ExitUsage, everything else through adds.ExitCode.
func ExitCode(err error) int {
	var ue *UsageError
	if errors.As(err, &ue) {
		return adds.ExitUsage
	}
	return adds.ExitCode(err)
}

// LogFlags carries the shared logging knobs. Register the flags, parse,
// then build the tool's logger with Logger.
type LogFlags struct {
	Level  string
	Format string
}

// RegisterLogFlags adds -log-level and -log-format to the flag set with
// the given default format ("text" for interactive tools, "json" for the
// daemon).
func RegisterLogFlags(fs *flag.FlagSet, defaultFormat string) *LogFlags {
	lf := &LogFlags{}
	fs.StringVar(&lf.Level, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&lf.Format, "log-format", defaultFormat, "log format: text or json")
	return lf
}

// Logger builds the slog logger the flags describe, writing to w. Bad
// spellings are a *UsageError.
func (lf *LogFlags) Logger(w io.Writer) (*slog.Logger, error) {
	lg, err := obs.NewLogger(w, lf.Level, lf.Format)
	if err != nil {
		return nil, &UsageError{Msg: err.Error()}
	}
	return lg, nil
}

// OracleFlags carries the shared oracle selection (-oracle and its -k).
type OracleFlags struct {
	Name string
	K    int
}

// RegisterOracleFlags adds -oracle and -k to the flag set. The usage text
// enumerates the oracle table, so a new oracle shows up in every tool's
// -help without touching the tools.
func RegisterOracleFlags(fs *flag.FlagSet) *OracleFlags {
	of := &OracleFlags{}
	fs.StringVar(&of.Name, "oracle", "gpm", "alias oracle: "+strings.Join(adds.OracleNames(), ", "))
	fs.IntVar(&of.K, "k", 2, "k for the k-limited oracle")
	return of
}

// Canonical validates the oracle spelling against the registry and returns
// its canonical name; unknown names are a *UsageError listing the
// registered oracles.
func (of *OracleFlags) Canonical() (string, error) {
	name, err := adds.ParseOracle(of.Name)
	if err != nil {
		return "", &UsageError{Msg: err.Error()}
	}
	return name, nil
}

// RegisterFormat adds the shared -format flag with the given default and
// vocabulary (conventionally "text" and "json").
func RegisterFormat(fs *flag.FlagSet, def string, allowed ...string) *string {
	return fs.String("format", def, "output format: "+strings.Join(allowed, " or "))
}

// CheckFormat validates a -format value against the tool's vocabulary.
func CheckFormat(tool, got string, allowed ...string) error {
	for _, a := range allowed {
		if got == a {
			return nil
		}
	}
	return Usagef("%s: unknown -format %q (known: %s)", tool, got, strings.Join(allowed, ", "))
}

// RegisterPar adds the shared -par worker-count flag (0 = one per CPU).
func RegisterPar(fs *flag.FlagSet, what string) *int {
	return fs.Int("par", 0, what+" worker count (0 = one per CPU, 1 = serial)")
}
