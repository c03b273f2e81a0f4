// Package cli holds small helpers shared by the command-line front ends
// (cmd/nalsh, cmd/nalserved, cmd/nalbench) and the root package's
// benchmarks.
package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseVarValue parses an external-variable binding value given on a
// command line — nalsh's -var name=value and \set — with one
// shared rule: integer, then float, then string, with surrounding quotes
// stripped (the way to bind a numeric-looking string, e.g. "1995").
func ParseVarValue(s string) any {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	if len(s) >= 2 && (s[0] == '"' && s[len(s)-1] == '"' || s[0] == '\'' && s[len(s)-1] == '\'') {
		return s[1 : len(s)-1]
	}
	return s
}

// ParseBytes parses a byte-count with an optional binary suffix — "65536",
// "64k", "16m", "1g" (case-insensitive, trailing "b" allowed as in "64kb").
// It is the shared syntax of every memory-budget knob: nalsh -max-memory
// and \limit, nalserved -max-memory and the X-Nalquery-Max-Memory header.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	t = strings.TrimSuffix(t, "b")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "k"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "m"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "g"):
		mult, t = 1<<30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad byte count %q (want e.g. 65536, 64k, 16m, 1g)", s)
	}
	return n * mult, nil
}
