// Command nalvet is nalquery's project-specific static analysis suite:
// five analyzers behind one go vet tool (the internal/analysis driver)
// that mechanically enforce the engine's cross-file invariants (operator
// dispatch completeness, the panic discipline, the budget charge map,
// MustParse confinement, scan-loop cancellation polling). See
// docs/ANALYSIS.md.
//
// It runs two ways:
//
//	go vet -vettool=$(pwd)/bin/nalvet ./...   # as a vet tool
//	nalvet ./...                              # standalone (re-execs go vet)
//	nalvet -json ./...                        # machine-readable findings
//
// Standalone mode simply re-invokes "go vet -vettool=<self>" on the given
// package patterns, so both paths run the identical vet-tool protocol and
// the go command does the package loading, building and caching.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"nalquery/internal/analysis"
	"nalquery/internal/analysis/budgetcharge"
	"nalquery/internal/analysis/ctxpoll"
	"nalquery/internal/analysis/mustparse"
	"nalquery/internal/analysis/opcomplete"
	"nalquery/internal/analysis/panicdiscipline"
)

func main() {
	// Under "go vet -vettool" the go command invokes this binary with a
	// vet.cfg argument or the protocol flags -V=full and -flags. Anything
	// else is a human invocation: re-exec through go vet so package
	// loading, export data and caching all work.
	if standaloneInvocation(os.Args[1:]) {
		os.Exit(standalone(os.Args[1:]))
	}
	analysis.Main(
		opcomplete.Analyzer,
		panicdiscipline.Analyzer,
		budgetcharge.Analyzer,
		mustparse.Analyzer,
		ctxpoll.Analyzer,
	)
}

// standaloneInvocation reports whether the arguments look like a human
// running nalvet directly on package patterns, rather than the go
// command driving the vet-tool protocol.
func standaloneInvocation(args []string) bool {
	if len(args) == 0 {
		return false // let the driver print its usage
	}
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") || strings.HasPrefix(a, "-V") ||
			a == "-flags" || a == "--flags" {
			return false
		}
	}
	return true
}

func standalone(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nalvet: cannot locate own binary: %v\n", err)
		return 2
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "nalvet: %v\n", err)
		return 2
	}
	return 0
}
