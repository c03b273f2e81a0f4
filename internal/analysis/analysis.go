// Package analysis is the driver of nalquery's project-specific static
// analyzers — the nalvet suite (cmd/nalvet). Each analyzer mechanizes one
// cross-file invariant of the engine; see docs/ANALYSIS.md for the
// catalogue and the annotation grammar.
//
// The driver speaks the subset of the "go vet -vettool" protocol the go
// command uses: -V=full (tool identity for the build cache), -flags (the
// flags go vet may forward) and a single <dir>/vet.cfg argument naming one
// package: its files, the export data of its imports, and where to leave
// the vetx file the go command caches. It needs only the standard library.
package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"
)

// An Analyzer checks one invariant over one type-checked package. Its
// Flags are registered with the driver as -<Name>.<flag>.
type Analyzer struct {
	Name  string
	Doc   string
	Flags flag.FlagSet
	Run   func(*Pass) error
}

// A Pass is one analyzer's view of the package under analysis.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	findings []finding
}

// finding is one diagnostic, in the go vet -json schema.
type finding struct {
	Posn    string `json:"posn"` // file:line:col
	Message string `json:"message"`
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, finding{p.Fset.Position(pos).String(), fmt.Sprintf(format, args...)})
}

// Preorder calls fn for every node of every file in source order. stack
// holds the enclosing nodes, outermost first, ending in n itself.
func (p *Pass) Preorder(fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			fn(n, stack)
			return true
		})
	}
}

// Annotations finds the package's "//nal:<name> <reason>" comments and
// returns the look-up for the statement at pos: an annotation counts on the
// statement's own line (trailing) or on the line directly above it. reason
// is "" for an annotation that gives none.
func (p *Pass) Annotations(name string) func(pos token.Pos) (reason string, ok bool) {
	prefix := "//nal:" + name
	at := map[string]map[int]string{} // file → line → reason
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, found := strings.CutPrefix(c.Text, prefix)
				if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if at[pos.Filename] == nil {
					at[pos.Filename] = map[int]string{}
				}
				at[pos.Filename][pos.Line] = strings.TrimSpace(rest)
			}
		}
	}
	return func(pos token.Pos) (string, bool) {
		where := p.Fset.Position(pos)
		lines := at[where.Filename]
		if reason, ok := lines[where.Line]; ok {
			return reason, true
		}
		reason, ok := lines[where.Line-1]
		return reason, ok
	}
}

// CalleeName returns the unqualified name of the function or method a call
// invokes, "" for anything else (a call of a call, a conversion, …).
func CalleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// ListHas reports whether the comma-separated list (the value of a
// package-list flag) names s.
func ListHas(list, s string) bool {
	for _, e := range strings.Split(list, ",") {
		if strings.TrimSpace(e) == s {
			return true
		}
	}
	return false
}

// config is the part of the go command's vet.cfg the driver reads.
type config struct {
	ID          string // package ID, e.g. "fmt [fmt.test]"; keys the JSON output
	Compiler    string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string // import path in source → package path
	PackageFile map[string]string // package path → file holding its export data
	VetxOnly    bool              // a dependency pass: nothing may be reported
	VetxOutput  string            // the go command caches this file; it must exist

	SucceedOnTypecheckFailure bool // the compiler reports the errors; stay silent
}

// Main runs the analyzers as a go vet tool and exits: 0 when the package
// is clean (always under -json, whose consumer reads the findings), 1 on
// a finding or an error.
func Main(analyzers ...*Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("nalvet: ")

	fs := flag.NewFlagSet("nalvet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=nalvet [flags] packages   (or: nalvet [flags] packages)")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	version := fs.String("V", "", "print the tool's identity and exit (-V=full)")
	printFlags := fs.Bool("flags", false, "print the flags go vet forwards, as JSON, and exit")
	jsonOut := fs.Bool("json", false, "emit findings as JSON (package → analyzer → [{posn, message}])")
	for _, a := range analyzers {
		a.Flags.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, a.Name+"."+f.Name, f.Usage) })
	}
	fs.Parse(os.Args[1:]) // ExitOnError

	switch {
	case *version != "":
		printVersion(*version)
	case *printFlags:
		describeFlags(fs)
	case fs.NArg() == 1 && strings.HasSuffix(fs.Arg(0), ".cfg"):
		os.Exit(runUnit(fs.Arg(0), analyzers, *jsonOut))
	default:
		fs.Usage()
		os.Exit(2)
	}
}

// printVersion answers -V=full in the form the go command parses: a
// "devel" version whose last field is a buildID, here the hash of the
// executable, so rebuilding the tool invalidates cached vet results.
func printVersion(v string) {
	if v != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", v)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	self, err := os.ReadFile(exe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nalvet version devel comments-go-here buildID=%02x\n", sha256.Sum256(self))
}

// describeFlags answers -flags: the go command accepts exactly these on
// its own command line and forwards them.
func describeFlags(fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{}
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "V" || f.Name == "flags" {
			return
		}
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// runUnit analyzes the package cfgFile describes and returns the exit code.
func runUnit(cfgFile string, analyzers []*Analyzer, jsonOut bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", cfgFile, err)
	}
	// No analyzer leaves anything for the packages that import this one
	// (opcomplete reads the operator set from the export data), so the
	// vetx file is empty and a dependency pass has nothing else to do.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	if len(cfg.GoFiles) == 0 {
		log.Fatalf("package has no files: %s", cfg.ImportPath)
	}

	loaded, err := load(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatal(err)
	}

	found := map[string][]finding{} // analyzer → findings
	for _, a := range analyzers {
		pass := *loaded
		if err := a.Run(&pass); err != nil {
			log.Fatalf("%s: %v", a.Name, err)
		}
		if len(pass.findings) > 0 {
			found[a.Name] = pass.findings
		}
	}

	if jsonOut {
		tree := map[string]map[string][]finding{}
		if len(found) > 0 {
			tree[cfg.ID] = found
		}
		out, err := json.MarshalIndent(tree, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", out)
		return 0
	}
	for _, a := range analyzers {
		for _, f := range found[a.Name] {
			fmt.Fprintf(os.Stderr, "%s: %s\n", f.Posn, f.Message)
		}
	}
	if len(found) > 0 {
		return 1
	}
	return 0
}

// load parses and type-checks the package, importing its dependencies
// from the export data the go command built for them.
func load(cfg *config) (*Pass, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	exports := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	if exports == nil {
		return nil, fmt.Errorf("unsupported compiler %q", cfg.Compiler)
	}
	tc := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath] // resolves vendoring and test variants
			if !ok {
				return nil, fmt.Errorf("cannot resolve import %q", importPath)
			}
			return exports.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
