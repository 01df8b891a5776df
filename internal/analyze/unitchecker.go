package analyze

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// This file implements the tool side of the `go vet -vettool=...` protocol,
// compatible with the driver in cmd/go (which normally talks to
// golang.org/x/tools' unitchecker — unavailable in this build environment,
// so the contract is reimplemented here on the standard library):
//
//   - `nfvet -V=full` prints a version banner whose last field is
//     "buildID=<content hash>"; cmd/go keys its vet result cache on it.
//   - `nfvet -flags` prints a JSON description of the tool's flags so
//     cmd/go can validate pass-through flags.
//   - `nfvet <unit>.cfg` analyzes one compilation unit: the JSON config
//     carries the file list plus the export-data location of every
//     dependency, exactly as the compiler sees them.
//
// Diagnostics go to stderr as file:line:col: message, and the process exits
// nonzero iff there were findings — cmd/go surfaces them per package.
//
// Facts ride the same protocol: each unit decodes the vetx files of its
// dependencies (cfg.PackageVetx), analyzes with them in scope, and writes
// its own exported facts to cfg.VetxOutput, which cmd/go caches and feeds
// to dependents. Units driven with VetxOnly (dependencies of the packages
// named on the vet command line) export facts and suppress diagnostics.

// vetConfig mirrors the JSON configuration cmd/go writes for each unit.
// Field names must match; unknown fields are ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// VettoolMain implements the vet-tool lifecycle for the analyzer suite and
// returns the process exit code. args is os.Args[1:].
func VettoolMain(progname string, analyzers []*Analyzer, args []string) int {
	// Strip analyzer-selection flags (-wallclock, -wallclock=true, ...)
	// that cmd/go forwards when the user narrows the run.
	enabled, rest := filterAnalyzerFlags(analyzers, args)

	if len(rest) == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s [-V=full | -flags | unit.cfg]\n", progname)
		return 1
	}
	switch rest[0] {
	case "-V=full":
		// cmd/go requires: field 1 == "version", field 2 == "devel" ⇒ the
		// last field must start with "buildID=" and carry a content hash.
		fmt.Printf("%s version devel comments-go-here buildID=%s\n", progname, selfHash())
		return 0
	case "-V":
		fmt.Printf("%s version devel\n", progname)
		return 0
	case "-flags":
		printFlagDefs(analyzers)
		return 0
	}
	if !strings.HasSuffix(rest[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "%s: expected a *.cfg argument, got %q\n", progname, rest[0])
		return 1
	}
	return runUnit(progname, rest[0], enabled, os.Stderr)
}

// filterAnalyzerFlags interprets boolean flags named after analyzers as a
// selection: if any appear with a true value, only those analyzers run.
// Unrecognized arguments pass through.
func filterAnalyzerFlags(analyzers []*Analyzer, args []string) ([]*Analyzer, []string) {
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var selected []*Analyzer
	var rest []string
	for _, arg := range args {
		name, val, found := strings.Cut(strings.TrimPrefix(arg, "-"), "=")
		a, known := byName[name]
		if !strings.HasPrefix(arg, "-") || !known {
			rest = append(rest, arg)
			continue
		}
		if !found || val == "true" || val == "1" {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		selected = analyzers
	}
	return selected, rest
}

// selfHash hashes the running executable; cmd/go mixes this into its action
// cache key so that rebuilding the tool invalidates cached vet results.
func selfHash() string {
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return fmt.Sprintf("%x", h.Sum(nil))
			}
		}
	}
	// Degrade to a constant: caching becomes overly sticky but runs work.
	return "unknown"
}

// printFlagDefs emits the JSON flag listing cmd/go requests via -flags.
func printFlagDefs(analyzers []*Analyzer) {
	type jsonFlag struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	var flags []jsonFlag
	for _, a := range analyzers {
		flags = append(flags, jsonFlag{a.Name, true, "enable only the " + a.Name + " analysis"})
	}
	data, _ := json.MarshalIndent(flags, "", "\t")
	os.Stdout.Write(data)
	fmt.Println()
}

// runUnit analyzes one compilation unit described by a cfg file, reading its
// dependencies' facts from PackageVetx and writing its own to VetxOutput.
// Diagnostics go to errw.
func runUnit(progname, cfgFile string, analyzers []*Analyzer, errw io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(errw, "%s: %v\n", progname, err)
		return 1
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(errw, "%s: parsing %s: %v\n", progname, cfgFile, err)
		return 1
	}

	// cmd/go caches and feeds back the vetx output, so a file must exist on
	// every exit path; paths that bail before analysis write an empty set.
	writeEmptyVetx := func() int {
		if cfg.VetxOutput == "" {
			return 0
		}
		if err := WriteFactsFile(cfg.VetxOutput, NewFactSet()); err != nil {
			fmt.Fprintf(errw, "%s: %v\n", progname, err)
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeEmptyVetx() // the compiler will report it better
			}
			fmt.Fprintf(errw, "%s: %v\n", progname, err)
			return 1
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path, already through ImportMap.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath] // resolve vendoring
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return compilerImporter.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := NewInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeEmptyVetx()
		}
		fmt.Fprintf(errw, "%s: %v\n", progname, err)
		return 1
	}

	// Load the dependencies' fact sets. A missing, torn or otherwise
	// undecodable vetx file fails the unit: skipping it would silently drop
	// every diagnostic that dependency's facts carry. Stale caches may still
	// hold the pre-facts tool's zero-byte files; those decode to the empty
	// set.
	facts := NewFactStore()
	for importPath, vetxFile := range cfg.PackageVetx {
		fs, err := ReadFactsFile(vetxFile)
		if err != nil {
			fmt.Fprintf(errw, "%s: %v\n", progname, err)
			return 1
		}
		facts.AddPackage(importPath, fs)
	}

	res := RunUnit(analyzers, fset, files, pkg, info, facts)

	// Export this unit's facts before any VetxOnly short-circuit: the whole
	// point of a VetxOnly run is the facts, not the diagnostics.
	if cfg.VetxOutput != "" {
		if err := WriteFactsFile(cfg.VetxOutput, facts.Exported()); err != nil {
			fmt.Fprintf(errw, "%s: %v\n", progname, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	for _, d := range res.Diags {
		fmt.Fprintf(errw, "%s:%d:%d: %s (%s)\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(res.Diags) > 0 {
		return 1
	}
	return 0
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
