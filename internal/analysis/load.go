package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package — the unit analyzers run on.
type Package struct {
	Fset      *token.FileSet
	Path      string
	Dir       string
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	Escapes   *Escapes
}

// Loader parses and type-checks packages of one module without any external
// tooling: imports inside the module resolve by directory under the module
// root, standard-library imports resolve through the toolchain's source
// importer (GOROOT), and everything else is rejected — the module is
// dependency-free by policy, so an unknown import is itself a finding.
//
// A Loader caches type-checked packages, so one process-wide instance
// type-checks shared dependencies (internal/item, internal/ast, ...) once.
// Loaders are not safe for concurrent use.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModRoot string

	std  types.Importer
	pkgs map[string]*types.Package
}

// NewLoader builds a loader for the module rooted at (or above) dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The source importer type-checks GOROOT packages from source; with cgo
	// disabled every std package resolves to its pure-Go fallback, which is
	// all the type information the analyzers need.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: root,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer: module-internal paths load from source
// under the module root, the rest defers to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := l.ModRoot
		if path != l.ModPath {
			dir = filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
		}
		pkg, err := l.check(dir, path, nil, nil)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package in dir under import path, with
// full expression type information for the analyzers. Test files are
// excluded: the invariants gate shipped code.
func (l *Loader) Load(dir, path string) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var files []*ast.File
	pkg, err := l.check(dir, path, info, &files)
	if err != nil {
		return nil, err
	}
	// Cache only if nothing imported this path yet: overwriting would hand
	// later packages a second, non-identical copy of the same types.
	if _, ok := l.pkgs[path]; !ok {
		l.pkgs[path] = pkg
	}
	return &Package{
		Fset:      l.Fset,
		Path:      path,
		Dir:       dir,
		Syntax:    files,
		Types:     pkg,
		TypesInfo: info,
		Escapes:   collectEscapes(l.Fset, files),
	}, nil
}

// check parses the non-test Go files of dir that build on the host platform
// and type-checks them as package path. When info/filesOut are non-nil they
// receive the detailed results.
func (l *Loader) check(dir, path string, info *types.Info, filesOut *[]*ast.File) (*types.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Select files as the go tool does: a file built only on other
		// platforms (a //go:build line, a _GOOS suffix) is not part of the
		// package here, and would redeclare what the host's file declares.
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: %s: no Go files in %s", path, dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // collect the first error below, keep going
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	if filesOut != nil {
		*filesOut = files
	}
	return pkg, nil
}
