package lint

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

// Package is one parsed and type-checked package of the module under
// analysis — everything an Analyzer needs: syntax with comments, the
// type-checker's object resolution, and the package's import path (which
// is how Config scopes invariants to subsystems).
type Package struct {
	Path  string // import path ("hybp/internal/obs")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files only, sorted by file name
	Pkg   *types.Package
	Info  *types.Info
}

// LoadModule parses and type-checks every non-test package of the module
// rooted at root (the directory holding go.mod). It uses only the standard
// library: go/parser for syntax, go/types for semantics, and the "source"
// importer for standard-library dependencies. Module-internal imports are
// resolved against the packages being checked, in dependency order, so the
// loader needs no build cache and no external tooling.
//
// Test files are excluded deliberately: the enforced invariants (wall-clock
// freedom, atomic writes, goroutine panic safety) are production-path
// contracts; tests legitimately read clocks and environment variables.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	raws, err := scanModule(fset, root, modPath)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(raws)
	if err != nil {
		return nil, err
	}
	checked := make(map[string]*types.Package, len(order))
	imp := &modImporter{
		checked: checked,
		std:     importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, rp := range order {
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(rp.path, fset, rp.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", rp.path, err)
		}
		checked[rp.path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  rp.path,
			Dir:   rp.dir,
			Fset:  fset,
			Files: rp.files,
			Pkg:   tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. Imports are resolved from the standard library only — the
// loader the analyzer test fixtures use.
func LoadDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	files, _, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
	}
	return &Package{Path: importPath, Dir: dir, Fset: fset, Files: files, Pkg: tpkg, Info: info}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// modulePath reads the module directive from root/go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// rawPkg is a parsed-but-unchecked package plus its module-internal deps.
type rawPkg struct {
	path  string
	dir   string
	files []*ast.File
	deps  []string // module-internal import paths
	name  string
}

// scanModule walks the module tree and parses every package directory.
func scanModule(fset *token.FileSet, root, modPath string) (map[string]*rawPkg, error) {
	raws := map[string]*rawPkg{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, imports, err := parseDir(fset, path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ipath := modPath
		if rel != "." {
			ipath = modPath + "/" + filepath.ToSlash(rel)
		}
		rp := &rawPkg{path: ipath, dir: path, files: files, name: files[0].Name.Name}
		for _, imp := range imports {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				rp.deps = append(rp.deps, imp)
			}
		}
		raws[ipath] = rp
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	return raws, nil
}

// parseDir parses the non-test Go files of one directory, in sorted file
// order (so diagnostics and type-checking are independent of readdir
// order), and returns the union of their import paths.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		// Only the files the go command would compile for this host: a
		// package may declare one function in a _amd64.go file and again
		// in a //go:build !amd64 one.
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, nil, err
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	impSet := map[string]bool{}
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			impSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	var imports []string
	for p := range impSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	return files, imports, nil
}

// topoSort orders packages so every package follows its module-internal
// dependencies.
func topoSort(raws map[string]*rawPkg) ([]*rawPkg, error) {
	paths := make([]string, 0, len(raws))
	for p := range raws {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*rawPkg
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p)
		}
		state[p] = visiting
		rp := raws[p]
		for _, d := range rp.deps {
			if _, ok := raws[d]; !ok {
				return fmt.Errorf("lint: %s imports %s, which has no Go files in the module", p, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = done
		order = append(order, rp)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// modImporter resolves module-internal imports from the already-checked
// set and everything else from the standard library's source importer.
type modImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *modImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	if f, ok := m.std.(types.ImporterFrom); ok {
		return f.ImportFrom(path, dir, mode)
	}
	return m.std.Import(path)
}
