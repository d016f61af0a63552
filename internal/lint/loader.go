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
	"regexp"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis. Test files are excluded: the analyzers enforce determinism
// of the shipped simulation code, while tests are free to exercise real
// sockets and wall-clock deadlines. So are files the default build leaves
// out by their build constraints, as go build does: a package may define
// one name in two files with opposite constraints.
type Package struct {
	// Path is the full import path ("shadowmeter/internal/netsim").
	Path string
	// RelPath is the module-relative path ("internal/netsim").
	RelPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Loader parses and type-checks packages of a single module rooted at
// Dir. Module-local imports are resolved recursively from source; the
// standard library is type-checked from $GOROOT/src via the stdlib
// "source" importer, so the tool needs nothing outside the standard
// library (the module is deliberately dependency-free).
type Loader struct {
	Dir    string // absolute module root (directory containing go.mod)
	Module string // module path declared in go.mod
	Fset   *token.FileSet

	pkgs    map[string]*Package // memoized loads, by import path
	loading map[string]bool     // cycle detection
	std     types.ImporterFrom
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// Open prepares a Loader for the module rooted at dir (the directory
// holding go.mod).
func Open(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: open module: %w", err)
	}
	m := moduleLineRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Dir:     abs,
		Module:  string(m[1]),
		Fset:    fset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load
// through the Loader, everything else falls through to the stdlib
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load parses and type-checks the package at importPath (memoized).
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.Module), "/")
	dir := filepath.Join(l.Dir, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", name, err)
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	p := &Package{
		Path: importPath, RelPath: rel, Dir: dir,
		Fset: l.Fset, Files: files, Pkg: pkg, Info: info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// Expand resolves package patterns ("./...", "internal/wire", "./cmd/tracer")
// against the module root into a sorted list of import paths. Directories
// named testdata, vendor, or starting with "." or "_" are never descended
// into.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			root := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			paths, err := l.walk(root)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
			continue
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(pat, l.Module), "/")
		if rel == "" {
			add(l.Module)
		} else {
			add(l.Module + "/" + filepath.ToSlash(rel))
		}
	}
	sort.Strings(out)
	return out, nil
}

// walk returns the import paths of every directory under rel (module-
// relative) that contains at least one non-test Go file.
func (l *Loader) walk(rel string) ([]string, error) {
	root := filepath.Join(l.Dir, filepath.FromSlash(rel))
	var out []string
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
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				sub, err := filepath.Rel(l.Dir, path)
				if err != nil {
					return err
				}
				if sub == "." {
					out = append(out, l.Module)
				} else {
					out = append(out, l.Module+"/"+filepath.ToSlash(sub))
				}
				break
			}
		}
		return nil
	})
	return out, err
}
