package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks packages from source using only the
// standard library. Import paths inside the enclosing module resolve
// against the module root (read from go.mod); everything else resolves
// against GOROOT/src (with the GOROOT vendor tree as fallback). The
// repository has no external module dependencies, so the two trees cover
// every import. Build-constrained files are selected by a go/build
// context with cgo disabled, which picks the pure-Go fallbacks of the
// few stdlib packages that have cgo variants.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	ctx    build.Context
	goroot string
	deps   map[string]*types.Package // import path -> dependency-checked package
	units  map[string]*Unit          // import path -> fully loaded unit
	eff    *effEngine                // shared effect-summary engine (lazy)
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false
	return &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		ModuleRoot: root,
		ctx:        ctx,
		goroot:     runtime.GOROOT(),
		deps:       make(map[string]*types.Package),
		units:      make(map[string]*Unit),
	}, nil
}

// SetBuildTags sets the build tags honored during file selection. It
// must be called before any package is loaded; once files have been
// parsed under one tag set, changing it would desynchronize the caches.
func (l *Loader) SetBuildTags(tags []string) {
	l.ctx.BuildTags = append([]string(nil), tags...)
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// dirFor maps an import path to the directory holding its source.
func (l *Loader) dirFor(importPath string) (string, error) {
	if importPath == l.ModulePath {
		return l.ModuleRoot, nil
	}
	if sub, ok := strings.CutPrefix(importPath, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(sub)), nil
	}
	d := filepath.Join(l.goroot, "src", filepath.FromSlash(importPath))
	if isDir(d) {
		return d, nil
	}
	v := filepath.Join(l.goroot, "src", "vendor", filepath.FromSlash(importPath))
	if isDir(v) {
		return v, nil
	}
	return "", fmt.Errorf("cannot resolve import %q (not in module %s or GOROOT)", importPath, l.ModulePath)
}

// inModule reports whether pkg belongs to the loaded module (as opposed
// to the standard library).
func (l *Loader) inModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == l.ModulePath || strings.HasPrefix(p, l.ModulePath+"/")
}

func isDir(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}

// pathFor maps a directory to its import path (module-relative when the
// directory is inside the module).
func (l *Loader) pathFor(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	if abs == l.ModuleRoot {
		return l.ModulePath
	}
	if rel, err := filepath.Rel(l.ModuleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		return l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return abs
}

// importerFor adapts the loader to types.Importer.
type importerFor struct{ l *Loader }

func (i importerFor) Import(path string) (*types.Package, error) {
	return i.l.importPath(path)
}

// importPath loads a dependency package (types only, no AST retained).
func (l *Loader) importPath(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.deps[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return pkg, nil
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	l.deps[path] = nil // cycle guard
	pkg, _, err := l.check(path, dir, nil)
	if err != nil {
		delete(l.deps, path)
		return nil, err
	}
	l.deps[path] = pkg
	return pkg, nil
}

// check parses and type-checks the package in dir. When info is non-nil
// the full type information is recorded (target packages); dependencies
// pass nil.
func (l *Loader) check(path, dir string, info *types.Info) (*types.Package, []*ast.File, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	var firstErr error
	nerr := 0
	conf := types.Config{
		Importer: importerFor{l},
		Error: func(err error) {
			nerr++
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if firstErr != nil {
		return nil, nil, fmt.Errorf("type-checking %s (%d errors): %w", path, nerr, firstErr)
	}
	return pkg, files, nil
}

// Unit is one type-checked package under analysis.
type Unit struct {
	Loader *Loader
	Path   string
	Dir    string
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info

	parents map[ast.Node]ast.Node // lazily built by Parent
}

// LoadUnit parses and type-checks the package in dir for analysis,
// retaining its syntax and full type information.
func (l *Loader) LoadUnit(dir string) (*Unit, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	path := l.pathFor(dir)
	if u, ok := l.units[path]; ok {
		return u, nil
	}
	pkg, files, err := l.check(path, dir, info)
	if err != nil {
		return nil, err
	}
	if _, ok := l.deps[path]; !ok {
		l.deps[path] = pkg // reuse for later importers
	}
	u := &Unit{
		Loader: l,
		Path:   path,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Pkg:    pkg,
		Info:   info,
	}
	l.units[path] = u
	return u, nil
}

// UnitFor loads (or returns the cached) unit for an import path. The
// effect engine uses it to pull callee packages in on demand.
func (l *Loader) UnitFor(path string) (*Unit, error) {
	if u, ok := l.units[path]; ok {
		return u, nil
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	return l.LoadUnit(dir)
}

// Expand resolves package patterns to directories. A pattern ending in
// "/..." walks the tree below its prefix; other patterns name a single
// directory. Directories named "testdata", hidden directories, and
// underscore-prefixed directories are skipped during walks, as are
// directories with no buildable Go files.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		abs, err := filepath.Abs(d)
		if err != nil {
			abs = d
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if prefix == "" {
				prefix = "."
			}
			err := filepath.WalkDir(prefix, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != prefix && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if l.hasGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if !isDir(pat) {
			return nil, fmt.Errorf("package pattern %q: not a directory", pat)
		}
		add(pat)
	}
	return dirs, nil
}

// hasGoFiles reports whether dir contains at least one buildable,
// non-test Go file.
func (l *Loader) hasGoFiles(dir string) bool {
	bp, err := l.ctx.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}
