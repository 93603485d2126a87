package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks the packages of one Go module from source.
// It resolves module-internal imports itself (recursively, memoized) and
// delegates everything else to the standard library's source importer, so it
// needs no pre-compiled export data and no external dependencies.
//
// Parsing is embarrassingly parallel and is done up front by LoadAll with
// one worker per CPU; type-checking walks the import DAG sequentially
// (package type-checking is cheap next to stdlib parsing, and go/types
// wants its imports finished first).
type Loader struct {
	ModRoot string // absolute path of the directory containing go.mod
	ModPath string // module path declared in go.mod
	Fset    *token.FileSet

	pkgs map[string]*Package
	std  types.Importer
	// loading guards against import cycles, which would otherwise recurse
	// forever; Go forbids them, so hitting one means a bad module anyway.
	loading map[string]bool

	// parsed holds files pre-parsed by preparse, keyed by directory.
	parsed map[string][]parsedFile
}

// parsedFile is one source file parsed ahead of type-checking.
type parsedFile struct {
	path string
	src  []byte
	file *ast.File
	err  error
}

// NewLoader locates the enclosing module of dir and prepares a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: root,
		ModPath: modPath,
		Fset:    fset,
		pkgs:    map[string]*Package{},
		std:     importer.ForCompiler(fset, "source", nil),
		loading: map[string]bool{},
		parsed:  map[string][]parsedFile{},
	}, nil
}

// readModulePath extracts the module path from a go.mod file without
// depending on golang.org/x/mod.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// moduleDirs lists every directory under root that contains non-test Go
// files, in sorted order, skipping hidden directories and testdata trees
// (mirroring the go tool's rules).
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		names, err := sourceFileNames(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// preparse reads and parses every Go file of every directory concurrently,
// one worker per CPU. Errors are held per file and surface when the owning
// package is type-checked, keeping diagnostics deterministic.
func (l *Loader) preparse(dirs []string) error {
	type job struct {
		dir, path string
		idx       int
	}
	var jobs []job
	for _, dir := range dirs {
		names, err := sourceFileNames(dir)
		if err != nil {
			return err
		}
		files := make([]parsedFile, len(names))
		for i, name := range names {
			files[i] = parsedFile{path: filepath.Join(dir, name)}
			jobs = append(jobs, job{dir: dir, path: files[i].path, idx: i})
		}
		l.parsed[dir] = files
	}
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		pf := &l.parsed[j.dir][j.idx]
		pf.src, pf.err = os.ReadFile(j.path)
		if pf.err != nil {
			return
		}
		// token.FileSet and parser.ParseFile are safe for concurrent use
		// with distinct files.
		pf.file, pf.err = parser.ParseFile(l.Fset, j.path, pf.src, parser.ParseComments)
	})
	return nil
}

// sourceFileNames lists the non-test Go files of dir in sorted order.
func sourceFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Test files are deliberately out of scope: they panic and write
		// scratch files on purpose, and the invariants guard library code.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadAll walks the module tree and loads every package in it.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := moduleDirs(l.ModRoot)
	if err != nil {
		return nil, err
	}
	if err := l.preparse(dirs); err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Load returns the packages matching the given patterns. Supported patterns:
// "./..." (the whole module), "<dir>/..." (a subtree), and plain directory or
// module-relative import paths.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	all, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	return l.match(all, patterns)
}

// match keeps the packages of pkgs that match any of patterns (all of them
// when patterns is empty); a pattern that matches nothing is an error.
func (l *Loader) match(pkgs []*Package, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	var out []*Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		matched := false
		for _, p := range pkgs {
			if l.matches(p, pat) {
				matched = true
				if !seen[p.PkgPath] {
					seen[p.PkgPath] = true
					out = append(out, p)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

func (l *Loader) matches(p *Package, pat string) bool {
	if pat == "./..." || pat == "..." || pat == "all" {
		return true
	}
	rel, err := filepath.Rel(l.ModRoot, p.Dir)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == sub || strings.HasPrefix(rel, sub+"/") ||
			p.PkgPath == sub || strings.HasPrefix(p.PkgPath, sub+"/")
	}
	return rel == pat || p.PkgPath == pat
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// LoadDir parses and type-checks the single package in dir under the given
// import path, memoized. Fixture tests use it directly to load testdata
// packages under synthetic import paths.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	if p, ok := l.pkgs[pkgPath]; ok {
		return p, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	parsed, ok := l.parsed[dir]
	if !ok {
		names, err := sourceFileNames(dir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			pf := parsedFile{path: filepath.Join(dir, name)}
			pf.src, pf.err = os.ReadFile(pf.path)
			if pf.err == nil {
				pf.file, pf.err = parser.ParseFile(l.Fset, pf.path, pf.src, parser.ParseComments)
			}
			parsed = append(parsed, pf)
		}
		l.parsed[dir] = parsed
	}
	var files []*ast.File
	src := map[string][]byte{}
	for _, pf := range parsed {
		if pf.err != nil {
			return nil, pf.err
		}
		files = append(files, pf.file)
		src[pf.path] = pf.src
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		return l.importPkg(path)
	})}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	p := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Src:     src,
	}
	l.pkgs[pkgPath] = p
	return p, nil
}

// importPkg resolves one import path: module-internal paths are loaded from
// source by this loader; everything else goes to the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(path, l.ModPath)
		rel = strings.TrimPrefix(rel, "/")
		p, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
