// The export audit: every exported identifier under internal/ must have a
// caller in the product's own non-test code. API that only tests call is
// a second layer beside the product that the product keeps in step,
// documents and tests for nobody; API that only the benchmark module calls
// measures something the product does not do.
//
// The audit type-checks every non-test package of this module and of the
// benchmark module with go/types (std comes from the gc export data), and
// sorts each exported func, method, type, const and var under internal/
// by who refers to it. testdata/api-allowlist.txt names the exceptions,
// one per line with its reason; a line that names nothing, or names an
// export that has since gained a product caller, fails too.
//
// Run it alone with: go test -run TestAPIAudit -count=1 .
package repro_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestAPIAudit(t *testing.T) {
	allow, err := readAllowlist("testdata/api-allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := auditExports([]string{".", "benchmark"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rep.unused {
		t.Errorf("%s is exported but no non-test code refers to it: delete it, or unexport it if its own package needs it", name)
	}
	for _, name := range rep.benchOnly {
		t.Errorf("%s is referred to only by the benchmark module: the benchmark must measure what the product runs", name)
	}
	for _, line := range rep.stale {
		t.Errorf("testdata/api-allowlist.txt: %s", line)
	}
	// ROADMAP 19(b): exports that only their own package uses could be
	// unexported. Listed, never failed, so that a change unexports a
	// package's share only when it touches that package anyway.
	t.Logf("%d exports are used only inside their own package:\n\t%s",
		len(rep.ownOnly), strings.Join(rep.ownOnly, "\n\t"))
}

// TestAPIAuditFixture runs the audit over a two-module fixture whose
// findings are known, so that an audit that sees nothing cannot pass.
func TestAPIAuditFixture(t *testing.T) {
	allow, err := readAllowlist("testdata/apiaudit/allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := auditExports([]string{"testdata/apiaudit", "testdata/apiaudit/bench"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []string, want ...string) {
		t.Helper()
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s = %q, want %q", what, got, want)
		}
	}
	check("unused", rep.unused, "fixture/internal/lib.Unused")
	check("benchmark-only", rep.benchOnly, "fixture/internal/lib.BenchOnly")
	check("stale", rep.stale,
		`fixture/internal/lib.Used: has a product caller; delete the line ("kept for an old reason")`)
	check("own-package only", rep.ownOnly, "fixture/internal/lib.Helper")
}

// auditReport sorts the audited exports that are not used by the product
// from other packages or through an interface. Each list is sorted.
type auditReport struct {
	unused    []string // no non-test reference at all
	benchOnly []string // referred to only from a second module
	stale     []string // allowlist lines that no longer hold
	ownOnly   []string // used only inside their own package (report only)
}

// readAllowlist reads "<export> <reason>" lines; blank lines and lines
// starting with # are skipped. An entry without a reason is an error.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// auditExports type-checks the modules rooted at dirs and audits the
// exports under the first module's internal/ directory. References from
// the other modules count only as benchmark-only use.
func auditExports(dirs []string, allow map[string]string) (auditReport, error) {
	l := &auditLoader{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		mod:  map[string]int{},
		pkgs: map[string]*auditPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	var internal string
	for i, dir := range dirs {
		modPath, err := l.addModule(dir, i)
		if err != nil {
			return auditReport{}, err
		}
		if i == 0 {
			internal = modPath + "/internal/"
		}
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	loaded := paths[:0]
	for _, p := range paths {
		_, err := l.Import(p)
		if errors.Is(err, errNoGoFiles) {
			continue
		}
		if err != nil {
			return auditReport{}, err
		}
		loaded = append(loaded, p)
	}
	paths = loaded

	// The audited exports, by object.
	name := map[types.Object]string{}
	for _, p := range paths {
		if !strings.HasPrefix(p, internal) {
			continue
		}
		scope := l.pkgs[p].types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				name[obj] = p + "." + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						name[m] = p + "." + n + "." + m.Name()
					}
				}
			}
		}
	}

	const (
		usedOwn = 1 << iota
		usedOther
		usedSecond
		usedIface
	)
	use := map[types.Object]int{}
	for _, p := range paths {
		pkg := l.pkgs[p]
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				for _, part := range declParts(decl) {
					owners := map[types.Object]bool{}
					for _, id := range part.owners {
						if obj := pkg.info.Defs[id]; obj != nil {
							owners[obj] = true
						} else if obj := pkg.info.Uses[id]; obj != nil {
							owners[obj] = true // a method's receiver type
						}
					}
					ast.Inspect(part.node, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						obj := origin(pkg.info.Uses[id])
						if _, audited := name[obj]; !audited || owners[obj] {
							return true
						}
						switch {
						case pkg.mod != 0:
							use[obj] |= usedSecond
						case obj.Pkg() == pkg.types:
							use[obj] |= usedOwn
						default:
							use[obj] |= usedOther
						}
						return true
					})
				}
			}
		}
	}

	// A method is used when its type implements an interface that has
	// it: one declared in either module, or one std calls dynamically.
	ifaces, err := l.interfaces()
	if err != nil {
		return auditReport{}, err
	}
	for _, p := range paths {
		scope := l.pkgs[p].types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			for _, it := range ifaces {
				if !types.Implements(tn.Type(), it) && !types.Implements(types.NewPointer(tn.Type()), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						use[fn] |= usedIface
					}
				}
			}
		}
	}

	var rep auditReport
	listed := map[string]bool{}
	for obj, n := range name {
		u := use[obj]
		_, allowed := allow[n]
		listed[n] = true
		switch {
		case u == 0:
			if !allowed {
				rep.unused = append(rep.unused, n)
			}
		case u == usedSecond:
			if !allowed {
				rep.benchOnly = append(rep.benchOnly, n)
			}
		default:
			if allowed {
				rep.stale = append(rep.stale, fmt.Sprintf("%s: has a product caller; delete the line (%q)", n, allow[n]))
			}
			if u == usedOwn {
				rep.ownOnly = append(rep.ownOnly, n)
			}
		}
	}
	for n, reason := range allow {
		if !listed[n] {
			rep.stale = append(rep.stale, fmt.Sprintf("%s: no such export; delete the line (%q)", n, reason))
		}
	}
	sort.Strings(rep.unused)
	sort.Strings(rep.benchOnly)
	sort.Strings(rep.stale)
	sort.Strings(rep.ownOnly)
	return rep, nil
}

// origin maps an instantiated generic func or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// declPart is a piece of a top-level declaration together with the names
// it declares. A reference from inside a part to one of its own owners
// (recursion, a method naming its receiver type) is not a use.
type declPart struct {
	node   ast.Node
	owners []*ast.Ident
}

func declParts(decl ast.Decl) []declPart {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		owners := []*ast.Ident{d.Name}
		if d.Recv != nil && len(d.Recv.List) == 1 {
			if id := recvTypeIdent(d.Recv.List[0].Type); id != nil {
				owners = append(owners, id)
			}
		}
		return []declPart{{d, owners}}
	case *ast.GenDecl:
		parts := make([]declPart, 0, len(d.Specs))
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				parts = append(parts, declPart{s, []*ast.Ident{s.Name}})
			case *ast.ValueSpec:
				parts = append(parts, declPart{s, s.Names})
			}
		}
		return parts
	}
	return nil
}

// recvTypeIdent returns the type name of a receiver: T in T, *T and T[P].
func recvTypeIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

type auditPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
	mod   int // index of the module it belongs to; 0 is the product
}

// auditLoader type-checks the modules' packages from source, in import
// order, and takes everything else from the gc export data.
type auditLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	mod  map[string]int    // import path -> module index
	pkgs map[string]*auditPkg
}

// addModule records every package directory of the module rooted at dir,
// skipping testdata, hidden directories and nested modules, and returns
// the module path.
func (l *auditLoader) addModule(root string, index int) (string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			base := d.Name()
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.dirs[path] = dir
		l.mod[path] = index
		return nil
	})
	return modPath, err
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// errNoGoFiles marks a module directory with no non-test Go files for
// this platform, such as one that holds only tests.
var errNoGoFiles = errors.New("no non-test Go files")

// Import implements types.Importer.
func (l *auditLoader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p, done := l.pkgs[path]; done {
		if p == nil {
			return nil, fmt.Errorf("%s: %w", path, errNoGoFiles)
		}
		return p.types, nil
	}
	l.pkgs[path] = nil
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, fmt.Errorf("%s: %w", path, errNoGoFiles)
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = &auditPkg{types: tp, info: info, files: files, mod: l.mod[path]}
	return tp, nil
}

// stdDynamic declares the std interfaces whose methods std calls through
// an interface value: fmt's verbs, errors.Is/As/Unwrap, sort, heap, io,
// encoding and net/http.
const stdDynamic = `package stddynamic

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	stringer         fmt.Stringer
	goStringer       fmt.GoStringer
	formatter        fmt.Formatter
	errorer          interface{ Error() string }
	unwrapper        interface{ Unwrap() error }
	multiUnwrapper   interface{ Unwrap() []error }
	iser             interface{ Is(error) bool }
	aser             interface{ As(any) bool }
	sorter           sort.Interface
	heaper           heap.Interface
	reader           io.Reader
	writer           io.Writer
	closer           io.Closer
	readerAt         io.ReaderAt
	writerTo         io.WriterTo
	readerFrom       io.ReaderFrom
	textMarshaler    encoding.TextMarshaler
	textUnmarshaler  encoding.TextUnmarshaler
	jsonMarshaler    json.Marshaler
	jsonUnmarshaler  json.Unmarshaler
	flagValue        flag.Value
	handler          http.Handler
	flusher          http.Flusher
)
`

// interfaces returns every interface with methods that the modules'
// packages spell out, named or literal, plus stdDynamic's.
func (l *auditLoader) interfaces() ([]*types.Interface, error) {
	f, err := parser.ParseFile(l.fset, "stddynamic.go", stdDynamic, 0)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: l}).Check("stddynamic", l.fset, []*ast.File{f}, info); err != nil {
		return nil, err
	}
	infos := []*types.Info{info}
	for _, p := range l.pkgs {
		if p != nil {
			infos = append(infos, p.info)
		}
	}
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	for _, info := range infos {
		for _, tv := range info.Types {
			if !tv.IsType() {
				continue
			}
			it, ok := tv.Type.Underlying().(*types.Interface)
			if ok && it.NumMethods() > 0 && !seen[it] {
				seen[it] = true
				out = append(out, it)
			}
		}
	}
	return out, nil
}
