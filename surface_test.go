package ocular_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow is the surface gate's allow list: a package path declares
// test support (rule 1 then requires that no production package links
// it), a name key ("path.Name" or "path.Type.Method") exempts one
// declaration from rules 2 and 3, and a field key ("path.Type.Field")
// exempts one option from rule 4. Every line carries its reason.
var surfaceAllow = map[string]string{
	"repro/internal/ranktest": "test support: the conformance suite that rank, serve and cluster run from their tests",
	"repro/internal/chaos":    "test support: the fault-injecting transport and proxy of the cluster chaos tests",
	"repro/internal/cluster.ShardTransport.CloseIdleConnections": "http.Client.CloseIdleConnections calls it through an interface declared inside that method",

	"repro/internal/cluster.Config.HTTPClient":      "the chaos suite substitutes a faulty transport for the router's shard calls",
	"repro/internal/trainer.Config.HTTPClient":      "tests substitute a faulty chaos transport for the rollout calls",
	"repro/internal/feed.Options.SegmentBytes":      "tests force segment rotation with a small threshold",
	"repro/internal/serve.RegistryConfig.Models":    "decoded from the -registry JSON file",
	"repro/internal/serve.RegistryConfig.Tenants":   "decoded from the -registry JSON file",
	"repro/internal/baselines/knn.Config.Workers":   "tests hold serial == parallel",
	"repro/internal/baselines/wals.Config.Workers":  "tests hold serial == parallel",
	"repro/internal/core.Config.GradSteps":          "the paper's one-gradient-step ablation (Section IV-D)",
	"repro/internal/baselines/bpr.Config.Lambda":    "a hyper-parameter of the Rendle et al. BPR baseline the facade exposes",
	"repro/internal/baselines/bpr.Config.LearnRate": "a hyper-parameter of the Rendle et al. BPR baseline the facade exposes",
}

// TestSurface holds internal/ to the declarations production code uses.
// It type-checks the module and the bench/ module, tests included, and
// reports a violation of any of four rules:
//
//  1. every package under internal/ is linked by the library, a cmd/, an
//     examples/ or bench/, and a test-support package by none of them;
//  2. every exported package-level name and exported method in internal/
//     is referenced by a non-test file, or by a test file of another
//     package;
//  3. every unexported package-level name and method in internal/ is
//     referenced by a non-test file of its own package;
//  4. every exported field of an exported internal/ struct whose name ends
//     in Config or Options is written by a non-test file of another
//     package (the library, a cmd/, an examples/, bench/ or another
//     internal/ package): as a composite-literal key, as the selector an
//     assignment writes, or as &x.F. Its own package's defaults do not
//     count: an option nobody sets is a constant.
//
// A method also counts as used when its type implements an interface
// whose method of that name non-test code calls, or an interface declared
// in a standard-library package the module imports.
func TestSurface(t *testing.T) {
	violations, err := checkSurface("go", surfaceAllow, ".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Errorf("%d declarations in internal/ have no production caller:\n%s",
			len(violations), strings.Join(violations, "\n"))
	}
}

// surfaceCase is one subject of the fixture module: the violation the
// checker must report for it, or "" if it must report none.
type surfaceCase struct {
	name, subject, want string
}

// checkSurfaceCases runs one subtest per case and then requires that the
// checker reported nothing the cases do not name.
func checkSurfaceCases(t *testing.T, violations []string, cases []surfaceCase) {
	t.Helper()
	expected := 0
	for _, c := range cases {
		if c.want != "" {
			expected++
		}
		t.Run(c.name, func(t *testing.T) {
			var got []string
			for _, v := range violations {
				if strings.Contains(v, " "+c.subject+": ") || strings.Contains(v, " "+c.subject+" ") {
					got = append(got, v)
				}
			}
			switch {
			case c.want == "" && len(got) > 0:
				t.Errorf("reported, want no violation:\n%s", strings.Join(got, "\n"))
			case c.want != "" && len(got) != 1:
				t.Errorf("got %d violations, want one starting %s:\n%s", len(got), c.want, strings.Join(got, "\n"))
			case c.want != "" && !strings.HasPrefix(got[0], c.want):
				t.Errorf("got  %s\nwant %s ...", got[0], c.want)
			}
		})
	}
	if len(violations) != expected {
		t.Errorf("got %d violations, want %d:\n%s", len(violations), expected, strings.Join(violations, "\n"))
	}
}

// TestSurfaceFixture calibrates the checker on testdata/surface, a module
// with one declaration of each kind the rules sort: each must be reported
// as the case says, and nothing else may be.
func TestSurfaceFixture(t *testing.T) {
	violations, err := checkSurface("go", nil, filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	checkSurfaceCases(t, violations, []surfaceCase{
		{"unlinked_package", "package fixture/internal/orphan",
			"internal/orphan/orphan.go:2: package fixture/internal/orphan: linked by no library, cmd/, examples/ or bench/ package"},
		{"exported_unused", "fixture/internal/lib.Unused",
			"internal/lib/lib.go:8: fixture/internal/lib.Unused: exported, but nothing refers to it"},
		{"exported_own_tests_only", "fixture/internal/lib.OwnTestsOnly",
			"internal/lib/lib.go:11: fixture/internal/lib.OwnTestsOnly: exported, but only its own package's tests refer to it"},
		{"unexported_own_tests_only", "fixture/internal/lib.testOnly",
			"internal/lib/lib.go:34: fixture/internal/lib.testOnly: only its own package's tests refer to it"},
		{"unexported_unused", "fixture/internal/lib.unused",
			"internal/lib/lib.go:37: fixture/internal/lib.unused: nothing refers to it"},
		{"exported_called", "fixture/internal/lib.Used", ""},
		{"exported_other_tests_only", "fixture/internal/lib.OtherTestsOnly", ""},
		{"method_through_std_interface", "fixture/internal/lib.T.String", ""},
		{"method_through_called_interface", "fixture/internal/lib.Box.Size", ""},
		{"unexported_called", "fixture/internal/lib.helper", ""},
		{"orphan_declaration", "fixture/internal/orphan.Orphan", ""},
		{"option_set_by_literal", "fixture/internal/lib.Config.Literal", ""},
		{"option_set_by_assignment", "fixture/internal/lib.Config.Assigned", ""},
		{"option_set_by_address", "fixture/internal/lib.Config.Addressed", ""},
		{"option_set_by_own_defaults", "fixture/internal/lib.Config.DefaultsOnly",
			"internal/lib/lib.go:44: fixture/internal/lib.Config.DefaultsOnly: an option, but no code outside its package sets it"},
		{"option_set_by_tests", "fixture/internal/lib.Config.TestsOnly",
			"internal/lib/lib.go:45: fixture/internal/lib.Config.TestsOnly: an option, but no code outside its package sets it"},
		{"option_set_by_nothing", "fixture/internal/lib.Config.Exempt",
			"internal/lib/lib.go:46: fixture/internal/lib.Config.Exempt: an option, but no code outside its package sets it"},
		{"unexported_field", "fixture/internal/lib.Config.private", ""},
		{"field_of_other_struct", "fixture/internal/lib.Settings.Unset", ""},
	})
}

// TestSurfaceAllowList: an allow-list line exempts the declaration or
// option it names, a package it declares test support must not be linked,
// and a line that matches nothing is itself reported.
func TestSurfaceAllowList(t *testing.T) {
	allow := map[string]string{
		"fixture/internal/lib.Unused": "exempted",
		"fixture/internal/other":      "declared test support, yet cmd/app links it",
		"fixture/internal/orphan":     "declared test support, and linked by nothing",
		"fixture/internal/lib.Gone":   "names nothing",

		"fixture/internal/lib.Config.Exempt":  "exempted option",
		"fixture/internal/lib.Config.Literal": "names an option cmd/app sets",
	}
	violations, err := checkSurface("go", allow, filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	checkSurfaceCases(t, violations, []surfaceCase{
		{"exempt_name", "fixture/internal/lib.Unused", ""},
		{"linked_test_support", "package fixture/internal/other",
			"internal/other/other.go:2: package fixture/internal/other: declared test support, but production code links it"},
		{"unlinked_test_support", "package fixture/internal/orphan", ""},
		{"test_support_unused_name", "fixture/internal/orphan.Orphan",
			"internal/orphan/orphan.go:5: fixture/internal/orphan.Orphan: exported, but nothing refers to it"},
		{"stale_line", `"fixture/internal/lib.Gone"`,
			`surface_test.go: allow-list line "fixture/internal/lib.Gone" matches no package, no unused declaration and no unset option`},
		{"exempt_option", "fixture/internal/lib.Config.Exempt", ""},
		{"stale_option_line", `"fixture/internal/lib.Config.Literal"`,
			`surface_test.go: allow-list line "fixture/internal/lib.Config.Literal" matches no package, no unused declaration and no unset option`},
		{"option_set_by_own_defaults", "fixture/internal/lib.Config.DefaultsOnly",
			"internal/lib/lib.go:44: fixture/internal/lib.Config.DefaultsOnly: an option, but no code outside its package sets it"},
		{"option_set_by_tests", "fixture/internal/lib.Config.TestsOnly",
			"internal/lib/lib.go:45: fixture/internal/lib.Config.TestsOnly: an option, but no code outside its package sets it"},
		{"exported_own_tests_only", "fixture/internal/lib.OwnTestsOnly",
			"internal/lib/lib.go:11: fixture/internal/lib.OwnTestsOnly: exported, but only its own package's tests refer to it"},
		{"unexported_own_tests_only", "fixture/internal/lib.testOnly",
			"internal/lib/lib.go:34: fixture/internal/lib.testOnly: only its own package's tests refer to it"},
		{"unexported_unused", "fixture/internal/lib.unused",
			"internal/lib/lib.go:37: fixture/internal/lib.unused: nothing refers to it"},
	})
}

// TestSurfaceFailsWithoutPackages: a checker that saw nothing must not
// pass, whether go is missing or go list lists no package.
func TestSurfaceFailsWithoutPackages(t *testing.T) {
	if _, err := checkSurface("surface-no-such-go-binary", nil, "."); err == nil {
		t.Error("a missing go binary passed the gate")
	}
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "go.mod"), []byte("module empty\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkSurface("go", nil, empty); err == nil {
		t.Error("a module without packages passed the gate")
	}
}

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	ImportPath string // with " [p.test]" on a test variant
	Dir        string
	ForTest    string // the package under test, on a test variant
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
}

func goList(goCmd, dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command(goCmd, append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// reference records who refers to one declaration.
type reference struct {
	prod      bool // a non-test file
	ownProd   bool // a non-test file of the declaring package
	ownTest   bool // a test file of the declaring package
	otherTest bool // a test file of another package
}

// declaration is one audited name of a non-test file under internal/.
type declaration struct {
	key      string // "path.Name", "path.Type.Method" or "path.Type.Field"
	pkg      string
	exported bool
	setting  bool // an option field, audited by rule 4
	pos      token.Pos
}

// checkSurface runs the four rules over the modules in dirs (the first
// names the module whose internal/ is audited and against whose root the
// violations' paths are written) and returns one sorted line per
// violation.
func checkSurface(goCmd string, allow map[string]string, dirs ...string) ([]string, error) {
	var pkgs []*listedPackage
	seen := map[string]bool{}
	for _, dir := range dirs {
		listed, err := goList(goCmd, dir, "-deps", "-test", "-json", "./...")
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	var std []string
	var module string
	for _, p := range pkgs {
		if p.Standard {
			std = append(std, p.ImportPath)
		} else if module == "" && p.Module != nil {
			module = p.Module.Path
		}
	}
	if module == "" {
		return nil, fmt.Errorf("go list found no packages in %s", strings.Join(dirs, ", "))
	}
	internal := module + "/internal/"
	root, err := filepath.Abs(dirs[0])
	if err != nil {
		return nil, err
	}

	// The standard library comes from export data, the modules from source.
	exports, err := goList(goCmd, dirs[0], append([]string{"-export", "-json=ImportPath,Export"}, std...)...)
	if err != nil {
		return nil, err
	}
	exportFile := map[string]string{}
	for _, p := range exports {
		exportFile[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exportFile[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exportFile[path])
	})
	stdUsed := map[*types.Package]bool{}

	checked := map[string]*types.Package{}
	parsed := map[string]*ast.File{}
	skip := map[*ast.Ident]bool{} // receiver types: a method does not use its own type
	within := map[string][2]token.Pos{}
	refs := map[string]*reference{}
	var decls []declaration
	var named []*types.Named
	calledIfaces := map[*types.Interface]bool{}
	settings := map[*types.Var]string{} // the option fields rule 4 audits, by key
	written := map[string]bool{}        // option fields written outside their package
	imports := map[string][]string{}
	pkgPos := map[string]token.Pos{}

	for _, p := range pkgs {
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo files are not supported", p.ImportPath)
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		var files []*ast.File
		for _, name := range p.GoFiles {
			filename := filepath.Join(p.Dir, name)
			f := parsed[filename]
			if f == nil {
				if f, err = parser.ParseFile(fset, filename, nil, parser.SkipObjectResolution); err != nil {
					return nil, err
				}
				parsed[filename] = f
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
						ast.Inspect(fd.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				}
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		var typeErrs []error
		conf := types.Config{
			Error: func(err error) { typeErrs = append(typeErrs, err) },
			Importer: importerFunc(func(imp string) (*types.Package, error) {
				if id, ok := p.ImportMap[imp]; ok {
					imp = id
				}
				if pkg := checked[imp]; pkg != nil {
					return pkg, nil
				}
				pkg, err := stdImporter.Import(imp)
				if err == nil {
					stdUsed[pkg] = true
				}
				return pkg, err
			}),
		}
		pkg, _ := conf.Check(path, fset, files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, errors.Join(typeErrs...))
		}
		checked[p.ImportPath] = pkg
		var options []*types.Var
		if strings.HasPrefix(path, internal) {
			options = recordSettings(pkg, settings)
		}

		canonical := p.ForTest == "" && !strings.Contains(p.ImportPath, " ")
		if canonical {
			imports[path] = p.Imports
			if len(files) > 0 {
				pkgPos[path] = files[0].Package
			}
		}
		if canonical && strings.HasPrefix(path, internal) {
			for id, obj := range info.Defs {
				if obj == nil || obj.Name() == "_" || obj.Name() == "init" {
					continue
				}
				key := objectKey(obj)
				if key == "" {
					continue // not package-level, or an interface's method
				}
				decls = append(decls, declaration{key: key, pkg: path, exported: obj.Exported(), pos: id.Pos()})
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
						named = append(named, n)
					}
				}
			}
			for _, f := range files {
				for _, d := range f.Decls {
					recordExtent(info, d, within)
				}
			}
			for _, f := range options {
				decls = append(decls, declaration{key: settings[f], pkg: path, exported: true, setting: true, pos: f.Pos()})
			}
		}
		if canonical {
			for _, f := range files {
				recordWrites(f, info, settings, path, written)
			}
		}

		owner := path
		if p.ForTest != "" {
			owner = p.ForTest
		}
		for id, obj := range info.Uses {
			if skip[id] || obj.Pkg() == nil {
				continue
			}
			test := strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go")
			if !test && !canonical {
				continue // a non-test file again, recompiled for a test
			}
			if fn, ok := obj.(*types.Func); ok && isMethod(fn) && !test {
				if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
					calledIfaces[iface] = true
				}
			}
			key := objectKey(obj)
			if key == "" || !strings.HasPrefix(obj.Pkg().Path(), internal) {
				continue
			}
			if ext, ok := within[key]; ok && ext[0] <= id.Pos() && id.Pos() < ext[1] {
				continue // a declaration's reference to itself
			}
			r := refs[key]
			if r == nil {
				r = new(reference)
				refs[key] = r
			}
			own := obj.Pkg().Path() == owner
			switch {
			case !test:
				r.prod = true
				r.ownProd = r.ownProd || own
			case own:
				r.ownTest = true
			default:
				r.otherTest = true
			}
		}
	}

	// Linked: reached from a root (the library, a cmd/, an examples/ or
	// bench/) through non-test imports.
	linked := map[string]bool{}
	var queue []string
	for path := range imports {
		if !strings.HasPrefix(path, internal) {
			linked[path] = true
			queue = append(queue, path)
		}
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		for _, imp := range imports[path] {
			if !linked[imp] {
				linked[imp] = true
				queue = append(queue, imp)
			}
		}
	}

	// Methods that satisfy an interface in use count as used.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for iface := range calledIfaces {
		ifaces = append(ifaces, iface)
	}
	for pkg := range stdUsed {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if iface, ok := n.Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, iface)
					}
				}
			}
		}
	}
	implements := map[string]bool{}
	for _, iface := range ifaces {
		if iface.NumMethods() == 0 || !iface.IsMethodSet() {
			continue
		}
		for _, n := range named {
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(t, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(t, false, n.Obj().Pkg(), iface.Method(i).Name())
					if m != nil {
						implements[objectKey(m)] = true
					}
				}
			}
		}
	}

	var violations []string
	report := func(pos token.Pos, format string, args ...any) {
		position := fset.Position(pos)
		if rel, err := filepath.Rel(root, position.Filename); err == nil {
			position.Filename = filepath.ToSlash(rel)
		}
		violations = append(violations, fmt.Sprintf("%s:%d: %s", position.Filename, position.Line, fmt.Sprintf(format, args...)))
	}
	allowed := map[string]bool{}
	for path, pos := range pkgPos {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		_, support := allow[path]
		allowed[path] = support
		switch {
		case support && linked[path]:
			report(pos, "package %s: declared test support, but production code links it (stop importing it outside tests)", path)
		case !support && !linked[path]:
			report(pos, "package %s: linked by no library, cmd/, examples/ or bench/ package (delete it, or add an allow-list line declaring it test support)", path)
		}
	}
	const (
		ways        = "delete it, move it into a _test.go file, or add an allow-list line with a reason"
		settingWays = "make it a constant, set it from a caller, or add an allow-list line with a reason"
	)
	for _, d := range decls {
		if !linked[d.pkg] && !allowed[d.pkg] {
			continue // the package itself is reported
		}
		r := refs[d.key]
		if r == nil {
			r = new(reference)
		}
		var what string
		switch {
		case d.setting:
			if !written[d.key] {
				what = "an option, but no code outside its package sets it"
			}
		case implements[d.key]:
		case d.exported && !r.prod && !r.otherTest && r.ownTest:
			what = "exported, but only its own package's tests refer to it"
		case d.exported && !r.prod && !r.otherTest:
			what = "exported, but nothing refers to it"
		case !d.exported && !r.ownProd && r.ownTest:
			what = "only its own package's tests refer to it"
		case !d.exported && !r.ownProd:
			what = "nothing refers to it"
		}
		if _, ok := allow[d.key]; ok && what != "" {
			allowed[d.key] = true
		} else if what != "" && d.setting {
			report(d.pos, "%s: %s (%s)", d.key, what, settingWays)
		} else if what != "" {
			report(d.pos, "%s: %s (%s)", d.key, what, ways)
		}
	}
	for key := range allow {
		if !allowed[key] {
			violations = append(violations, fmt.Sprintf("surface_test.go: allow-list line %q matches no package, no unused declaration and no unset option: remove it", key))
		}
	}
	sort.Strings(violations)
	return violations, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// objectKey names a package-level object or a method of a named type
// the same way in every variant of its package, test variants included.
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok || types.IsInterface(n) {
				return "" // an interface method
			}
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a local name, a field or a parameter
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recordExtent notes the source extent of each package-level declaration
// in d, so that a function calling itself or a type naming itself is not
// its own user.
func recordExtent(info *types.Info, d ast.Decl, within map[string][2]token.Pos) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if obj := info.Defs[d.Name]; obj != nil {
			within[objectKey(obj)] = [2]token.Pos{d.Pos(), d.End()}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if obj := info.Defs[s.Name]; obj != nil {
					within[objectKey(obj)] = [2]token.Pos{s.Pos(), s.End()}
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if obj := info.Defs[name]; obj != nil && name.Name != "_" {
						within[objectKey(obj)] = [2]token.Pos{s.Pos(), s.End()}
					}
				}
			}
		}
	}
}

// recordSettings keys each exported field of pkg's exported structs whose
// name ends in Config or Options, the option fields rule 4 audits, and
// returns them.
func recordSettings(pkg *types.Package, settings map[*types.Var]string) []*types.Var {
	var options []*types.Var
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				settings[f] = pkg.Path() + "." + name + "." + f.Name()
				options = append(options, f)
			}
		}
	}
	return options
}

// recordWrites marks each option field that f, a non-test file of package
// path, writes from outside the field's own package: as a composite-literal
// key, as the selector an assignment or increment writes, or as &x.F.
func recordWrites(f *ast.File, info *types.Info, settings map[*types.Var]string, path string, written map[string]bool) {
	write := func(id *ast.Ident) {
		if field, ok := info.Uses[id].(*types.Var); ok && settings[field] != "" && field.Pkg().Path() != path {
			written[settings[field]] = true
		}
	}
	selector := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			write(sel.Sel)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						write(id)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				selector(lhs)
			}
		case *ast.IncDecStmt:
			selector(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				selector(n.X)
			}
		}
		return true
	})
}
