package fastiov_test

// Guard against test-only exports under internal/: every exported
// package-level identifier and every exported method there must be
// referenced from non-test code somewhere in the repository (the root
// package, cmd/, examples/, perfbench/, or internal/ itself). References
// are resolved with go/types rather than by name, so a package-level
// function and a method of the same name are told apart.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testAccessors lists exports that only tests call, each kept on purpose
// with a one-line reason. Keys are "pkg.Name" for package-level
// identifiers and "pkg.Type.Method" for methods; pkg is the last element of
// the import path.
var testAccessors = map[string]string{
	"fastiovd.Module.Tracked":     "read-only per-sandbox count of pages awaiting zeroing; scrubber invariant tests",
	"fault.Injector.Injected":     "read-only injection counter; injector tests",
	"fault.Uniform":               "builds a uniform-probability plan for injector tests",
	"guest.Guest.Booted":          "read-only boot event; guest lifecycle tests",
	"guest.Guest.IfaceReady":      "read-only interface-ready event; guest and CRI lifecycle tests",
	"hostmem.Allocator.Pinned":    "read-only pin state; DMA unpin invariant tests",
	"hostmem.New":                 "unscoped allocator for unit-test rigs; hosts build theirs with NewScoped",
	"hypervisor.Layout.Total":     "read-only guest footprint; layout geometry tests",
	"iommu.Domain.MappedPages":    "read-only mapping count; unmap invariant tests",
	"iommu.Domain.TranslatePage":  "read-only translation; IOMMU mapping tests",
	"iommu.IOMMU.PageSize":        "read-only page size; test rigs size DMA regions with it",
	"journey.Engine.Rules":        "read-only parsed rules; alert-engine tests",
	"journey.FormatRules":         "inverse of ParseRules; the rule-parser fuzz round-trips through it",
	"journey.Recorder.Children":   "read-only span-tree accessor; journey invariant tests",
	"journey.Recorder.RootOf":     "read-only span-tree accessor; journey invariant tests",
	"journey.Recorder.Span":       "read-only span-tree accessor; journey invariant tests",
	"journey.Recorder.Spans":      "read-only span-tree accessor; journey invariant tests",
	"journey.Recorder.Traces":     "read-only span-tree accessor; journey invariant tests",
	"journey.Span.Attr":           "read-only span attribute; journey invariant tests",
	"kvm.VM.EPTEntries":           "read-only EPT size; fault-path invariant tests",
	"metrics.Histogram.Exemplars": "read-only exemplar slots; exemplar linkage tests",
	"metrics.Histogram.Sum":       "read-only observation sum; histogram tests",
	"metrics.ResourceWatch.InUse": "read-only occupancy; resource-watch tests",
	"nic.NIC.PF":                  "read-only physical function; NIC topology tests",
	"pci.Topology.Buses":          "read-only bus list; PCI topology tests",
	"pci.Topology.Lookup":         "read-only BDF lookup; PCI topology tests",
	"serverless.Decompress":       "inverse of Compress; compression round-trip tests",
	"sim.Event.Fired":             "read-only event state; kernel tests",
	"sim.Kernel.RunFor":           "DES kernel primitive mirroring Go's runtime/sync API; the kernel tests pin its semantics",
	"sim.Mutex.Locked":            "read-only lock state; kernel tests",
	"sim.Mutex.TryLock":           "DES kernel primitive mirroring Go's runtime/sync API; the kernel tests pin its semantics",
	"sim.Proc.Finished":           "read-only proc state; kernel kill tests",
	"sim.Proc.Yield":              "DES kernel primitive mirroring Go's runtime/sync API; the kernel tests pin its semantics",
	"sim.Queue.Len":               "read-only queue depth; kernel tests",
	"sim.Rand.Perm":               "DES kernel primitive mirroring Go's runtime/sync API; the kernel tests pin its semantics",
	"sim.WaitGroup":               "DES kernel primitive mirroring Go's runtime/sync API; the kernel tests pin its semantics",
	"sim.WaitGroup.Add":           "DES kernel primitive mirroring Go's runtime/sync API; the kernel tests pin its semantics",
	"sim.WaitGroup.Done":          "DES kernel primitive mirroring Go's runtime/sync API; the kernel tests pin its semantics",
	"sim.WaitGroup.Wait":          "DES kernel primitive mirroring Go's runtime/sync API; the kernel tests pin its semantics",
	"stats.Sample.Sum":            "read-only sample sum; stats tests",
	"trace.Exit":                  "probe kind the trace fuzzer synthesizes streams with",
	"trace.FromEvents":            "builds a trace from a raw stream for analyzer tests and the fuzzer",
	"trace.Spawn":                 "probe kind the trace fuzzer synthesizes streams with",
	"trace.Trace.AppendCanonical": "canonical stream encoding; replay determinism tests compare it",
	"trace.Trace.Events":          "read-only event stream; analyzer tests",
	"vfio.DevSet.Devices":         "read-only devset members; devset formation tests",
	"vfio.DevSet.TotalOpen":       "read-only open count; lock-discipline tests",
	"vfio.Driver.Open":            "fault-free convenience over OpenErr; driver and rig tests",
	"vfio.Driver.ResetSet":        "sole consumer of the public bus-reset fault site; no simulation path resets a devset yet, and deleting it would change the -faults grammar",
}

// modulePath is the repository's module path; perfbench is a nested module
// that resolves it to the repository root.
const modulePath = "fastiov"

// sourceLoader type-checks the repository's packages from source, without
// their _test.go files, and delegates the standard library to the source
// importer.
type sourceLoader struct {
	fset  *token.FileSet
	root  string
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		return l.load(path)
	}
	return l.std.Import(path)
}

func (l *sourceLoader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	// A method's receiver names its type without using it: a type whose
	// only references are its own method declarations is unused.
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						delete(info.Uses, id)
					}
					return true
				})
			}
		}
	}
	l.pkgs[path] = pkg
	l.infos[path] = info
	return pkg, nil
}

// loadRepo type-checks every package directory under root that has
// non-test Go files.
func loadRepo(t *testing.T, root string) *sourceLoader {
	t.Helper()
	fset := token.NewFileSet()
	l := &sourceLoader{
		fset:  fset,
		root:  root,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		path := modulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// implicitInterfaces are the unnamed interfaces the errors package checks
// dynamically (errors.Unwrap, Is, As), plus error itself.
var implicitInterfaces = []string{
	"error",
	"interface{ Unwrap() error }",
	"interface{ Unwrap() []error }",
	"interface{ Is(error) bool }",
	"interface{ As(any) bool }",
}

// interfaces returns every non-generic method-set interface declared in
// the loaded packages and everything they import, plus implicitInterfaces.
func (l *sourceLoader) interfaces(t *testing.T) []*types.Interface {
	var out []*types.Interface
	for _, src := range implicitInterfaces {
		tv, err := types.Eval(l.fset, nil, token.NoPos, src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tv.Type.Underlying().(*types.Interface))
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	return out
}

// implementsVia reports whether method m of named type n satisfies a
// method of some interface n (or *n) implements: such methods are called
// through the interface, not by name.
func implementsVia(n *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
			return true
		}
	}
	return false
}

func TestNoTestOnlyExports(t *testing.T) {
	l := loadRepo(t, ".")

	used := map[types.Object]bool{}
	for _, info := range l.infos {
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
	}

	// Methods of types the root package re-exports are public API.
	public := map[*types.TypeName]bool{}
	root := l.pkgs[modulePath]
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[n.Obj()] = true
			}
		}
	}

	ifaces := l.interfaces(t)
	stale := map[string]bool{}
	for k := range testAccessors {
		stale[k] = true
	}
	var found []string
	check := func(key string, obj types.Object) {
		if used[obj] {
			return
		}
		if _, ok := testAccessors[key]; ok {
			delete(stale, key)
			return
		}
		found = append(found, key+" ("+l.fset.Position(obj.Pos()).String()+")")
	}
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			check(pkg.Name()+"."+name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || public[tn] {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if !m.Exported() || implementsVia(n, m, ifaces) {
					continue
				}
				check(pkg.Name()+"."+name+"."+m.Name(), m)
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("exported but referenced only from tests (delete it, or allowlist a test accessor): %s", f)
	}
	for _, k := range sortedKeys(stale) {
		t.Errorf("allowlist entry %s is stale: it is gone or has a non-test caller", k)
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
