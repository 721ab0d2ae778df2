package tebis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryDecoderIsFuzzed: an exported Decode* or Unpack* function
// under internal/ turns bytes from a peer, a device or the coordination
// service into structure, so a Fuzz* target in its own package must call
// it. A new decoder without one fails here.
func TestEveryDecoderIsFuzzed(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	var decoders, missing []string
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		fuzzed := map[string]bool{} // functions a Fuzz* target calls
		var defined []string
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				test := strings.HasSuffix(name, "_test.go")
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv != nil {
						continue
					}
					switch {
					case !test && fn.Name.IsExported() &&
						(strings.HasPrefix(fn.Name.Name, "Decode") || strings.HasPrefix(fn.Name.Name, "Unpack")):
						defined = append(defined, fn.Name.Name)
					case test && strings.HasPrefix(fn.Name.Name, "Fuzz") && fn.Body != nil:
						ast.Inspect(fn.Body, func(n ast.Node) bool {
							if call, ok := n.(*ast.CallExpr); ok {
								switch f := call.Fun.(type) {
								case *ast.Ident:
									fuzzed[f.Name] = true
								case *ast.SelectorExpr:
									fuzzed[f.Sel.Name] = true
								}
							}
							return true
						})
					}
				}
			}
		}
		for _, name := range defined {
			decoders = append(decoders, dir+"."+name)
			if !fuzzed[name] {
				missing = append(missing, dir+"."+name)
			}
		}
	}
	if len(decoders) == 0 {
		t.Fatal("found no decoders under internal/")
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s: no Fuzz* target in its package calls it", name)
	}
	t.Logf("%d of %d decoders fuzzed", len(decoders)-len(missing), len(decoders))
}

// TestEveryFuzzTargetIsSmoked: `make fuzz-smoke` (run by
// scripts/check.sh) mutates each native fuzz target for a few seconds,
// one line per target, since `go test -fuzz` takes one at a time. A
// Fuzz* function under internal/ that no line names would never be
// mutated there; this lists each.
func TestEveryFuzzTargetIsSmoked(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	targets := 0
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
						continue
					}
					targets++
					line := "./" + dir + " -run '^$$' -fuzz '^" + fn.Name.Name + "$$'"
					if !strings.Contains(string(makefile), line) {
						t.Errorf("%s.%s: make fuzz-smoke has no line for it (want one with %q)", dir, fn.Name.Name, line)
					}
				}
			}
		}
	}
	if targets == 0 {
		t.Fatal("found no fuzz targets under internal/")
	}
	t.Logf("%d fuzz targets, each in make fuzz-smoke", targets)
}
