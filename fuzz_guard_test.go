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
