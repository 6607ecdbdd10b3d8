package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// TestDecoupledFromReplayAndSoC keeps the benchmark on the program's public
// entry points, so deleting trace replay or the legacy co-run engine never
// has to touch it: no file of this package may import internal/replay or
// internal/soc, or name the replay switches.
func TestDecoupledFromReplayAndSoC(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forbiddenImports := map[string]bool{"cherisim/internal/replay": true, "cherisim/internal/soc": true}
	forbiddenNames := map[string]bool{"SetReplayEnabled": true, "ReplayStats": true, "NoReplay": true}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); forbiddenImports[path] {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && forbiddenNames[id.Name] {
				t.Errorf("%s references %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
	if len(files) < 5 {
		t.Fatalf("parsed only %d files; is the test running in the package directory?", len(files))
	}
}
