package sim

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineKnowsNoConcreteProtocol keeps the engine behind the Station
// interface: no non-test file of this package may import the built-in
// protocol packages. A per-type fast path that names concrete stations has
// to win a same-machine A/B before it may reintroduce such an import.
func TestEngineKnowsNoConcreteProtocol(t *testing.T) {
	forbidden := map[string]bool{
		"lowsensing/internal/core":      true,
		"lowsensing/internal/protocols": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if forbidden[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go files found")
	}
}
