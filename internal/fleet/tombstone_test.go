package fleet

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"herdcats/internal/serve"
)

// This file is the tombstone of the gateway's second batch engine:
// RunBatch, a per-row /v1/run fan-out with its own worker pool, deleted
// when buffered /v1/batch became a drain of the same per-backend stream
// engine the NDJSON format uses (DESIGN.md §7, §14). Batch concurrency is
// set in one place, each backend's serve.Config.Workers, and herdd's
// batch limit is the one constant wire.MaxBatchTests; this test keeps the
// removed knobs from coming back.
func TestBatchEngineTombstone(t *testing.T) {
	for _, removed := range []struct {
		typ   reflect.Type
		field string
	}{
		{reflect.TypeOf(GatewayConfig{}), "BatchWorkers"},
		{reflect.TypeOf(serve.Config{}), "MaxBatchTests"},
	} {
		if _, ok := removed.typ.FieldByName(removed.field); ok {
			t.Errorf("%s has a %s field again", removed.typ, removed.field)
		}
	}
}

// TestGatewayNeverParsesTests is the tombstone of verdictKey, the
// gateway's re-derivation of herdd's memo key: herd-gw places and
// coalesces requests on a hash of the bytes as sent (routeKey) and
// leaves parsing, canonicalising and keying a test to herdd. No
// non-test file of this package may import the litmus parser or the
// enumerator again.
func TestGatewayNeverParsesTests(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "herdcats/internal/litmus" || path == "herdcats/internal/exec" {
				t.Errorf("%s imports %s: the gateway must not interpret tests", name, path)
			}
		}
	}
}
