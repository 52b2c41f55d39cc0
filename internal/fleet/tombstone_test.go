package fleet

import (
	"reflect"
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
