package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"herdcats/internal/campaign"
	"herdcats/internal/exec"
	"herdcats/internal/memo"
	"herdcats/internal/sim"
)

// This file is the tombstone of intra-test parallel enumeration: the
// sharded rf/co walk behind exec.Request.Workers, deleted because it never
// beat the sequential search (DESIGN.md §8). exec.Program.Search is the
// only enumeration; parallelism lives only across tests (the campaign
// pool, serve.Config.Workers, herd -j, mined -j).
// DESIGN.md §14 lists every removed knob, metric and wire field; this test
// keeps them from coming back.
func TestIntraTestParallelismTombstone(t *testing.T) {
	// The only Workers-like fields left are the across-test pool sizes.
	pools := map[reflect.Type]string{
		reflect.TypeOf(campaign.Config{}): "Workers",
		reflect.TypeOf(Config{}):          "Workers",
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(exec.Request{}),
		reflect.TypeOf(sim.Options{}),
		reflect.TypeOf(memo.Options{}),
		reflect.TypeOf(campaign.Config{}),
		reflect.TypeOf(campaign.Job{}),
		reflect.TypeOf(Config{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if strings.Contains(name, "Workers") && pools[typ] != name {
				t.Errorf("%s has an enumeration-workers field %s", typ, name)
			}
		}
	}

	s := New(Config{})
	h := s.Handler()
	rec, body := postJSON(t, h, "/v1/run", RunRequest{Litmus: sbSrc, Model: ModelSpec{Name: "tso"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp struct {
		Options map[string]json.RawMessage `json:"options"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Options == nil {
		t.Fatalf("response has no options object: %s", body)
	}
	if _, ok := resp.Options["workers"]; ok {
		t.Errorf("/v1/run options still carry a workers key: %s", body)
	}

	_, page := getMetrics(t, h)
	for name := range parseExposition(t, page) {
		if strings.HasPrefix(name, "herdd_enum_") && (strings.Contains(name, "shard") || strings.Contains(name, "worker")) {
			t.Errorf("/metrics still exports %s", name)
		}
	}
}
