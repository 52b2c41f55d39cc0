// Package wiretest holds request fixtures shared by the tests of more
// than one tier, so herdd's and the gateway's fuzz targets start from
// one seed corpus instead of two copies that drift apart.
package wiretest

import "fmt"

// SB is the store-buffering litmus test: Allowed under TSO, cheap to
// simulate under every model.
const SB = `X86 sb
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`

// RunRequests is the /v1/run fuzz seed corpus: valid requests,
// near-valid requests, and the malformed shapes clients actually send.
var RunRequests = []string{
	fmt.Sprintf(`{"litmus":%q,"model":{"name":"tso"}}`, SB),
	fmt.Sprintf(`{"litmus":%q,"model":{"name":"power"},"budget":{"max_candidates":10,"timeout_ms":50}}`, SB),
	fmt.Sprintf(`{"litmus":%q,"model":{"cat":"m\nacyclic po as c"}}`, SB),
	`{}`,
	`{"litmus":""}`,
	`{"litmus":"x","model":{}}`,
	`{"litmus":"x","model":{"name":"tso","cat":"y"}}`,
	`{"litmus":"x","model":{"name":"tso"},"budget":{"max_candidates":-1}}`,
	`{"litmus":"x","model":{"name":"tso"},"budget":{"timeout_ms":99999999999999999999}}`,
	`{"litmus":123,"model":{"name":"tso"}}`,
	`{"litmus":"x","model":"tso"}`,
	`[1,2,3]`,
	`null`,
	`"just a string"`,
	`{"litmus":"x","model":{"name":"tso"}} trailing`,
	`{"litmus":"x","model":{"name":"tso"`,
	"\x00\xff\xfe",
	``,
}
