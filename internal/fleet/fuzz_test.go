package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gemini/internal/intake"
)

// FuzzFleetWire drives arbitrary bytes through the decode+validate path of
// every fleet wire envelope a coordinator or worker accepts off the network
// — lease grants and requests, incumbent states and checkpoint-merge envelopes
// — and checks the round-trip property: anything that decodes and validates
// must re-marshal, and the re-marshaled form must decode and validate again.
// The seed corpus lives in testdata/fuzz/FuzzFleetWire.
func FuzzFleetWire(f *testing.F) {
	seeds := []string{
		// A plausible lease grant with its candidate indices and checkpoint.
		`{"sweep_id":"s1","lease_id":"lease-1","shard":0,"shards":2,"candidates":[0],` +
			`"spec":{"id":"s1.s0","space":{"tops":72,"cuts":[1],"dram_per_tops":[2],` +
			`"noc_gbps":[32,64],"d2d_ratios":[0.5],"glb_kb":[1024],"macs":[1024]},` +
			`"models":["tinycnn"],"sa_iterations":60},` +
			`"incumbent":{"found":true,"candidate":"c","objective":1.5},` +
			`"ttl_ms":10000,"checkpoint":{"version":1,"cells":{}}}`,
		// A best-like record and an incumbent state.
		`{"sweep_id":"s1","candidate":"(1, 36, 147GB/s)","objective":6.7e-7}`,
		`{"found":true,"candidate":"c","objective":0.25}`,
		// A checkpoint-merge envelope, complete with stats and best.
		`{"sweep_id":"s1","lease_id":"lease-2","worker":"w1","complete":true,` +
			`"stats":{"sa_iterations":120,"resumed_cells":1,"pruned_candidates":0},` +
			`"best":{"candidate":"c","objective":2},"checkpoint":{"version":1,"cells":{"0000/m/0000":{}}}}`,
		// Hostile shapes: non-finite objectives smuggled as strings, shard
		// out of range, duplicate keys, deep junk, truncation.
		`{"sweep_id":"s","candidate":"c","objective":1e309}`,
		`{"sweep_id":"s","lease_id":"l","shard":3,"shards":2,"ttl_ms":-5}`,
		`{"sweep_id":"a","sweep_id":"b","lease_id":"l","checkpoint":"not-an-object"}`,
		`{"incumbent":{"found":true,"objective":`,
		`[1,2,3]`,
		`"just a string"`,
		`{"worker":"x\\ud800"}`,
		// Past the body limit: must be refused, never decoded.
		`{"sweep_id":"s","lease_id":"l","worker":"` + strings.Repeat("w", fuzzBodyLimit) + `"}`,
		// Hostile candidate index lists: unsorted, duplicate, negative,
		// empty, null, past any enumeration, not integers.
		`{"sweep_id":"s","lease_id":"l","shards":1,"ttl_ms":1,"candidates":[3,1]}`,
		`{"sweep_id":"s","lease_id":"l","shards":1,"ttl_ms":1,"candidates":[2,2]}`,
		`{"sweep_id":"s","lease_id":"l","shards":1,"ttl_ms":1,"candidates":[-1,0]}`,
		`{"sweep_id":"s","lease_id":"l","shards":1,"ttl_ms":1,"candidates":[]}`,
		`{"sweep_id":"s","lease_id":"l","shards":1,"ttl_ms":1,"candidates":null}`,
		`{"sweep_id":"s","lease_id":"l","shards":1,"ttl_ms":1,"candidates":[0,9223372036854775807],` +
			`"spec":{"space":{"tops":72},"models":["tinycnn"]}}`,
		`{"sweep_id":"s","lease_id":"l","shards":1,"ttl_ms":1,"candidates":[0.5,"1",1e99]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip[Lease](t, data)
		checkRoundTrip[LeaseRequest](t, data)
		checkRoundTrip[IncumbentState](t, data)
		checkRoundTrip[CheckpointUpload](t, data)
		checkRoundTrip[CheckpointResponse](t, data)
	})
}

// validatable is the shape shared by fuzzed wire messages.
type validatable interface {
	Validate() error
}

// fuzzBodyLimit stands in for the handlers' body limits: small, so the
// oversized seed and its mutations stay cheap to execute.
const fuzzBodyLimit = 4 << 10

// checkRoundTrip decodes data as T through the handlers' own bounded decode
// and, when the value decodes and validates, requires marshal → decode →
// validate to survive unchanged in validity. A refused body must have been
// answered 413 exactly when it is over the limit.
func checkRoundTrip[T any](t *testing.T, data []byte) {
	var v T
	rec := httptest.NewRecorder()
	req := &http.Request{Body: io.NopCloser(bytes.NewReader(data))}
	if !intake.Decode(rec, req, fuzzBodyLimit, false, "fuzzed message", &v) {
		if tooBig := rec.Code == http.StatusRequestEntityTooLarge; tooBig && len(data) <= fuzzBodyLimit {
			t.Fatalf("%d-byte body refused as too large (limit %d)", len(data), fuzzBodyLimit)
		}
		return
	}
	validator, ok := any(&v).(validatable)
	if !ok {
		t.Fatalf("%T has no Validate method", v)
	}
	if err := validator.Validate(); err != nil {
		return
	}
	out, err := json.Marshal(&v)
	if err != nil {
		t.Fatalf("valid %T failed to marshal: %v", v, err)
	}
	var back T
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("re-decoding marshaled %T: %v\n%s", v, err, out)
	}
	if err := any(&back).(validatable).Validate(); err != nil {
		t.Fatalf("%T became invalid across a marshal round trip: %v\n%s", v, err, out)
	}
}
