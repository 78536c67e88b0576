// Fuzz coverage for the sweep-spec decode path: every byte string a client
// can POST must either be rejected cleanly or produce a spec whose resolved
// options and graphs build without panicking. The seeded corpus under
// testdata/fuzz/FuzzSpecUnmarshal pins regressions found by past runs.
package dse

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzSpecUnmarshal drives json bytes through the same pipeline the sweep
// service uses on POST /sweep: Unmarshal -> Validate -> Options -> Graphs.
// Candidates() is deliberately not called on arbitrary input: Validate caps
// the raw grid product, but materializing up to maxSpecGrid configs per
// fuzz exec would drown the fuzzer, and Enumerate is covered by unit tests.
func FuzzSpecUnmarshal(f *testing.F) {
	seeds := []string{
		`{}`,
		`null`,
		`[1,2,3]`,
		`"sweep"`,
		`{"space":{"tops":72,"reduced":true},"models":["tinycnn"]}`,
		`{"id":"full","space":{"tops":128},"models":["resnet50","transformer"],` +
			`"tenant":"acme","priority":"batch",` +
			`"workers":2,"seed":7,"restarts":4,` +
			`"sa_iterations":100,"batch":16,"batch_units":[1,2],` +
			`"objective":{"alpha":1,"beta":2,"gamma":0.5},"prune":true,` +
			`"retry":{"max":2,"base_delay_ms":5,"max_delay_ms":50},` +
			`"cell_timeout_ms":1000,"max_group_layers":4}`,
		`{"space":{"tops":42},"models":["tinycnn"]}`,
		`{"space":{"tops":72},"models":["unknown-model"]}`,
		`{"space":{"tops":72},"models":["tinycnn"],"tenant":"../etc"}`,
		`{"space":{"tops":72},"models":["tinycnn"],"priority":"urgent"}`,
		`{"space":{"tops":72},"models":["tinycnn"],"workers":-1}`,
		`{"space":{"tops":72},"models":["tinycnn"],"restarts":-3}`,
		`{"space":{"tops":72},"models":["tinycnn"],"seed":-2}`,
		`{"space":{"tops":72,"glb_kb":[0]},"models":["tinycnn"]}`,
		`{"space":{"tops":72,"cuts":[1,2],"macs":[1024],"glb_kb":[512],` +
			`"noc_gbps":[32],"d2d_ratios":[0.5],"dram_per_tops":[1]},` +
			`"models":["tinycnn"]}`,
		`{"space":{"tops":72},`,
	}
	// One seed past the grid cap: 64 cuts (squared by XCut x YCut) times 512
	// MAC candidates crosses maxSpecGrid and must be rejected by Validate,
	// never enumerated.
	var big strings.Builder
	big.WriteString(`{"space":{"tops":72,"cuts":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteByte('1')
	}
	big.WriteString(`],"macs":[`)
	for i := 0; i < 512; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteString(`1024`)
	}
	big.WriteString(`]},"models":["tinycnn"]}`)
	seeds = append(seeds, big.String())

	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		// A validated spec must resolve and build without panicking.
		opt := s.Options()
		if o := opt.Objective; o.Alpha < 0 || o.Beta < 0 || o.Gamma < 0 {
			t.Fatalf("validated spec resolved negative exponents: %+v", o)
		}
		if _, err := s.Graphs(); err != nil {
			t.Fatalf("validated spec failed to build graphs: %v", err)
		}
	})
}

// TestSpecGridCap pins the Validate-time grid bound directly: the full
// Table I spaces pass, an inflated override grid is rejected before any
// enumeration happens.
func TestSpecGridCap(t *testing.T) {
	ok := Spec{Space: SpaceSpec{TOPS: 72}, Models: []string{"tinycnn"}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("full 72tops grid rejected: %v", err)
	}
	huge := ok
	huge.Space.Cuts = make([]int, 2048)
	for i := range huge.Space.Cuts {
		huge.Space.Cuts[i] = 1
	}
	huge.Space.MACs = make([]int, 1024)
	for i := range huge.Space.MACs {
		huge.Space.MACs[i] = 1024
	}
	err := huge.Validate()
	if err == nil || !strings.Contains(err.Error(), "grid combinations") {
		t.Fatalf("oversized grid passed Validate: %v", err)
	}
}
