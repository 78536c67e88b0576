package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"gemini/internal/dse"
)

func resolveArgs(t *testing.T, args ...string) (dse.Options, error) {
	t.Helper()
	fl := flag.NewFlagSet("gemini-dse", flag.ContinueOnError)
	sweep := sweepFlags(fl)
	if err := fl.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	spec := sweep()
	_, _, opt, err := resolve(&spec)
	return opt, err
}

// TestDefaultFlagsOptions: the default flags resolve to the options the
// command assembled by hand before it went through dse.Spec.
func TestDefaultFlagsOptions(t *testing.T) {
	opt, err := resolveArgs(t)
	if err != nil {
		t.Fatal(err)
	}
	want := dse.Options{Mapping: dse.Mapping{
		Objective:    dse.Objective{Alpha: 1, Beta: 1, Gamma: 1},
		Batch:        64,
		SAIterations: 600,
		Restarts:     1,
		Seed:         1,
		BatchUnits:   []int{1, 2, 4, 8},
	}}
	if !reflect.DeepEqual(opt, want) {
		t.Errorf("default options\n got %+v\nwant %+v", opt, want)
	}
}

// TestFlagZeroes: -sa 0 is the stripe mapping (a spec's 0 would be 600),
// and -batch 0 is the spec's default batch.
func TestFlagZeroes(t *testing.T) {
	opt, err := resolveArgs(t, "-reduced", "-models", " tinycnn , tinytransformer", "-sa", "0", "-batch", "0")
	if err != nil {
		t.Fatal(err)
	}
	if opt.SAIterations != 0 || opt.Batch != 64 {
		t.Errorf("-sa 0 -batch 0 gave %d iterations, batch %d; want 0, 64", opt.SAIterations, opt.Batch)
	}
}

// TestFlagsRejected: what a spec rejects, the command rejects with the
// spec's message before any cell runs.
func TestFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-batch", "-1"}, "batch = -1"},
		{[]string{"-sa", "-1"}, "sa_iterations = -1"},
		{[]string{"-restarts", "-1"}, "restarts = -1"},
		{[]string{"-workers", "-1"}, "workers = -1"},
		{[]string{"-alpha", "-1"}, "exponents must be >= 0"},
		{[]string{"-beta", "-1"}, "exponents must be >= 0"},
		{[]string{"-gamma", "-1"}, "exponents must be >= 0"},
		{[]string{"-tops", "100"}, "unsupported space tops 100"},
		{[]string{"-models", "tinycnn,nosuchmodel"}, `unknown model "nosuchmodel"`},
	} {
		_, err := resolveArgs(t, tc.args...)
		if err == nil || !strings.HasPrefix(err.Error(), "dse: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want the spec's %q", tc.args, err, tc.want)
		}
	}
}
