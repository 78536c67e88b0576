package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envInfo records where a run set was measured, so two sets are only ever
// compared knowingly across machines or commits.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	LoadAvg    string `json:"loadavg"`
}

func currentEnv() envInfo {
	load, _ := os.ReadFile("/proc/loadavg")
	return envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(), LoadAvg: strings.TrimSpace(string(load)),
	}
}

// gitCommit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if hash, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	return ref
}

// runSet is the -out file: every result of one or more invocations on one
// commit. -compare judges one set against another.
type runSet struct {
	Env  envInfo  `json:"env"`
	Runs []result `json:"runs"`
}

func loadRunSet(path string) (runSet, error) {
	var rs runSet
	raw, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	return rs, json.Unmarshal(raw, &rs)
}

// appendRunSet adds results to the set at path, creating it if need be.
func appendRunSet(path string, results []result) error {
	rs, err := loadRunSet(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rs.Env = currentEnv()
	rs.Runs = append(rs.Runs, results...)
	raw, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// values collects one metric's samples for a workload from a set's runs of
// the given kind.
func (rs runSet) values(workload, name string, trace bool) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

const (
	verdictOK         = "ok"
	verdictUnresolved = "unresolved"
	verdictBreach     = "BREACH"
)

// judge applies the regression rule to one metric on one workload. worse is
// the share of a's median by which b's median is worse (negative: better).
// A median worse by more than the bound is a breach. Otherwise, when either
// set's run-to-run spread is wider than the bound the sets cannot show
// "unchanged" and the metric is unresolved, unless every run of b is at
// least as good as every run of a.
func judge(d metricDef, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if ma < 0 {
			worse = -worse
		}
	}
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return worse, verdictBreach
	}
	if max(spreadShare(a), spreadShare(b)) > d.Bound && !allAtLeastAsGood(d, a, b) {
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// allAtLeastAsGood reports whether every sample of b is no worse than every
// sample of a.
func allAtLeastAsGood(d metricDef, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if d.Better == "higher" {
		return sb[0] >= sa[len(sa)-1]
	}
	return sb[len(sb)-1] <= sa[0]
}

// compareFiles prints, per workload and metric, both sets' medians,
// quartiles and sample counts with the bound and the verdict. Per-layer
// metrics have no bound and are printed for attribution only. It returns 1
// only when an end-to-end bound is breached.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]runSet
	for i, path := range [2]string{pathA, pathB} {
		var err error
		if sets[i], err = loadRunSet(path); err != nil {
			fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
			return 2
		}
	}
	return compareSets(sets[0], sets[1], stdout)
}

func compareSets(a, b runSet, w io.Writer) int {
	fmt.Fprintf(w, "A: %+v\nB: %+v\n", a.Env, b.Env)
	fmt.Fprintf(w, "%-12s %-28s %-9s %13s %27s %3s %13s %27s %3s %8s %6s  %s\n",
		"workload", "metric", "unit", "A.median", "A.[q1,q3]", "n", "B.median", "B.[q1,q3]", "n", "worse", "bound", "verdict")
	breaches := 0
	for _, wl := range workloads {
		for _, set := range []struct {
			defs  []metricDef
			trace bool
		}{{endToEnd, false}, {perLayer, true}} {
			for _, d := range set.defs {
				va, vb := a.values(wl.name, d.Name, set.trace), b.values(wl.name, d.Name, set.trace)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				worse, verdict := judge(d, va, vb)
				bound := fmt.Sprintf("%.0f%%", d.Bound*100)
				if set.trace {
					bound, verdict = "-", "info"
				}
				if verdict == verdictBreach {
					breaches++
				}
				qa1, _, qa3 := quartiles(va)
				qb1, _, qb3 := quartiles(vb)
				fmt.Fprintf(w, "%-12s %-28s %-9s %13.6g %27s %3d %13.6g %27s %3d %+7.1f%% %6s  %s\n",
					wl.name, d.Name, d.Unit,
					median(va), fmt.Sprintf("[%.6g, %.6g]", qa1, qa3), len(va),
					median(vb), fmt.Sprintf("[%.6g, %.6g]", qb1, qb3), len(vb),
					worse*100, bound, verdict)
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d end-to-end bound(s) breached\n", breaches)
		return 1
	}
	return 0
}
