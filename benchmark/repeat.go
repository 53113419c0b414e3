package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// repeatCompare judges two result files of the same commit: per workload and
// end-to-end metric, the two values, their gap relative to the first, the
// bound, and a verdict. "unresolved" means the instances of either run lie
// further apart than the bound, so the pair cannot show agreement or
// disagreement.
// It returns an error when any pair exceeds its bound.
func repeatCompare(pathA, pathB string, w io.Writer) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Meta["commit"] != b.Meta["commit"] {
		fmt.Fprintf(w, "# warning: commits differ (%s vs %s); -repeat is meant for one commit\n", a.Meta["commit"], b.Meta["commit"])
	}
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "gap", "bound", "verdict")
	exceeded := 0
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-15s failed ops: %d and %d\n", name, ra.Failed, rb.Failed)
			exceeded++
		}
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.name], rb.EndToEnd[m.name]
			if va.Value == 0 {
				continue
			}
			gap := (vb.Value - va.Value) / va.Value
			if m.better == "higher" {
				gap = -gap // positive gap = b is worse
			}
			verdict := "ok"
			switch {
			case spread(va) > m.bound || spread(vb) > m.bound:
				verdict = "unresolved"
			case gap > m.bound || -gap > m.bound:
				verdict = "exceeds"
				exceeded++
			}
			fmt.Fprintf(w, "%-15s %-18s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", name, m.name, va.Value, vb.Value, gap*100, m.bound*100, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d pairs disagree by more than their bound", exceeded)
	}
	return nil
}

// spread is the interquartile range of the per-instance values a reported
// value was reduced from, relative to it.
func spread(v value) float64 {
	n := len(v.Trials)
	if v.Value == 0 || n < 4 {
		return 0
	}
	s := append([]float64(nil), v.Trials...)
	sort.Float64s(s)
	return (s[n-1-(n-1)/4] - s[(n-1)/4]) / v.Value
}
