package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExits: every name is resolved before anything runs, so a typo is exit
// 2 with the reason on stderr (for a TM, the registry's list of names), no
// panic, and not even a header on stdout.
func TestExits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"typo'd tm", []string{"-exp", "fig1", "-tm", "multivers"}, `unknown TM "multivers" (want one of dctl, multiverse,`},
		{"typo'd tm after a good one", []string{"-exp", "all", "-tm", "dctl,tl3"}, `unknown TM "tl3"`},
		{"unknown exp", []string{"-exp", "fig2"}, `unknown experiment "fig2"`},
		{"bad threads", []string{"-exp", "fig1", "-threads", "1,x"}, `bad -threads entry "x"`},
		{"unknown flag", []string{"-json"}, "not defined: -json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-dur", "1ms", "-prefill", "64", "-threads", "1"}, tc.args...), &stdout, &stderr)
			if code != 2 || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("exit %d, stderr %q; want exit 2 and %q", code, stderr.String(), tc.stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before failing: %q", stdout.String())
			}
		})
	}
}

// TestRunsTheTable drives one figure end to end through the binary's own
// entry point: -tm picks exactly the TMs named, no -tm the figure's line-up.
func TestRunsTheTable(t *testing.T) {
	for _, tc := range []struct {
		args []string
		rows int
	}{
		{[]string{"-exp", "fig1", "-tm", "multiverse,dctl"}, 2},
		{[]string{"-exp", "ablation", "-tm", "dctl"}, 2}, // two points; the parent ignored -tm here
		{[]string{"-exp", "ablation"}, 10},
	} {
		var stdout, stderr bytes.Buffer
		args := append(tc.args, "-dur", "1ms", "-prefill", "64", "-threads", "1")
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		if got := strings.Count(stdout.String(), "ops/s="); got != tc.rows {
			t.Errorf("%v printed %d result rows, want %d:\n%s", tc.args, got, tc.rows, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || strings.Count(stdout.String(), "\n") != 20 {
		t.Errorf("-list: exit %d, %q; want the heading and 19 figures", code, stdout.String())
	}
}
