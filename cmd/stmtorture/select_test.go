package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestSelectWorkloads pins the -workload resolution: "all" runs exactly the
// in-process tortures and *names* what it skips (the silent-skip of
// crash/faultdisk/socket was a reporting bug), every workload is reachable
// by name, and a typo is an error rather than a no-op run.
func TestSelectWorkloads(t *testing.T) {
	run, skipped, err := selectWorkloads("all")
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	if want := []string{"bank", "pairs", "ledger", "hist"}; !reflect.DeepEqual(run, want) {
		t.Fatalf("all runs %v, want %v", run, want)
	}
	if want := []string{"crash", "faultdisk", "socket", "replica"}; !reflect.DeepEqual(skipped, want) {
		t.Fatalf("all skips %v, want %v", skipped, want)
	}

	for _, name := range []string{"bank", "pairs", "ledger", "hist", "crash", "faultdisk", "socket", "replica"} {
		run, skipped, err := selectWorkloads(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(run, []string{name}) || len(skipped) != 0 {
			t.Fatalf("%s resolves to run=%v skipped=%v", name, run, skipped)
		}
	}

	if _, _, err := selectWorkloads("sockets"); err == nil {
		t.Fatal("typo workload accepted silently")
	}
	if _, _, err := selectWorkloads(""); err == nil {
		t.Fatal("empty workload accepted silently")
	}
}

// TestResolveTM pins the -tm resolution that runs before any workload: a
// typo is the registry's error (main exits 2 on it — it used to panic the
// in-process workloads and to pass the log-backed ones as SKIPPED), and a
// known TM reports whether the log-backed workloads can run on it.
func TestResolveTM(t *testing.T) {
	if _, err := resolveTM("multivrse"); err == nil || !strings.Contains(err.Error(), "multiverse-eager") {
		t.Fatalf("typo'd -tm: err = %v, want the registry's error listing the names", err)
	}
	for tm, want := range map[string]bool{"multiverse": true, "tl2": true, "dctl": true, "tinystm": false, "norec": false} {
		durable, err := resolveTM(tm)
		if err != nil || durable != want {
			t.Errorf("resolveTM(%q) = %v, %v; want %v, nil", tm, durable, err, want)
		}
	}
}
