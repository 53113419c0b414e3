package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The catalogue test runs every workload once at -quick sizes, both passes,
// and checks what is emitted against the catalogue and ../BENCHMARK.json. It
// asserts nothing about speed: timing-shaped assertions stay out of the
// correctness gate.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func inTempCwd(t *testing.T) string {
	t.Helper()
	src, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	return src
}

func TestCatalogue(t *testing.T) {
	src := inTempCwd(t)
	var buf bytes.Buffer
	if err := run(options{seed: 1, seconds: 1, trace: 1, quick: true, out: "result.json"}, nil, &buf); err != nil {
		t.Fatalf("quick run: %v\n%s", err, buf.String())
	}
	rep, err := readReport("result.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %v", m.name, nameRE)
		}
		if seen[m.name] {
			t.Errorf("metric %q is catalogued twice", m.name)
		}
		seen[m.name] = true
	}
	for _, name := range workloadNames {
		res := rep.Workloads[name]
		if res == nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: result %+v", name, res)
		}
		check := func(pass string, cat []metric, got map[string]value) {
			want := map[string]bool{}
			for _, m := range cat {
				if m.appliesTo(name) {
					want[m.name] = true
				}
			}
			for k, v := range got {
				if !want[k] {
					t.Errorf("%s %s: emits %q, which the catalogue does not name for it", name, pass, k)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s %s: %q is %v", name, pass, k, v.Value)
				}
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					t.Errorf("%s %s: catalogue names %q but the run did not emit it", name, pass, k)
				}
			}
		}
		check("end-to-end", endToEnd, res.EndToEnd)
		check("per-layer", perLayer, res.PerLayer)
	}

	// BENCHMARK.json is the catalogue in the pipeline's schema, nothing else.
	committed, err := os.ReadFile(filepath.Join(src, "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var have, want map[string]any
	if err := json.Unmarshal(committed, &have); err != nil {
		t.Fatal(err)
	}
	generated, err := benchmarkJSON(int(have["run_seconds"].(float64)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(generated, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Errorf("../BENCHMARK.json differs from the catalogue; regenerate it with: go run . -catalogue json -seconds %v", have["run_seconds"])
	}

	// trace.json parses and every span's parent exists.
	b, err := os.ReadFile(filepath.Join("out", "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("trace.json holds no spans")
	}
	ids := map[uint64]bool{}
	for _, s := range tf.Spans {
		if ids[s.ID] {
			t.Fatalf("span id %#x recorded twice", s.ID)
		}
		ids[s.ID] = true
	}
	for _, s := range tf.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %#x (%s %s.%s): parent %#x is not in the trace", s.ID, s.Workload, s.Layer, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Fatalf("span %#x ends before it starts", s.ID)
		}
	}
}

// TestResultLine checks the one-line result the pipeline parses, on both
// passes of one workload.
func TestResultLine(t *testing.T) {
	inTempCwd(t)
	for trace, cat := range [][]metric{endToEnd, perLayer} {
		var buf bytes.Buffer
		if err := run(options{workload: "point-mix", seed: 1, seconds: 1, trace: trace, quick: true}, nil, &buf); err != nil {
			t.Fatalf("trace=%d: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line struct {
			Correct   bool
			Attempted uint64
			Failed    uint64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace=%d: last line is not the result object: %v", trace, err)
		}
		if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
			t.Errorf("trace=%d: %+v", trace, line)
		}
		if len(line.Metrics) != len(cat) {
			t.Errorf("trace=%d: %d metrics in the result line, catalogue has %d", trace, len(line.Metrics), len(cat))
		}
		for _, m := range cat {
			if got, ok := line.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace=%d: metric %q: got %+v", trace, m.name, got)
			}
		}
	}
}

// TestSeedDiscipline: the same seed gives byte-identical op streams, another
// seed gives others, and a single-threaded fixed op count logs exactly the
// same records and bytes every time.
func TestSeedDiscipline(t *testing.T) {
	hash := func(seed uint64) uint64 {
		return streamHash(genStream(seed, 0, 1<<12, walKeyRange, durableMix), genStream(seed, 1, 1<<12, inprocKeyRange, pointMix))
	}
	if hash(1) != hash(1) {
		t.Error("seed 1 generated two different streams")
	}
	if hash(1) == hash(2) {
		t.Error("seeds 1 and 2 generated the same streams")
	}
	e := &env{seed: 1, tmp: t.TempDir(), quick: true}
	r1, b1, err := detCounts(e)
	if err != nil {
		t.Fatal(err)
	}
	r2, b2, err := detCounts(e)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || b1 != b2 || r1 == 0 {
		t.Errorf("fixed single-thread op stream logged (%d records, %d bytes) then (%d, %d)", r1, b1, r2, b2)
	}
}

func TestRepeatCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, median float64) string {
		r := report{Meta: map[string]string{"commit": "x"}, Workloads: map[string]*workloadResult{
			"point-mix": {Correct: true, EndToEnd: map[string]value{"read_us": {Value: median, Min: median, Max: median, N: 5}}},
		}}
		b, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, near, far := write("a.json", 100), write("near.json", 103), write("far.json", 150)
	var buf bytes.Buffer
	if err := repeatCompare(a, near, &buf); err != nil {
		t.Errorf("3%% apart: %v", err)
	}
	if err := repeatCompare(a, far, &buf); err == nil {
		t.Error("50% apart was accepted")
	}
}
