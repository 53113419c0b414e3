package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func TestHandlerSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Func(func(emit func(string, uint64)) { emit("test.hits", 3) })
	reg.Hist("test.lat").RecordNs(1000)
	h := Handler(reg, nil, nil)

	w := get(t, h, "/debug/obs")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if snap.Version == 0 || snap.Counters["test.hits"] != 3 || snap.Hists["test.lat"].Count != 1 {
		t.Fatalf("snapshot diverged: %+v", snap)
	}
}

func TestHandlerEventsWraparoundOrder(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(16)
	for i := 0; i < 40; i++ {
		rec.Record(EvAckBatch, uint64(i), 1, 0)
	}
	w := get(t, Handler(reg, rec, nil), "/debug/obs/events")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	body := w.Body.String()
	if !strings.Contains(body, "16 event(s) in ring, 40 recorded") {
		t.Fatalf("header missing after wraparound:\n%s", body)
	}
	// Dumped sequence numbers must be the surviving tail (25..40), ascending.
	seqs := regexp.MustCompile(`#(\d+) `).FindAllStringSubmatch(body, -1)
	if len(seqs) != 16 {
		t.Fatalf("dumped %d events, want 16", len(seqs))
	}
	for i, m := range seqs {
		n, _ := strconv.Atoi(m[1])
		if n != 25+i {
			t.Fatalf("event %d has seq %d, want %d (oldest-first ring tail)", i, n, 25+i)
		}
	}
}

func TestHandlerEventsNoRecorder(t *testing.T) {
	w := get(t, Handler(NewRegistry(), nil, nil), "/debug/obs/events")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "no flight recorder attached") {
		t.Fatalf("status %d body %q", w.Code, w.Body.String())
	}
}

func TestHandlerTrace(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(64, 2, nil)
	tr.Record(2, StageDecode, 1, 100, 5, 1, 0)
	tr.Record(2, StageTotal, 0, 100, 50, 0, 0)
	w := get(t, Handler(reg, nil, tr), "/debug/obs/trace")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var d TraceDump
	if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if d.Version != TraceVersion || d.Every != 2 || len(d.Spans) != 2 {
		t.Fatalf("dump diverged: %+v", d)
	}
	for _, sp := range d.Spans {
		if _, ok := StageByName(sp.Stage); !ok {
			t.Fatalf("span carries unknown stage %q", sp.Stage)
		}
	}
}

func TestHandlerTraceNilTracer(t *testing.T) {
	w := get(t, Handler(NewRegistry(), nil, nil), "/debug/obs/trace")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var d TraceDump
	if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if d.Every != 0 || len(d.Spans) != 0 || d.Version != TraceVersion {
		t.Fatalf("nil-tracer dump = %+v, want valid empty document", d)
	}
}

func TestHandlerRootAndNotFound(t *testing.T) {
	h := Handler(NewRegistry(), nil, nil)
	if w := get(t, h, "/"); w.Code != http.StatusFound || w.Header().Get("Location") != "/debug/obs" {
		t.Fatalf("root: status %d location %q", w.Code, w.Header().Get("Location"))
	}
	if w := get(t, h, "/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d", w.Code)
	}
}
