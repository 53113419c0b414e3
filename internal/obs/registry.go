package obs

import (
	"encoding/json"
	"maps"
	"slices"
	"sync"
)

// Registry is a named collection of metrics plus collector callbacks polled
// at snapshot time. Registries are plain values — binaries and tests create
// their own, so concurrent systems in one process never collide on names.
// Numbers and strings come from collectors (Func, Text) over atomics their
// layer already maintains; latencies from Hists. Histogram lookup takes a
// mutex; hot paths hold on to the returned *Hist and never touch the registry
// again.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Hist
	funcs []func(emit func(name string, v uint64))
	texts []func(emit func(name, v string))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{hists: make(map[string]*Hist)} }

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// Func registers a collector polled at snapshot time. Layers that already
// maintain their own atomics (wal.Log, shard.System) register one closure
// emitting them, so the registry is live without hot-path double counting.
// Emitting a name that another collector also emits is allowed; the later
// emission wins.
func (r *Registry) Func(f func(emit func(name string, v uint64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs = append(r.funcs, f)
}

// Text registers a collector for string-valued entries (health states,
// mode names), polled at snapshot time.
func (r *Registry) Text(f func(emit func(name, v string))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.texts = append(r.texts, f)
}

// SnapshotVersion identifies the Snapshot wire/JSON schema. Consumers
// (stmctl top, CI smoke scrapes) should check it before interpreting fields.
const SnapshotVersion = 1

// Snapshot is one consistent-enough view of a registry: flat dotted names,
// JSON-encodable, versioned. Func emissions land in Counters; string-valued
// entries (health states) in Text; histogram summaries in Hists.
type Snapshot struct {
	Version  int                     `json:"version"`
	Counters map[string]uint64       `json:"counters"`
	Text     map[string]string       `json:"text,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// Snapshot folds all metrics and collector callbacks into one view.
// Collectors run after the registry lock is released — they only read
// their own atomics, so a collector may itself take snapshots of other
// subsystems without lock-ordering concerns.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	hists := maps.Clone(r.hists)
	funcs := slices.Clone(r.funcs)
	texts := slices.Clone(r.texts)
	r.mu.Unlock()

	s := Snapshot{
		Version:  SnapshotVersion,
		Counters: make(map[string]uint64),
	}
	for _, f := range funcs {
		f(func(name string, v uint64) { s.Counters[name] = v })
	}
	if len(hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(hists))
		for name, h := range hists {
			s.Hists[name] = h.Snapshot()
		}
	}
	if len(texts) > 0 {
		s.Text = make(map[string]string)
		for _, f := range texts {
			f(func(name, v string) { s.Text[name] = v })
		}
	}
	return s
}

// JSON returns the snapshot encoded as JSON (keys sorted, stable for
// diffing and CI scrapes).
func (r *Registry) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
