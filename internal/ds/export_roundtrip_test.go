package ds_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/ds"
)

// TestKVSerializationRoundTrip pins the wire-compatibility of []ds.KV — the
// unit both the WAL checkpoint image and any external consumer serialize —
// through gob and JSON, including the empty and nil edge cases.
func TestKVSerializationRoundTrip(t *testing.T) {
	cases := map[string][]ds.KV{
		"nil":   nil,
		"empty": {},
		"pairs": {{Key: 1, Val: 2}, {Key: 3, Val: 0}, {Key: ^uint64(0), Val: ^uint64(0)}},
	}
	for name, pairs := range cases {
		t.Run(name, func(t *testing.T) {
			// gob round trip.
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(pairs); err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			var backGob []ds.KV
			if err := gob.NewDecoder(&buf).Decode(&backGob); err != nil {
				t.Fatalf("gob decode: %v", err)
			}
			if len(backGob) != len(pairs) {
				t.Fatalf("gob: %d pairs back, want %d", len(backGob), len(pairs))
			}
			for i := range pairs {
				if backGob[i] != pairs[i] {
					t.Fatalf("gob: pair %d diverged: %v vs %v", i, backGob[i], pairs[i])
				}
			}
			// JSON round trip. Large uint64s must survive (they do:
			// encoding/json renders uint64 as full-precision integers).
			blob, err := json.Marshal(pairs)
			if err != nil {
				t.Fatalf("json marshal: %v", err)
			}
			var backJSON []ds.KV
			if err := json.Unmarshal(blob, &backJSON); err != nil {
				t.Fatalf("json unmarshal: %v", err)
			}
			if len(pairs) == 0 {
				if len(backJSON) != 0 {
					t.Fatalf("json: %d pairs back, want none", len(backJSON))
				}
				return
			}
			if !reflect.DeepEqual(backJSON, pairs) {
				t.Fatalf("json: round trip diverged: %v vs %v", backJSON, pairs)
			}
		})
	}
}
