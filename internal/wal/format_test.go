package wal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/stm"
)

// TestGoldenBytes pins the three on-disk encodings to hex generated before
// framing moved to internal/frame: the refactor changed no byte on disk.
func TestGoldenBytes(t *testing.T) {
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"segment header", appendSegHeader(nil, 3), "57414c53454730310200000003000000"},
		{"2-op record", appendRecord(nil, 0x1122, 0x77, []stm.RedoRec{
			{Op: stm.RedoInsert, Key: 1, Val: 2}, {Op: stm.RedoDelete, Key: 3}}),
			"360000001400617d2211000000000000770000000000000002000000" +
				"0101000000000000000200000000000000" + "0203000000000000000000000000000000"},
		{"incremental checkpoint", encodeCheckpoint(16, 9, false, []ckptEntry{{key: 1, val: 2}, {key: 7, tomb: true}}),
			"57414c434b50303102000000" + "02000000" + "1000000000000000" + "0900000000000000" + "0200000000000000" +
				"0101000000000000000200000000000000" + "0207000000000000000000000000000000" + "c7a4ae28"},
	} {
		if hex.EncodeToString(g.got) != g.want {
			t.Errorf("%s:\n got  %x\n want %s", g.name, g.got, g.want)
		}
	}
}

// TestRecoversParentWrittenDirectory: testdata/parent-log/dir was written by
// the binary built from the commit before the frame/layout/chain refactor
// (2 shards; a full checkpoint, an incremental one chained onto it, a log
// suffix, and a torn tail on shard 1's newest segment); want.txt is the
// state its model held. This build must recover exactly that state from it.
func TestRecoversParentWrittenDirectory(t *testing.T) {
	dir := t.TempDir() // recovery repairs in place; work on a copy
	if err := os.CopyFS(dir, os.DirFS("testdata/parent-log/dir")); err != nil {
		t.Fatal(err)
	}
	var want []ds.KV
	text, err := os.ReadFile("testdata/parent-log/want.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		var kv ds.KV
		if _, err := fmt.Sscanf(line, "%d %d", &kv.Key, &kv.Val); err != nil {
			t.Fatalf("want.txt line %q: %v", line, err)
		}
		want = append(want, kv)
	}
	m, l := mustOpen(t, testOpts(dir, "multiverse", 2, nil))
	defer l.Close()
	if got := exportSorted(t, l, m); !slices.Equal(got, want) {
		t.Fatalf("recovered %d pairs, parent's model held %d:\n got  %v\n want %v", len(got), len(want), got, want)
	}
	if st := l.Stats(); st.RecoveredTs != 0xd {
		t.Fatalf("recovery started from ts %#x, want the incremental checkpoint at 0xd", st.RecoveredTs)
	}
}

// TestResolveChain: newest full, then exactly-chained increments; a gap ends
// the chain, and with no full checkpoint nothing is applicable.
func TestResolveChain(t *testing.T) {
	full := func(ts uint64, kv ...uint64) parsedCkpt {
		c := parsedCkpt{ts: ts, full: true}
		for i := 0; i < len(kv); i += 2 {
			c.entries = append(c.entries, ckptEntry{key: kv[i], val: kv[i+1]})
		}
		return c
	}
	incr := func(ts, prev uint64, e ...ckptEntry) parsedCkpt {
		return parsedCkpt{ts: ts, prevTs: prev, entries: e}
	}
	for _, tc := range []struct {
		name   string
		cks    []parsedCkpt
		image  map[uint64]uint64
		baseTs uint64
	}{
		{"none", nil, map[uint64]uint64{}, 0},
		{"increments only", []parsedCkpt{incr(5, 3, ckptEntry{key: 1, val: 1})}, map[uint64]uint64{}, 0},
		{"full then chained", []parsedCkpt{
			full(10, 1, 10, 2, 20),
			incr(12, 10, ckptEntry{key: 2, tomb: true}, ckptEntry{key: 3, val: 30}),
			incr(15, 12, ckptEntry{key: 1, val: 11}),
		}, map[uint64]uint64{1: 11, 3: 30}, 15},
		{"gap ends the chain", []parsedCkpt{
			full(10, 1, 10),
			incr(12, 11, ckptEntry{key: 9, val: 9}), // diffed against a checkpoint that is gone
			incr(15, 12, ckptEntry{key: 1, val: 11}),
		}, map[uint64]uint64{1: 10}, 10},
		{"newest full wins", []parsedCkpt{
			full(10, 1, 10),
			incr(12, 10, ckptEntry{key: 2, val: 20}),
			full(20, 7, 70),
			incr(22, 20, ckptEntry{key: 8, val: 80}),
		}, map[uint64]uint64{7: 70, 8: 80}, 22},
	} {
		image, baseTs := resolveChain(tc.cks)
		if !reflect.DeepEqual(image, tc.image) || baseTs != tc.baseTs {
			t.Errorf("%s: image %v at ts %d, want %v at ts %d", tc.name, image, baseTs, tc.image, tc.baseTs)
		}
	}
}

func TestLayoutNames(t *testing.T) {
	if idx, ok := parseSegName(SegName(0xff)); !ok || idx != 0xff {
		t.Fatalf("segment name does not round-trip: %d %v", idx, ok)
	}
	if ts, ok := parseCkptName(CkptName(1 << 40)); !ok || ts != 1<<40 {
		t.Fatalf("checkpoint name does not round-trip: %d %v", ts, ok)
	}
	for _, shard := range []int{0, 7, 15, 999, 1000, 4096} {
		if got, ok := parseShardDirName(ShardDirName(shard)); !ok || got != shard {
			t.Fatalf("shard dir name %q does not round-trip: %d %v", ShardDirName(shard), got, ok)
		}
	}
	// Only canonical spellings are names: one number, one name.
	for _, bad := range []string{"shard-7", "shard-0007", "shard-", "shard--01", "shard-00x", "shard-01000"} {
		if _, ok := parseShardDirName(bad); ok {
			t.Errorf("parseShardDirName(%q) accepted a non-canonical name", bad)
		}
	}
	for _, bad := range []string{"wal-1.seg", "wal-00000000000000FF.seg", "wal-000000000000000g.seg",
		"wal-0000000000000001.seg.tmp", "xwal-0000000000000001.seg", "wal-+000000000000001.seg"} {
		if _, ok := parseSegName(bad); ok {
			t.Errorf("parseSegName(%q) accepted a non-canonical name", bad)
		}
	}
}

// TestCheckRelRejectsEscapingPaths: a hostile or corrupt path in a shipped
// message must kill the session, not write outside the follower directory.
func TestCheckRelRejectsEscapingPaths(t *testing.T) {
	for _, bad := range []string{
		"", "../escape.seg", "/abs/path.seg", "shard-000/../../x.seg",
		"shard-000/nested/wal-0000000000000000.seg", "ck-x.ckpt.tmp",
		"shard-000/ck-0000000000000001.ckpt", "notashard/wal-0000000000000000.seg",
		"ck-0000000000000001.ckpt.tmp", "shard-000\\wal-0000000000000000.seg",
		"shard-000/wal-0000000000000000.seg\x00", "shard-000/", "shard-000",
	} {
		if err := CheckRel(bad); err == nil {
			t.Errorf("CheckRel(%q) accepted an escaping path", bad)
		} else if !strings.Contains(err.Error(), "illegal log-relative path") {
			t.Errorf("CheckRel(%q): unexpected error %v", bad, err)
		}
	}
	for _, good := range []string{
		"ck-0000000000000007.ckpt", "shard-000/wal-0000000000000000.seg",
		"shard-015/wal-00000000000000ff.seg", ShardDirName(1234) + "/" + SegName(1<<50), CkptName(^uint64(0)),
	} {
		if err := CheckRel(good); err != nil {
			t.Errorf("CheckRel(%q) rejected a legal path: %v", good, err)
		}
	}
}

// TestListDir: one scan finds exactly the log's files, in numeric order,
// ignores everything else, and everything it lists passes CheckRel.
func TestListDir(t *testing.T) {
	dir := t.TempDir()
	if ls, err := ListDir(fault.OS, filepath.Join(dir, "absent")); err != nil || len(ls.Rels()) != 0 {
		t.Fatalf("missing directory: %+v err=%v, want an empty listing", ls, err)
	}
	seg := func(shard int, idx uint64) string { return ShardDirName(shard) + "/" + SegName(idx) }
	for _, rel := range []string{
		seg(1000, 2), seg(2, 0x10), seg(2, 9), seg(0, 1),
		CkptName(0x20), CkptName(3), CkptName(5) + ckptTmpSuffix,
		"README", "shard-2/wal-0000000000000001.seg", "shard-002/notes.txt", "shard-002/wal-1.seg",
	} {
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, ShardDirName(5)), 0o755); err != nil { // a stream with no segment yet
		t.Fatal(err)
	}
	ls, err := ListDir(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := DirListing{
		Ckpts:    []string{CkptName(3), CkptName(0x20)},
		CkptTmps: []string{CkptName(5) + ckptTmpSuffix},
		Shards: []ShardListing{
			{Shard: 0, Name: ShardDirName(0), Segs: []string{SegName(1)}},
			{Shard: 2, Name: ShardDirName(2), Segs: []string{SegName(9), SegName(0x10)}},
			{Shard: 5, Name: ShardDirName(5), Segs: []string{}},
			{Shard: 1000, Name: ShardDirName(1000), Segs: []string{SegName(2)}},
		},
	}
	if !reflect.DeepEqual(ls, want) {
		t.Fatalf("listing:\n got  %+v\n want %+v", ls, want)
	}
	wantRels := []string{seg(0, 1), seg(2, 9), seg(2, 0x10), seg(1000, 2), CkptName(3), CkptName(0x20)}
	if rels := ls.Rels(); !slices.Equal(rels, wantRels) {
		t.Fatalf("ship order: %v want %v", rels, wantRels)
	}
	for _, rel := range ls.Rels() {
		if err := CheckRel(rel); err != nil {
			t.Errorf("listed file fails the validator: %v", err)
		}
	}
}

// FuzzDecodeRecords: over an arbitrary segment image, decodeRecords returns
// a record prefix whose re-encoding is exactly the image's first validLen
// bytes — so whatever it accepts, it accepts byte for byte — and never
// panics. torn is set iff something follows that prefix.
func FuzzDecodeRecords(f *testing.F) {
	seg := appendSegHeader(nil, 1)
	seg = appendRecord(seg, 10, 77, []stm.RedoRec{{Op: stm.RedoInsert, Key: 1, Val: 2}})
	seg = appendRecord(seg, 11, 0, []stm.RedoRec{{Op: stm.RedoDelete, Key: 1}, {Op: stm.RedoInsert, Key: 9, Val: 8}})
	seg = appendRecord(seg, 11, 3, nil)
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add(appendSegHeader(nil, 0))
	f.Add([]byte("NOTMAGIC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, torn := decodeRecords(data)
		if validLen > len(data) || torn != (validLen != len(data)) {
			t.Fatalf("validLen=%d torn=%v over %d bytes", validLen, torn, len(data))
		}
		if validLen == 0 {
			if len(recs) != 0 {
				t.Fatalf("%d records decoded behind an invalid header", len(recs))
			}
			return
		}
		again := append([]byte(nil), data[:segHeaderSize]...)
		for _, r := range recs {
			again = appendRecord(again, r.ts, r.trace, r.redo)
		}
		if !bytes.Equal(again, data[:validLen]) {
			t.Fatalf("re-encoded prefix differs from the input prefix (%d records, %d bytes)", len(recs), validLen)
		}
	})
}

// FuzzParseCheckpoint: an arbitrary image is rejected or parses to a
// checkpoint whose re-encoding is the image; never a panic, and the entry
// slice it allocates is bounded by the image it was handed.
func FuzzParseCheckpoint(f *testing.F) {
	entries := []ckptEntry{{key: 1, val: 2}, {key: 7, tomb: true}}
	f.Add(encodeCheckpoint(16, 9, false, entries))
	f.Add(encodeCheckpoint(16, 0, true, entries))
	f.Add(encodeCheckpoint(1, 0, true, nil))
	f.Add(encodeCheckpoint(16, 9, false, entries)[:ckptHeaderSize+10])
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseCheckpoint("fuzz", data)
		if err != nil {
			return
		}
		if len(c.entries)*ckptEntrySize > len(data) {
			t.Fatalf("%d entries parsed out of %d bytes", len(c.entries), len(data))
		}
		if c.full && c.prevTs != 0 {
			return // encodeCheckpoint normalizes a full checkpoint's prevTs to 0
		}
		if again := encodeCheckpoint(c.ts, c.prevTs, c.full, c.entries); !bytes.Equal(again[:12], data[:12]) ||
			!bytes.Equal(again[16:], data[16:]) || again[12] != data[12] {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, again)
		}
	})
}
