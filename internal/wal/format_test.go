package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/stm"
)

// encodeCheckpoint renders a whole checkpoint file image the way Checkpoint
// does, pair by pair.
func encodeCheckpoint(ts uint64, pairs ...ds.KV) []byte {
	buf := beginCheckpoint(nil)
	for _, kv := range pairs {
		buf = appendCkptPair(buf, kv.Key, kv.Val)
	}
	return finishCheckpoint(buf, ts)
}

// asDelta turns a checkpoint image into what an earlier format could write:
// kind 2 for an incremental checkpoint, chained onto prevTs, its last tombs
// entries tombstones (flag 2; the parser took them under kind 1 too) — under
// a valid checksum.
func asDelta(data []byte, kind byte, prevTs uint64, tombs int) []byte {
	data = bytes.Clone(data[:len(data)-4])
	data[12] = kind
	binary.LittleEndian.PutUint64(data[24:], prevTs)
	for p := len(data) - ckptPairSize; tombs > 0; p, tombs = p-ckptPairSize, tombs-1 {
		data[p] = 2
	}
	return binary.LittleEndian.AppendUint32(data, frame.Checksum(data[8:]))
}

// TestGoldenBytes pins the three on-disk encodings to hex generated by
// earlier commits: the record rows before framing moved to internal/frame,
// the checkpoint row by the last commit that could also write incremental
// ones. Neither change moved a byte on disk.
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
		{"checkpoint", encodeCheckpoint(16, ds.KV{Key: 1, Val: 2}, ds.KV{Key: 7, Val: 9}),
			"57414c434b50303102000000" + "01000000" + "1000000000000000" + "0000000000000000" + "0200000000000000" +
				"0101000000000000000200000000000000" + "0107000000000000000900000000000000" + "e7a10a21"},
		{"empty checkpoint", encodeCheckpoint(1),
			"57414c434b50303102000000" + "01000000" + "0100000000000000" + "0000000000000000" + "0000000000000000" + "86de86e9"},
	} {
		if hex.EncodeToString(g.got) != g.want {
			t.Errorf("%s:\n got  %x\n want %s", g.name, g.got, g.want)
		}
	}
}

// readWant parses a testdata want.txt: one "key val" line per pair, sorted.
func readWant(t *testing.T, path string) []ds.KV {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []ds.KV
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		var kv ds.KV
		if _, err := fmt.Sscanf(line, "%d %d", &kv.Key, &kv.Val); err != nil {
			t.Fatalf("%s line %q: %v", path, line, err)
		}
		want = append(want, kv)
	}
	return want
}

// TestRecoversParentWrittenDirectory: testdata/parent-full/dir was written by
// the binary built from the last commit that had incremental checkpoints
// (2 shards; one full checkpoint at ts 0xb, a log suffix, and a torn tail on
// shard 1's segment); want.txt is the state its model held, and what that
// binary recovers from it. This build must recover exactly that state.
func TestRecoversParentWrittenDirectory(t *testing.T) {
	dir := t.TempDir() // recovery repairs in place; work on a copy
	if err := os.CopyFS(dir, os.DirFS("testdata/parent-full/dir")); err != nil {
		t.Fatal(err)
	}
	want := readWant(t, "testdata/parent-full/want.txt")
	m, l := mustOpen(t, testOpts(dir, "multiverse", 2, nil))
	defer l.Close()
	if got := exportSorted(t, l, m); !slices.Equal(got, want) {
		t.Fatalf("recovered %d pairs, parent's model held %d:\n got  %v\n want %v", len(got), len(want), got, want)
	}
	if st := l.Stats(); st.RecoveredTs != 0xb {
		t.Fatalf("recovery started from ts %#x, want the checkpoint at 0xb", st.RecoveredTs)
	}
}

// dirBytes reads every file under dir, by relative path.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := fs.WalkDir(os.DirFS(dir), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(filepath.Join(dir, p))
		files[p] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRefusesIncrementalCheckpoint: testdata/parent-log/dir was written by an
// earlier binary still (2 shards; a full checkpoint at 0x9, an incremental
// one at 0xd chained onto it, a log suffix, and a torn tail on shard 1's
// newest segment). The delta checksums, so it is not crash damage to delete,
// and recovering from the full checkpoint under it would bring back an older
// state: the open fails, names the file, and has repaired nothing — the
// refusal comes before the torn tail is cut. A tailer's poll fails alike.
func TestRefusesIncrementalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parent-log/dir")); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	if len(before) != 4 {
		t.Fatalf("testdata holds %d files, want 2 checkpoints and 2 segments", len(before))
	}
	_, l, err := OpenWith(testOpts(dir, "multiverse", 2, nil))
	if err == nil {
		l.Close()
		t.Fatal("opened a directory whose newest checkpoint is an incremental delta")
	}
	if !strings.Contains(err.Error(), "ck-000000000000000d.ckpt") || errors.Is(err, errTornCkpt) {
		t.Fatalf("refusal does not name the delta, or calls it torn: %v", err)
	}
	if _, err := OpenShipReader(dir, nil).Poll(); err == nil || !strings.Contains(err.Error(), "ck-000000000000000d.ckpt") {
		t.Fatalf("Poll over the same directory: %v, want a refusal naming the delta", err)
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused open changed the directory")
	}
}

// plantCkpts writes one checkpoint file per ts under dir: key ts → val ts,
// torn (cut short) where torn says so.
func plantCkpts(t *testing.T, dir string, torn map[uint64]bool, tss ...uint64) {
	t.Helper()
	for _, ts := range tss {
		data := encodeCheckpoint(ts, ds.KV{Key: ts, Val: ts})
		if torn[ts] {
			data = data[:len(data)-7]
		}
		if err := os.WriteFile(filepath.Join(dir, CkptName(ts)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ckptReads lists the checkpoint files an injector saw read, in order.
func ckptReads(inj *fault.Injector) []string {
	var names []string
	for _, op := range inj.Trace() {
		if op.Op == fault.OpRead && strings.HasSuffix(op.Path, ".ckpt") {
			names = append(names, filepath.Base(op.Path))
		}
	}
	return names
}

// TestRecoveryReadsOneCheckpoint: recovery takes the newest checkpoint that
// parses and opens nothing older. A torn newest is removed and the one
// before it used; the files passed over unread go with the next checkpoint.
func TestRecoveryReadsOneCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name      string
		torn      map[uint64]bool
		reads     []string
		recovered uint64
		listed    []string // after the open
	}{
		{"newest wins", nil, []string{CkptName(20)}, 20, []string{CkptName(10), CkptName(20)}},
		{"torn newest falls back", map[uint64]bool{20: true}, []string{CkptName(20), CkptName(10)}, 10, []string{CkptName(10)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plantCkpts(t, dir, tc.torn, 10, 20)
			inj := fault.NewInjector(fault.OS, 1)
			inj.Record(true)
			m, l := mustOpen(t, testOpts(dir, "multiverse", 1, func(o *Options) { o.FS = inj }))
			defer l.Close()
			if got := ckptReads(inj); !slices.Equal(got, tc.reads) {
				t.Fatalf("recovery read %v, want %v", got, tc.reads)
			}
			want := []ds.KV{{Key: tc.recovered, Val: tc.recovered}}
			if got := exportSorted(t, l, m); !slices.Equal(got, want) || l.Stats().RecoveredTs != tc.recovered {
				t.Fatalf("recovered %v from ts %d, want %v from %d", got, l.Stats().RecoveredTs, want, tc.recovered)
			}
			if ls, _ := ListDir(fault.OS, dir); !slices.Equal(ls.Ckpts, tc.listed) {
				t.Fatalf("after the open the directory lists %v, want %v", ls.Ckpts, tc.listed)
			}
			if _, err := l.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if ls, _ := ListDir(fault.OS, dir); len(ls.Ckpts) != 1 || ls.Ckpts[0] <= CkptName(tc.recovered) {
				t.Fatalf("after a checkpoint the directory lists %v, want the new one alone", ls.Ckpts)
			}
		})
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
// checkpoint whose re-encoding is the image, byte for byte; never a panic,
// and the pairs it allocates are bounded by the image it was handed. What an
// earlier format wrote for an incremental checkpoint — kind 2, or a
// tombstone among the entries — is refused, and not as torn.
func FuzzParseCheckpoint(f *testing.F) {
	full := encodeCheckpoint(16, ds.KV{Key: 1, Val: 2}, ds.KV{Key: 7, Val: 9})
	f.Add(full)
	f.Add(encodeCheckpoint(1))
	f.Add(full[:ckptHeaderSize+10])
	for _, delta := range [][]byte{asDelta(full, 2, 9, 1), asDelta(full, 2, 9, 0), asDelta(full, 1, 0, 1)} {
		f.Add(delta)
		if _, _, err := parseCheckpoint("seed", delta); err == nil || errors.Is(err, errTornCkpt) {
			f.Fatalf("kind %d, flag %d: err = %v, want a refusal that is not a torn verdict", delta[12], delta[len(delta)-4-ckptPairSize], err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, pairs, err := parseCheckpoint("fuzz", data)
		if err != nil {
			return
		}
		if len(pairs)*ckptPairSize > len(data) {
			t.Fatalf("%d pairs parsed out of %d bytes", len(pairs), len(data))
		}
		if again := encodeCheckpoint(ts, pairs...); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, again)
		}
	})
}
