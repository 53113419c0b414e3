package wal

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fault"
)

// The log directory's layout, spelled once. Everything that walks, names or
// validates a log directory — recovery, the ShipReader, the shipping
// channel in internal/replica, the torture harness — goes through this file:
//
//	<dir>/ck-<16 hex frozenTs>.ckpt        checkpoint (written as <name>.tmp, then renamed)
//	<dir>/shard-<NNN>/wal-<16 hex idx>.seg one segment of shard NNN's stream
//
// Names are canonical — fixed-width lowercase hex, shard numbers zero-padded
// to three digits — so a name parses iff formatting its number gives the
// name back, and anything else in the directory is not part of the log.
const (
	ckptTmpSuffix = ".tmp"
	hexDigits     = 16
)

// ShardDirName is the directory name of one shard's stream.
func ShardDirName(shard int) string { return fmt.Sprintf("shard-%03d", shard) }

// SegName is the file name of a stream's segment idx.
func SegName(idx uint64) string { return fmt.Sprintf("wal-%016x.seg", idx) }

// CkptName is the file name of the checkpoint frozen at ts.
func CkptName(ts uint64) string { return fmt.Sprintf("ck-%016x.ckpt", ts) }

func segPath(shardDir string, idx uint64) string { return filepath.Join(shardDir, SegName(idx)) }

// parseHexName parses prefix + 16 lowercase hex digits + suffix.
func parseHexName(name, prefix, suffix string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if s, ok = strings.CutSuffix(s, suffix); !ok || len(s) != hexDigits || strings.ToLower(s) != s {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 16, 64)
	return n, err == nil
}

func parseSegName(name string) (uint64, bool)  { return parseHexName(name, "wal-", ".seg") }
func parseCkptName(name string) (uint64, bool) { return parseHexName(name, "ck-", ".ckpt") }

func parseShardDirName(name string) (int, bool) {
	s, ok := strings.CutPrefix(name, "shard-")
	if !ok || len(s) < 3 || (len(s) > 3 && s[0] == '0') {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 31)
	return int(n), err == nil
}

// CheckRel admits exactly the two relative paths a log directory contains —
// a checkpoint name, or shard-dir/segment-name — and nothing else. A peer on
// the shipping channel names the files it wants written; a path that does
// not parse (absolute, dot-dot, nested, or just unexpected) is a protocol
// violation, not a file to create.
func CheckRel(rel string) error {
	dir, file, nested := strings.Cut(rel, "/")
	if nested {
		_, dirOK := parseShardDirName(dir)
		if _, ok := parseSegName(file); ok && dirOK {
			return nil
		}
	} else if _, ok := parseCkptName(rel); ok {
		return nil
	}
	return fmt.Errorf("wal: illegal log-relative path %q", rel)
}

// DirListing is one sorted scan of a log directory, by file name: names are
// fixed-width, so name order is numeric order and parse*Name never fails on
// a listed name.
type DirListing struct {
	Ckpts    []string       // checkpoint file names, ascending frozen ts
	CkptTmps []string       // checkpoint temp files a crash orphaned
	Shards   []ShardListing // ascending shard number
}

// ShardListing is one shard directory's segments.
type ShardListing struct {
	Shard int
	Name  string   // the directory's name
	Segs  []string // segment file names, ascending index
}

// ListDir scans the log directory dir through fsys. A missing directory is
// an empty listing (a fresh log has nothing yet); other ReadDir errors —
// including injected ones — propagate.
func ListDir(fsys fault.FS, dir string) (DirListing, error) {
	var l DirListing
	names, err := readDirFS(fsys, dir)
	if err != nil {
		return l, err
	}
	for _, name := range names {
		if _, ok := parseCkptName(name); ok {
			l.Ckpts = append(l.Ckpts, name)
		} else if _, ok := parseCkptName(strings.TrimSuffix(name, ckptTmpSuffix)); ok {
			l.CkptTmps = append(l.CkptTmps, name)
		} else if shard, ok := parseShardDirName(name); ok {
			segs, err := listSegs(fsys, filepath.Join(dir, name))
			if err != nil {
				return l, err
			}
			l.Shards = append(l.Shards, ShardListing{Shard: shard, Name: name, Segs: segs})
		}
	}
	slices.Sort(l.Ckpts)
	slices.SortFunc(l.Shards, func(a, b ShardListing) int { return a.Shard - b.Shard })
	return l, nil
}

// Rels returns the slash-separated path, relative to the log directory, of
// every listed file — the form the shipping channel puts on the wire — in
// the channel's order: segments first, checkpoints after.
func (l DirListing) Rels() []string {
	var rels []string
	for _, sl := range l.Shards {
		for _, seg := range sl.Segs {
			rels = append(rels, sl.Name+"/"+seg)
		}
	}
	return append(rels, l.Ckpts...)
}

// listSegs returns one shard directory's segment names, ascending.
func listSegs(fsys fault.FS, shardDir string) ([]string, error) {
	names, err := readDirFS(fsys, shardDir)
	segs := names[:0]
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs = append(segs, name)
		}
	}
	slices.Sort(segs)
	return segs, err
}

func readDirFS(fsys fault.FS, dir string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if fault.NotExist(err) {
		return nil, nil
	}
	return names, err
}
