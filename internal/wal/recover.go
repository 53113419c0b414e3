package wal

import (
	"errors"
	"path/filepath"
	"sort"

	"repro/internal/ds"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/stm"
)

// recovered is everything scanAndRepair learns from a log directory.
type recovered struct {
	image    map[uint64]uint64 // checkpoint + replayed suffix
	ckptTs   uint64            // ts of the checkpoint loaded (0: none)
	maxTs    uint64            // highest ts seen anywhere (clock restart point)
	nextSeg  map[string]uint64 // per shard-dir: next free segment index
	ckpts    []string          // the checkpoint loaded and the unread older ones beside it
	liveSegs []segInfo         // surviving segments (for later truncation)
	// resharded: some surviving record sits in a stream other than the one
	// its keys route to under the shard count being opened — the directory
	// was last written under another layout.
	resharded bool
}

// scanAndRepair reads a log directory into the recovered state a fresh
// system should be loaded with, repairing crash damage as it goes:
//
//   - The checkpoint base is the newest listed checkpoint that parses; the
//     listing is read newest first and no further than that one. A torn
//     checkpoint file passed on the way is deleted. One that checksums but is
//     not a full image fails the open before anything is repaired.
//   - Each shard stream contributes its longest valid prefix of records: a
//     torn or corrupt record truncates its segment at the last valid byte
//     and removes every later segment of that stream, so the next recovery
//     replays the identical state (idempotent re-replay).
//   - Records with ts >= the checkpoint ts are replayed onto the base in
//     stable commit-ts order (records below it are already inside the
//     checkpoint — the snapshot at ts observes exactly the commits below ts).
//
// Repair is reserved for *structural* damage a crash explains (torn tails,
// orphaned temp files). An I/O error reading a file is not damage — it is
// the disk failing right now — and propagates as a hard error: silently
// "repairing" an unreadable file would destroy data a healthy retry could
// still read.
func scanAndRepair(fsys fault.FS, dir string, shards int) (*recovered, error) {
	r := &recovered{nextSeg: make(map[string]uint64)}
	ls, err := ListDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	if err := r.loadCheckpoint(fsys, dir, ls); err != nil {
		return nil, err
	}
	replay, err := r.loadSegments(fsys, dir, ls.Shards, shards)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(replay, func(i, j int) bool { return replay[i].ts < replay[j].ts })
	for _, rec := range replay {
		applyRedo(r.image, rec.redo)
	}
	if r.ckptTs > r.maxTs {
		r.maxTs = r.ckptTs
	}
	return r, nil
}

func applyRedo(image map[uint64]uint64, redo []stm.RedoRec) {
	for _, op := range redo {
		switch op.Op {
		case stm.RedoInsert:
			image[op.Key] = op.Val
		case stm.RedoDelete:
			delete(image, op.Key)
		}
	}
}

// imageOf is a parsed checkpoint as the map recovery replays onto and a
// rebase carries.
func imageOf(pairs []ds.KV) map[uint64]uint64 {
	image := make(map[uint64]uint64, len(pairs))
	for _, kv := range pairs {
		image[kv.Key] = kv.Val
	}
	return image
}

func (r *recovered) loadCheckpoint(fsys fault.FS, dir string, ls DirListing) error {
	r.image = map[uint64]uint64{}
	// Orphaned temp files of a crash mid-checkpoint, and the torn files found
	// below: removed once a base is settled, not before a refusal.
	damaged := ls.CkptTmps
	for i := len(ls.Ckpts) - 1; i >= 0; i-- {
		p := filepath.Join(dir, ls.Ckpts[i])
		data, err := fsys.ReadFile(p)
		if err != nil {
			// Unreadable ≠ torn: fail the whole recovery (see scanAndRepair).
			return err
		}
		ts, pairs, err := parseCheckpoint(p, data)
		if errors.Is(err, errTornCkpt) {
			// Torn or rotted: unusable by construction; remove it so it
			// cannot shadow a later, valid checkpoint at the next scan.
			damaged = append(damaged, ls.Ckpts[i])
			continue
		}
		if err != nil {
			return err
		}
		r.image, r.ckptTs = imageOf(pairs), ts
		for _, name := range ls.Ckpts[:i+1] {
			r.ckpts = append(r.ckpts, filepath.Join(dir, name))
		}
		break
	}
	for _, name := range damaged {
		fsys.Remove(filepath.Join(dir, name))
	}
	return nil
}

// loadSegments walks every listed shard directory (streams of *any*
// previous shard count — records route by key, so a reopened system may
// reshard, which resharded reports) and returns the records to replay.
func (r *recovered) loadSegments(fsys fault.FS, dir string, found []ShardListing, shards int) ([]record, error) {
	var replay []record
	for _, sl := range found {
		sd := filepath.Join(dir, sl.Name)
		r.nextSeg[sd] = 1
		broken := false
		for _, name := range sl.Segs {
			path := filepath.Join(sd, name)
			idx, _ := parseSegName(name)
			r.nextSeg[sd] = idx + 1 // ascending
			if broken {
				// A record after this stream's torn point may depend on
				// a lost predecessor; the whole suffix is dead. Removing
				// it keeps the on-disk stream equal to the recovered
				// prefix, so the next crash replays the same state.
				fsys.Remove(path)
				continue
			}
			data, err := fsys.ReadFile(path)
			if err != nil {
				// Unreadable ≠ torn: fail the whole recovery rather than
				// truncate away data a healthy retry could still read.
				return nil, err
			}
			recs, validLen, torn := decodeRecords(data)
			if torn {
				broken = true
				if len(recs) == 0 && validLen <= segHeaderSize {
					fsys.Remove(path)
				} else if err := fsys.Truncate(path, int64(validLen)); err != nil {
					return nil, err
				}
			}
			if len(recs) == 0 {
				continue
			}
			var segMax uint64
			for _, rec := range recs {
				if rec.ts > segMax {
					segMax = rec.ts
				}
				if rec.ts > r.maxTs {
					r.maxTs = rec.ts
				}
				if rec.ts >= r.ckptTs {
					replay = append(replay, rec)
				}
				for _, op := range rec.redo {
					if shard.Of(op.Key, shards) != sl.Shard {
						r.resharded = true
					}
				}
			}
			r.liveSegs = append(r.liveSegs, segInfo{index: idx, path: path, maxTs: segMax})
		}
	}
	return replay, nil
}
