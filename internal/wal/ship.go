package wal

import (
	"errors"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/stm"
)

// ShipReader tails a live leader's log directory for replication: it reads
// the newest checkpoint as a base image — at the first poll, and again
// whenever the directory lists a newer one — then follows each shard
// stream's segments record by record, tolerating the races a live leader
// creates — segments growing under the read, rotations, seal truncations
// (whose cut suffix the stream re-appends to the successor segment), and
// checkpoint truncation deleting a segment out from under the tail.
//
// The reader is strictly read-only: unlike recovery it never truncates,
// repairs, or deletes anything — the leader owns the directory. It needs no
// cooperation from the leader process at all; pointing it at a directory a
// leader is actively writing (same machine or a replicated mount) is the
// supported mode, and the shipping channel in internal/replica reproduces
// the same directory shape remotely byte for byte.
//
// Consistency contract: applying a rebase image (replacing all prior state)
// and then every subsequent record with ts >= BaseTs, each record's ops in
// order, reproduces exactly the leader states recovery would reproduce — a
// prefix-consistent cut per shard stream. That holds because the streams of
// a directory a live leader writes partition the key space (package comment;
// OpenWith restores it after a reshard): Poll returns streams one after the
// other, not merged by timestamp, so it never orders two records of one key
// against each other across streams. Duplicate delivery of a
// contiguous record suffix (a seal race re-appending bytes the tail already
// consumed) is harmless: redo ops are absolute per key, so re-applying a
// suffix in order is idempotent.
type ShipReader struct {
	dir string
	fs  fault.FS

	baseTs  uint64            // frozen ts of the last rebase image
	tails   map[int]*shipTail // nil: no base held yet, the next Poll takes one
	rebases uint64            // base images emitted (1: just the initial one)
}

// shipPos is one shard directory's read position.
type shipPos struct {
	picked   bool   // a segment has been picked (segment indexes start at 0)
	segIdx   uint64 // segment currently tailed (valid when picked)
	consumed int    // byte offset of the first unconsumed record (0: header unvalidated)
}

// shipTail is a shard's live position plus the one the current Poll started
// from, which a failed Poll puts back.
type shipTail struct {
	shipPos
	polled shipPos
}

// ShipRec is one shipped commit record.
type ShipRec struct {
	Shard int
	Ts    uint64
	Trace uint64 // sampled trace id from the record header (0 = untraced)
	Redo  []stm.RedoRec
}

// ShipBatch is one Poll's worth of progress. A Rebase batch carries a base
// image that replaces all previously shipped state (first poll, and
// whenever a newer checkpoint shows up or a checkpoint truncation
// outran the tail); otherwise Recs holds the new suffix records in
// per-stream order.
type ShipBatch struct {
	Rebase bool
	Image  map[uint64]uint64 // valid when Rebase
	BaseTs uint64            // frozen ts the image is pinned at (Rebase)
	Recs   []ShipRec
}

// OpenShipReader builds a tailer over dir. fsys nil means the real
// filesystem; an Injector here fault-tests the reading side.
func OpenShipReader(dir string, fsys fault.FS) *ShipReader {
	if fsys == nil {
		fsys = fault.OS
	}
	return &ShipReader{dir: dir, fs: fsys}
}

// Poll makes one pass over the leader directory and returns whatever is new
// since the last call. An empty batch means nothing new — the caller should
// back off briefly. An error leaves the read position unchanged; the next
// Poll retries it.
func (r *ShipReader) Poll() (ShipBatch, error) {
	var b ShipBatch
	ls, err := ListDir(r.fs, r.dir)
	if err != nil {
		return ShipBatch{}, err
	}
	// A listed checkpoint above the base (or no base yet): rebase onto the
	// newest one that parses. The tails alone cannot tell that they need it —
	// a mirror being filled for the first time has its segments before its
	// checkpoints, so an earlier poll may have taken a base below records the
	// leader already truncated, and no tailed segment will ever vanish to say
	// so. A checkpoint that does not parse (half received, or torn) is read
	// again each poll while it is listed.
	image, baseTs, err := r.loadCheckpoint(ls.Ckpts)
	if err != nil {
		return ShipBatch{}, err
	}
	if image != nil {
		r.baseTs = baseTs
		r.rebases++
		r.tails = map[int]*shipTail{}
		return ShipBatch{Rebase: true, Image: image, BaseTs: baseTs}, nil
	}
	for _, t := range r.tails {
		t.polled = t.shipPos
	}
	for _, sl := range ls.Shards {
		t := r.tails[sl.Shard]
		if t == nil {
			t = &shipTail{}
			r.tails[sl.Shard] = t
		}
		recs, lost, err := r.pollTail(sl, t)
		if err != nil {
			// Tails advance in place as they read, so the records collected
			// this poll — from earlier shards, or from this one's earlier
			// segments — lie behind them; rewind every tail or they are
			// never shipped.
			for _, t := range r.tails {
				t.shipPos = t.polled
			}
			return ShipBatch{}, err
		}
		if lost {
			// The tailed segment vanished (checkpoint truncation won the
			// race). Everything already emitted is covered by the new
			// checkpoint; start over from it — and from a listing
			// taken now, the one above may predate the checkpoint: forget
			// the base and poll again. Records collected from other tails
			// this poll are discarded — the rebase resets every tail, so
			// they are re-read and re-emitted after it.
			r.tails = nil
			return r.Poll()
		}
		b.Recs = append(b.Recs, recs...)
	}
	return b, nil
}

// loadCheckpoint returns the base a poll should rebase onto, nil if it should
// not: the newest listed checkpoint above the base held that parses — names
// carry the ts, so nothing at or below the base is opened — or, with no base
// held, the newest that parses at all, else the empty image at ts 0. It reads
// the way a tailer must: damaged files are passed over, never removed — a live
// leader writes checkpoints by atomic rename, so one here is stale crash
// damage that the leader's own recovery owns, or a file the shipping channel
// is still filling; one deleted mid-read (NotExist) is a pruned predecessor.
func (r *ShipReader) loadCheckpoint(ckpts []string) (map[uint64]uint64, uint64, error) {
	for i := len(ckpts) - 1; i >= 0; i-- {
		if ts, _ := parseCkptName(ckpts[i]); r.tails != nil && ts <= r.baseTs {
			break
		}
		p := filepath.Join(r.dir, ckpts[i])
		data, err := r.fs.ReadFile(p)
		if fault.NotExist(err) {
			continue
		} else if err != nil {
			return nil, 0, err
		}
		ts, pairs, err := parseCheckpoint(p, data)
		if errors.Is(err, errTornCkpt) {
			continue
		} else if err != nil {
			return nil, 0, err
		}
		return imageOf(pairs), ts, nil
	}
	if r.tails != nil {
		return nil, 0, nil
	}
	return map[uint64]uint64{}, 0, nil
}

// pollTail advances one shard tail as far as it can go right now. lost
// reports that the tailed segment was deleted under us with records
// consumed from it — only a checkpoint truncation does that, so the caller
// must rebase.
func (r *ShipReader) pollTail(sl ShardListing, t *shipTail) (out []ShipRec, lost bool, err error) {
	sd := filepath.Join(r.dir, sl.Name)
	// The first pass works from the caller's listing; advancing to a
	// successor re-lists, so every read below follows a listing of its own.
	for segs := sl.Segs; ; {
		if segs == nil {
			if segs, err = listSegs(r.fs, sd); err != nil {
				return out, false, err
			}
		}
		if !t.picked {
			if len(segs) == 0 {
				return out, false, nil // stream not started yet
			}
			t.picked, t.consumed = true, 0
			t.segIdx, _ = parseSegName(segs[0])
		}
		// Snapshot the successor BEFORE reading: if one exists now, the
		// tailed segment was sealed before the read, so the read sees its
		// final contents (a pending seal truncation can only shrink it,
		// which the next poll detects as consumed > len).
		succ, haveSucc, present := uint64(0), false, false
		for _, name := range segs {
			idx, _ := parseSegName(name)
			if idx == t.segIdx {
				present = true
			}
			if idx > t.segIdx && (!haveSucc || idx < succ) {
				succ, haveSucc = idx, true
			}
		}
		advance := func() bool {
			if !haveSucc {
				return false
			}
			t.segIdx = succ
			t.consumed = 0
			segs = nil // re-list before reading the successor
			return true
		}
		missing := !present
		var data []byte
		if present {
			data, err = r.fs.ReadFile(segPath(sd, t.segIdx))
			if fault.NotExist(err) {
				missing, err = true, nil
			} else if err != nil {
				return out, false, err
			}
		}
		if missing {
			// The segment vanished. Whether a checkpoint truncated it (its
			// records live only in the new checkpoint now) or a seal
			// dropped it empty, rebasing from the checkpoint is correct — and
			// it is the only safe answer for a segment we hadn't finished
			// reading.
			return out, true, nil
		}
		if t.consumed == 0 {
			if !validSegHeader(data) {
				// Header mid-write (or a squatter the leader is about to
				// evict): a sealed predecessor never looks like this, so if
				// a successor exists this file is dead weight — skip it.
				if advance() {
					continue
				}
				return out, false, nil
			}
			t.consumed = segHeaderSize
		}
		if len(data) < t.consumed {
			// Seal truncation cut below our position; the cut suffix is
			// re-appended at the front of the successor (duplicates of what
			// we already emitted — idempotent; see type comment).
			if advance() {
				continue
			}
			return out, false, nil
		}
		recs, validLen, _ := decodeRecordsAt(data, t.consumed)
		t.consumed = validLen
		for _, rec := range recs {
			if rec.ts < r.baseTs {
				continue // already inside the base image
			}
			out = append(out, ShipRec{Shard: sl.Shard, Ts: rec.ts, Trace: rec.trace, Redo: rec.redo})
		}
		// Anything past validLen is a torn tail: on a sealed segment
		// (successor exists) it is about to be truncated and re-appended to
		// the successor; on the active segment it is a write in flight —
		// wait. Either way the valid prefix stands, so advance if sealed.
		if advance() {
			continue
		}
		return out, false, nil
	}
}
