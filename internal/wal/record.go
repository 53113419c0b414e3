package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
	"repro/internal/stm"
)

// On-disk formats (file naming is layout.go's). All integers are
// little-endian.
//
// Segment file:
//
//	header:  8B magic "WALSEG01" | u32 version | u32 shard
//	record:  one internal/frame frame of at most maxRecordPayload bytes
//	payload: u64 commitTs | u64 traceId | u32 opCount
//	         | opCount × (u8 op, u64 key, u64 val)
//
// traceId (format v2) is the commit's sampled trace id, 0 for the untraced
// overwhelming majority; it rides the record so the shipping channel and a
// follower's replay can attribute replica-apply latency to the originating
// request. Version 1 images (no traceId) predate the first release and are
// not read back — recovery treats them like any other unrecognized header.
//
// Checkpoint file:
//
//	header:  8B magic "WALCKP01" | u32 version | u8 kind (1 full, 2 incr)
//	         | 3B pad | u64 frozenTs | u64 prevTs | u64 entryCount
//	entries: entryCount × (u8 flag (1 pair, 2 tombstone), u64 key, u64 val)
//	footer:  u32 crc32c(header[8:] ++ entries)
//
// prevTs names the checkpoint an incremental delta was diffed against
// (0 for full checkpoints): recovery applies an increment only onto the
// exact state it was computed from, so a gap in the chain — however it
// arose — can never be silently skipped over.
//
// Both files are valid only up to the first framing or checksum violation: a
// torn record (crash mid-write) or a flipped bit invalidates that record and
// everything after it in the file, never anything before it.

const (
	segMagic  = "WALSEG01"
	ckptMagic = "WALCKP01"

	formatVersion = 2

	segHeaderSize  = 16
	recFixedSize   = 20 // ts + traceId + opCount
	opSize         = 17
	ckptHeaderSize = 40
	ckptEntrySize  = 17

	ckptKindFull = 1
	ckptKindIncr = 2

	// maxRecordPayload rejects absurd length prefixes (a corrupted length
	// field must not drive a huge allocation).
	maxRecordPayload = 1 << 28
)

// record is one decoded WAL record: the commit timestamp and the logical
// redo of one committed transaction.
type record struct {
	ts    uint64
	trace uint64
	redo  []stm.RedoRec
}

// appendSegHeader appends a segment header for the given shard stream.
func appendSegHeader(buf []byte, shard int) []byte {
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	return buf
}

// appendRecord appends one framed, checksummed record, encoded in place on
// the stream buffer (this runs inside the commit critical section).
func appendRecord(buf []byte, ts, trace uint64, redo []stm.RedoRec) []byte {
	at := len(buf)
	buf = frame.Begin(buf)
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	buf = binary.LittleEndian.AppendUint64(buf, trace)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(redo)))
	for _, r := range redo {
		buf = append(buf, byte(r.Op))
		buf = binary.LittleEndian.AppendUint64(buf, r.Key)
		buf = binary.LittleEndian.AppendUint64(buf, r.Val)
	}
	frame.Finish(buf, at)
	return buf
}

// decodeRecords parses data (a segment file image) into its longest valid
// prefix of records. validLen is the byte length of that prefix (including
// the header); torn reports that something followed it — a partial or
// corrupt record, which recovery truncates away.
func decodeRecords(data []byte) (recs []record, validLen int, torn bool) {
	if !validSegHeader(data) {
		// Unrecognizable header: nothing in the file is trustworthy.
		return nil, 0, len(data) > 0
	}
	return decodeRecordsAt(data, segHeaderSize)
}

// validSegHeader reports whether data starts with a complete, recognized
// segment header.
func validSegHeader(data []byte) bool {
	return len(data) >= segHeaderSize && string(data[:8]) == segMagic &&
		binary.LittleEndian.Uint32(data[8:12]) == formatVersion
}

// decodeRecordsAt parses records starting at byte offset off — which must be
// a record boundary of an already-validated segment image — letting a tailer
// resume where its last poll stopped instead of re-decoding the whole file.
func decodeRecordsAt(data []byte, off int) (recs []record, validLen int, torn bool) {
	for {
		payload, next, ok := frame.Next(data, off, maxRecordPayload)
		if !ok {
			return recs, off, off != len(data)
		}
		rec, ok := parseRecord(payload)
		if !ok {
			return recs, off, true
		}
		recs = append(recs, rec)
		off = next
	}
}

// parseRecord decodes one record payload; a payload the checksum vouches
// for but that is not a record (short, op count disagreeing with its
// length, unknown op) is as torn as a bad checksum.
func parseRecord(payload []byte) (record, bool) {
	if len(payload) < recFixedSize {
		return record{}, false
	}
	rec := record{
		ts:    binary.LittleEndian.Uint64(payload),
		trace: binary.LittleEndian.Uint64(payload[8:]),
	}
	n := int(binary.LittleEndian.Uint32(payload[16:]))
	if recFixedSize+opSize*n != len(payload) {
		return record{}, false
	}
	rec.redo = make([]stm.RedoRec, n)
	for i, p := 0, recFixedSize; i < n; i, p = i+1, p+opSize {
		op := stm.RedoOp(payload[p])
		if op != stm.RedoInsert && op != stm.RedoDelete {
			return record{}, false
		}
		rec.redo[i] = stm.RedoRec{
			Op:  op,
			Key: binary.LittleEndian.Uint64(payload[p+1:]),
			Val: binary.LittleEndian.Uint64(payload[p+9:]),
		}
	}
	return rec, true
}

// ckptEntry is one checkpoint delta: a live pair, or a tombstone for a key
// deleted since the previous checkpoint (incremental checkpoints only).
type ckptEntry struct {
	key, val uint64
	tomb     bool
}

// encodeCheckpoint renders a whole checkpoint file image. prevTs is the
// base the entries were diffed against (0 for a full checkpoint).
func encodeCheckpoint(ts, prevTs uint64, full bool, entries []ckptEntry) []byte {
	buf := make([]byte, 0, ckptHeaderSize+ckptEntrySize*len(entries)+4)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	kind := byte(ckptKindIncr)
	if full {
		kind = ckptKindFull
		prevTs = 0
	}
	buf = append(buf, kind, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	buf = binary.LittleEndian.AppendUint64(buf, prevTs)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(entries)))
	for _, e := range entries {
		flag := byte(1)
		if e.tomb {
			flag = 2
		}
		buf = append(buf, flag)
		buf = binary.LittleEndian.AppendUint64(buf, e.key)
		buf = binary.LittleEndian.AppendUint64(buf, e.val)
	}
	return binary.LittleEndian.AppendUint32(buf, frame.Checksum(buf[8:]))
}

// parsedCkpt is one validated checkpoint file.
type parsedCkpt struct {
	ts, prevTs uint64
	full       bool
	entries    []ckptEntry
}

// parseCheckpoint validates one checkpoint file image. Any framing or
// checksum violation makes the whole file invalid — unlike a segment, a
// checkpoint is one atomic unit (its deltas are meaningless truncated).
// Reading the file is the caller's job: a *read* error is the disk failing
// now, not crash damage, and must not be conflated with a parse failure.
func parseCheckpoint(path string, data []byte) (c parsedCkpt, err error) {
	if len(data) < ckptHeaderSize+4 || string(data[:8]) != ckptMagic ||
		binary.LittleEndian.Uint32(data[8:12]) != formatVersion {
		return c, fmt.Errorf("wal: %s: bad checkpoint header", path)
	}
	kind := data[12]
	if kind != ckptKindFull && kind != ckptKindIncr {
		return c, fmt.Errorf("wal: %s: bad checkpoint kind %d", path, kind)
	}
	c.ts = binary.LittleEndian.Uint64(data[16:])
	c.prevTs = binary.LittleEndian.Uint64(data[24:])
	c.full = kind == ckptKindFull
	count := binary.LittleEndian.Uint64(data[32:])
	if count > maxRecordPayload || len(data) != ckptHeaderSize+ckptEntrySize*int(count)+4 {
		return c, fmt.Errorf("wal: %s: truncated checkpoint", path)
	}
	body := data[:len(data)-4]
	if frame.Checksum(body[8:]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return c, fmt.Errorf("wal: %s: checkpoint checksum mismatch", path)
	}
	c.entries = make([]ckptEntry, count)
	p := ckptHeaderSize
	for i := range c.entries {
		flag := data[p]
		if flag != 1 && flag != 2 {
			return c, fmt.Errorf("wal: %s: bad checkpoint entry flag %d", path, flag)
		}
		c.entries[i] = ckptEntry{
			key:  binary.LittleEndian.Uint64(data[p+1:]),
			val:  binary.LittleEndian.Uint64(data[p+9:]),
			tomb: flag == 2,
		}
		p += ckptEntrySize
	}
	return c, nil
}

// resolveChain folds valid checkpoints, in ascending ts order, into the
// image they describe and the ts it is frozen at: the newest full
// checkpoint, then every later increment whose prevTs chains exactly onto
// the one before it. The first gap ends the chain — nothing after it is
// applicable. No full checkpoint (the first ever is always full, so: none
// at all, or a destroyed one) resolves to the empty image at ts 0.
func resolveChain(cks []parsedCkpt) (image map[uint64]uint64, baseTs uint64) {
	image = make(map[uint64]uint64)
	lastFull := -1
	for i, c := range cks {
		if c.full {
			lastFull = i
		}
	}
	if lastFull < 0 {
		return image, 0
	}
	for _, c := range cks[lastFull:] {
		if !c.full && c.prevTs != baseTs {
			break
		}
		for _, e := range c.entries {
			if e.tomb {
				delete(image, e.key)
			} else {
				image[e.key] = e.val
			}
		}
		baseTs = c.ts
	}
	return image, baseTs
}
