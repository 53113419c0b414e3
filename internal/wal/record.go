package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ds"
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
//	header:  8B magic "WALCKP01" | u32 version | u8 kind (1) | 3B pad
//	         | u64 frozenTs | u64 prevTs (0) | u64 pairCount
//	pairs:   pairCount × (u8 flag (1), u64 key, u64 val)
//	footer:  u32 crc32c(header[8:] ++ pairs)
//
// A checkpoint is the full image at frozenTs. Kind 2 with a non-zero prevTs
// was an incremental delta against the checkpoint at prevTs, and flag 2 a
// tombstone in one; nothing writes them any more and parseCheckpoint refuses
// a file that carries either.
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
	ckptPairSize   = 17

	ckptKindFull = 1
	ckptFlagPair = 1

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
// The records' ops share one growing backing array, so a follower's poll
// allocates per batch, not per record.
func decodeRecordsAt(data []byte, off int) (recs []record, validLen int, torn bool) {
	var ops []stm.RedoRec
	for {
		payload, next, ok := frame.Next(data, off, maxRecordPayload)
		if !ok {
			return recs, off, off != len(data)
		}
		var rec record
		if rec, ops, ok = parseRecord(payload, ops); !ok {
			return recs, off, true
		}
		recs = append(recs, rec)
		off = next
	}
}

// parseRecord decodes one record payload, appending its ops to ops; the
// record's redo is that appended run, capped so that an append to it cannot
// overwrite the next record's. A payload the checksum vouches for but that
// is not a record (short, op count disagreeing with its length, unknown op)
// is as torn as a bad checksum.
func parseRecord(payload []byte, ops []stm.RedoRec) (record, []stm.RedoRec, bool) {
	if len(payload) < recFixedSize {
		return record{}, ops, false
	}
	rec := record{
		ts:    binary.LittleEndian.Uint64(payload),
		trace: binary.LittleEndian.Uint64(payload[8:]),
	}
	n := int(binary.LittleEndian.Uint32(payload[16:]))
	if recFixedSize+opSize*n != len(payload) {
		return record{}, ops, false
	}
	start := len(ops)
	for i, p := 0, recFixedSize; i < n; i, p = i+1, p+opSize {
		op := stm.RedoOp(payload[p])
		if op != stm.RedoInsert && op != stm.RedoDelete {
			return record{}, ops[:start], false
		}
		ops = append(ops, stm.RedoRec{
			Op:  op,
			Key: binary.LittleEndian.Uint64(payload[p+1:]),
			Val: binary.LittleEndian.Uint64(payload[p+9:]),
		})
	}
	rec.redo = ops[start:len(ops):len(ops)]
	return rec, ops, true
}

// Checkpoint encoding, in the order Checkpoint drives it: beginCheckpoint
// once, appendCkptPair per visited pair, finishCheckpoint when the frozen ts
// is known. A scan that re-freezes starts over from beginCheckpoint(buf[:0]).

// beginCheckpoint appends a checkpoint header whose ts and pair count are
// still zero.
func beginCheckpoint(buf []byte) []byte {
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = append(buf, ckptKindFull, 0, 0, 0)
	return append(buf, make([]byte, ckptHeaderSize-16)...) // frozenTs, 0, pairCount
}

func appendCkptPair(buf []byte, key, val uint64) []byte {
	buf = append(buf, ckptFlagPair)
	buf = binary.LittleEndian.AppendUint64(buf, key)
	return binary.LittleEndian.AppendUint64(buf, val)
}

// finishCheckpoint patches ts and the pair count (what was appended since
// beginCheckpoint) into the header and appends the footer: buf is then a
// whole checkpoint file image.
func finishCheckpoint(buf []byte, ts uint64) []byte {
	binary.LittleEndian.PutUint64(buf[16:], ts)
	binary.LittleEndian.PutUint64(buf[32:], uint64((len(buf)-ckptHeaderSize)/ckptPairSize))
	return binary.LittleEndian.AppendUint32(buf, frame.Checksum(buf[8:]))
}

// errTornCkpt marks a checkpoint image that is damaged — short, or failing
// its checksum: the one verdict recovery may answer by deleting the file and
// a tailer by passing it over.
var errTornCkpt = errors.New("torn checkpoint")

// parseCheckpoint validates one checkpoint file image and returns its frozen
// ts and pairs. Any framing or checksum violation makes the whole file torn
// (errTornCkpt) — unlike a segment, a checkpoint is one atomic unit. An image
// the checksum vouches for that is not a full image (an incremental delta of
// an earlier format: see the layout comment) is not damage, and its error
// does not say so: treating it as torn would delete it, skipping it would
// recover the older state it was a delta against. Reading the file
// is the caller's job: a *read* error is the disk failing now, not crash
// damage, and must not be conflated with a parse failure.
func parseCheckpoint(path string, data []byte) (ts uint64, pairs []ds.KV, err error) {
	if len(data) < ckptHeaderSize+4 || string(data[:8]) != ckptMagic ||
		binary.LittleEndian.Uint32(data[8:12]) != formatVersion {
		return 0, nil, fmt.Errorf("wal: %s: bad checkpoint header: %w", path, errTornCkpt)
	}
	count := binary.LittleEndian.Uint64(data[32:])
	if count > maxRecordPayload || len(data) != ckptHeaderSize+ckptPairSize*int(count)+4 {
		return 0, nil, fmt.Errorf("wal: %s: truncated checkpoint: %w", path, errTornCkpt)
	}
	if frame.Checksum(data[8:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, nil, fmt.Errorf("wal: %s: checkpoint checksum mismatch: %w", path, errTornCkpt)
	}
	// kind is read with its pad bytes, so what parses re-encodes to itself.
	kind, prevTs, foreign := binary.LittleEndian.Uint32(data[12:]), binary.LittleEndian.Uint64(data[24:]), 0
	pairs = make([]ds.KV, count)
	for i, p := 0, ckptHeaderSize; i < len(pairs); i, p = i+1, p+ckptPairSize {
		if data[p] != ckptFlagPair {
			foreign++
		}
		pairs[i] = ds.KV{Key: binary.LittleEndian.Uint64(data[p+1:]), Val: binary.LittleEndian.Uint64(data[p+9:])}
	}
	if kind != ckptKindFull || prevTs != 0 || foreign != 0 {
		return 0, nil, fmt.Errorf("wal: %s: not a full checkpoint image (kind %#x, prevTs %d, %d entries that are not pairs): an incremental delta of an earlier format is not read back",
			path, kind, prevTs, foreign)
	}
	return binary.LittleEndian.Uint64(data[16:]), pairs, nil
}
