// Package frame owns the one checksummed framing every byte stream in this
// repository uses — WAL segment records on disk, wire requests and responses,
// ship-channel messages (little-endian, CRC-32C Castagnoli):
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// It is a stdlib-only leaf. What a payload means, and how large one may be,
// belongs to the format built on top: the cap is an argument of every
// decoder, checked before any allocation, so a corrupted or hostile length
// prefix can never drive a huge make.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the byte length of the len+crc prefix.
const HeaderSize = 8

// ErrCorrupt marks a frame whose length field exceeds the reader's cap or
// whose checksum mismatches; a stream is unusable past it, because nothing
// says where the next frame starts.
var ErrCorrupt = errors.New("frame: corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the frame checksum of p, for formats that carry the same
// CRC-32C outside a frame (the checkpoint footer).
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Append appends one framed payload to dst and returns the extended slice.
func Append(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// Begin reserves a frame header at the end of dst. The caller appends the
// payload straight onto the returned slice and then calls Finish with
// at = len(dst): one pass, no intermediate payload buffer.
func Begin(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Finish patches the header Begin reserved at offset at: everything after
// it in buf is the payload.
func Finish(buf []byte, at int) {
	payload := buf[at+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], Checksum(payload))
}

// Read reads one frame from r and returns its payload, reusing buf when it
// is large enough. io.EOF at a frame boundary is returned as-is (a clean
// close); a partial header or payload comes back as io.ErrUnexpectedEOF (a
// torn frame), and a length above max or a bad checksum as ErrCorrupt.
func Read(r io.Reader, buf []byte, max int) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // clean EOF stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, noEOF(err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > max {
		return nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, noEOF(err)
	}
	if Checksum(buf) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return buf, nil
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next decodes the frame at image[off:], a file image. ok=false means no
// valid frame starts there — the image ends (off == len(image): a clean
// boundary) or what follows is torn: a partial header, a length above max
// or past the end of the image, or a checksum mismatch. A file is valid
// only up to its first violation, so the caller stops at off either way.
// The payload aliases image.
func Next(image []byte, off, max int) (payload []byte, next int, ok bool) {
	if len(image)-off < HeaderSize {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(image[off:]))
	start := off + HeaderSize
	if n > max || len(image)-start < n {
		return nil, off, false
	}
	payload = image[start : start+n]
	if Checksum(payload) != binary.LittleEndian.Uint32(image[off+4:]) {
		return nil, off, false
	}
	return payload, start + n, true
}
