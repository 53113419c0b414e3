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

// Reader decodes a stream of frames through a buffer, for a peer that
// pipelines: one Read on the stream yields every frame already received, and
// a payload is a slice of the buffer — no allocation per frame, no copy.
type Reader struct {
	src  io.Reader
	max  int
	buf  []byte
	r, w int // buf[r:w] is read from src and not yet returned
}

// readerSize is a Reader's resting buffer: a few dozen small frames. A frame
// that does not fit grows the buffer for as long as it is in it.
const readerSize = 4 << 10

// NewReader returns a Reader of frames of at most max payload bytes from r.
func NewReader(r io.Reader, max int) *Reader {
	return &Reader{src: r, max: max, buf: make([]byte, readerSize)}
}

// Next returns the next frame's payload, reading from the stream only if the
// frame is not yet complete in the buffer. The payload is valid until the
// following call. Errors are Read's: io.EOF at a frame boundary,
// io.ErrUnexpectedEOF inside a frame, ErrCorrupt for a length above the cap
// (checked before the buffer grows) or a bad checksum.
func (fr *Reader) Next() ([]byte, error) {
	if err := fr.fill(HeaderSize); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.buf[fr.r:]))
	if n > fr.max {
		return nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if err := fr.fill(HeaderSize + n); err != nil {
		return nil, err
	}
	sum := binary.LittleEndian.Uint32(fr.buf[fr.r+4:])
	payload := fr.buf[fr.r+HeaderSize : fr.r+HeaderSize+n]
	fr.r += HeaderSize + n
	if Checksum(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Buffered reports whether Next can answer from the buffer alone: a whole
// frame is there (or a header that Next will reject). A half-received frame
// is not — the caller can do something else first, like answering the frames
// before it, instead of blocking on the rest.
func (fr *Reader) Buffered() bool {
	have := fr.w - fr.r
	if have < HeaderSize {
		return false
	}
	n := int(binary.LittleEndian.Uint32(fr.buf[fr.r:]))
	return n > fr.max || have >= HeaderSize+n
}

// fill reads until need bytes are buffered.
func (fr *Reader) fill(need int) error {
	if fr.w-fr.r >= need {
		return nil
	}
	// Make room at the front; what moves is less than one frame.
	switch {
	case need > len(fr.buf):
		grown := make([]byte, need)
		fr.w = copy(grown, fr.buf[fr.r:fr.w])
		fr.buf, fr.r = grown, 0
	case fr.r == fr.w && len(fr.buf) > readerSize && need <= readerSize:
		fr.buf, fr.r, fr.w = make([]byte, readerSize), 0, 0 // the big frame is gone
	case fr.r > 0:
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	for fr.w < need {
		n, err := fr.src.Read(fr.buf[fr.w:])
		fr.w += n
		switch {
		case fr.w >= need:
			return nil // a sticky error comes back on the next Read
		case err == io.EOF && fr.w > 0:
			return io.ErrUnexpectedEOF
		case err != nil:
			return err
		}
	}
	return nil
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
