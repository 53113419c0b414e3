package frame

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

// TestGoldenBytes pins the frame encoding to hex produced before this
// package existed (by wire.AppendFrame and wal's appendRecord framing).
func TestGoldenBytes(t *testing.T) {
	const want = "0a00000088ee112b6d756c74697665727365"
	if got := hex.EncodeToString(Append(nil, []byte("multiverse"))); got != want {
		t.Fatalf("Append: %s want %s", got, want)
	}
	buf := append(Begin([]byte("prefix")), "multiverse"...)
	Finish(buf, len("prefix"))
	if got := hex.EncodeToString(buf[len("prefix"):]); got != want {
		t.Fatalf("Begin/Finish: %s want %s", got, want)
	}
}

func TestReadErrors(t *testing.T) {
	payload := []byte("some payload")
	fr := Append(nil, payload)

	// Intact frame round-trips, reusing the caller's buffer.
	buf := make([]byte, 0, 64)
	got, err := Read(bytes.NewReader(fr), buf, 64)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact frame: err=%v", err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("Read allocated although buf was large enough")
	}
	// An empty stream is a clean io.EOF; any proper prefix is torn.
	if _, err := Read(bytes.NewReader(nil), nil, 64); err != io.EOF {
		t.Fatalf("empty stream err = %v, want io.EOF", err)
	}
	for cut := 1; cut < len(fr); cut++ {
		if _, err := Read(bytes.NewReader(fr[:cut]), nil, 64); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// Checksum and cap violations are ErrCorrupt; the cap is the caller's.
	bad := append([]byte(nil), fr...)
	bad[len(bad)-1] ^= 0xff
	if _, err := Read(bytes.NewReader(bad), nil, 64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload err = %v, want ErrCorrupt", err)
	}
	if _, err := Read(bytes.NewReader(fr), nil, len(payload)-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-cap length err = %v, want ErrCorrupt", err)
	}
	if _, err := Read(bytes.NewReader(fr), nil, len(payload)); err != nil {
		t.Fatalf("at-cap length err = %v", err)
	}
}

// TestNextStopsAtFirstViolation: over a file image, every cut and every
// flipped bit leaves exactly the frames before it decodable.
func TestNextStopsAtFirstViolation(t *testing.T) {
	payloads := [][]byte{[]byte("a"), {}, []byte("third frame")}
	var image []byte
	var bounds []int
	for _, p := range payloads {
		image = Append(image, p)
		bounds = append(bounds, len(image))
	}
	count := func(img []byte) (n, off int) {
		for {
			_, next, ok := Next(img, off, 64)
			if !ok {
				return n, off
			}
			n, off = n+1, next
		}
	}
	if n, off := count(image); n != len(payloads) || off != len(image) {
		t.Fatalf("clean image: %d frames, stopped at %d/%d", n, off, len(image))
	}
	for cut := 0; cut < len(image); cut++ {
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		n, off := count(image[:cut])
		if n != want || (want > 0 && off != bounds[want-1]) || (want == 0 && off != 0) {
			t.Fatalf("cut=%d: %d frames stopping at %d, want %d", cut, n, off, want)
		}
	}
	flip := append([]byte(nil), image...)
	flip[bounds[0]+HeaderSize-1] ^= 1 // second frame's crc
	if n, off := count(flip); n != 1 || off != bounds[0] {
		t.Fatalf("flipped crc: %d frames stopping at %d", n, off)
	}
	if _, _, ok := Next(image, bounds[1], len(payloads[2])-1); ok {
		t.Fatal("Next accepted a frame over its cap")
	}
}

// FuzzReadNext: over arbitrary bytes, Read on a stream, a Reader over the
// same stream delivered in small pieces, and Next on the same bytes as an
// image agree frame for frame and stop at the same offset with the same
// error, and none returns a payload above the cap (Read and Reader allocate
// only after the cap check, so that also bounds their allocation).
func FuzzReadNext(f *testing.F) {
	f.Add([]byte{}, uint16(16))
	f.Add(Append(Append(nil, []byte("one")), []byte("two")), uint16(16))
	f.Add(Append(nil, bytes.Repeat([]byte{7}, 40)), uint16(16))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint16(16))
	f.Fuzz(func(t *testing.T, data []byte, capArg uint16) {
		max := int(capArg)
		r := bytes.NewReader(data)
		buffered := NewReader(&pieces{data: data, n: 1 + len(data)%5}, max)
		off := 0
		for {
			fromStream, err := Read(r, nil, max)
			fromBuffer, berr := buffered.Next()
			if !bytes.Equal(fromBuffer, fromStream) || !sameError(berr, err) {
				t.Fatalf("at %d: Reader gives %d bytes, err=%v; Read gives %d bytes, err=%v",
					off, len(fromBuffer), berr, len(fromStream), err)
			}
			fromImage, next, ok := Next(data, off, max)
			if (err == nil) != ok {
				t.Fatalf("at %d: Read err=%v but Next ok=%v", off, err, ok)
			}
			if !ok {
				if (err == io.EOF) != (off == len(data)) {
					t.Fatalf("at %d/%d: Read err=%v disagrees with the image end", off, len(data), err)
				}
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("at %d: unexpected error %v", off, err)
				}
				return
			}
			if !bytes.Equal(fromStream, fromImage) || len(fromStream) > max {
				t.Fatalf("at %d: payloads differ or exceed cap %d (%d vs %d bytes)", off, max, len(fromStream), len(fromImage))
			}
			off = next
		}
	})
}

// pieces is a stream that hands out at most n bytes per Read.
type pieces struct {
	data []byte
	n    int
}

func (p *pieces) Read(b []byte) (int, error) {
	if len(p.data) == 0 {
		return 0, io.EOF
	}
	n := copy(b[:min(len(b), p.n)], p.data)
	p.data = p.data[n:]
	return n, nil
}

// sameError: the bare EOFs match exactly, ErrCorrupt by class.
func sameError(a, b error) bool {
	if errors.Is(a, ErrCorrupt) || errors.Is(b, ErrCorrupt) {
		return errors.Is(a, ErrCorrupt) && errors.Is(b, ErrCorrupt)
	}
	return a == b
}

// TestReaderRuns pins what the server's run loop leans on: one Read on the
// stream yields every frame in it, Buffered says whether the next one is
// whole — a half-received frame is not, and does not hide the ones before it
// — payloads alias the buffer, and an oversized frame grows the buffer only
// while it is in it.
func TestReaderRuns(t *testing.T) {
	var stream []byte
	for _, p := range []string{"a", "bb", "ccc"} {
		stream = Append(stream, []byte(p))
	}
	half := len(stream) - 2 // "ccc" is cut short
	src := &countingReader{chunks: [][]byte{stream[:half], stream[half:]}}
	fr := NewReader(src, 1<<20)
	if fr.Buffered() {
		t.Fatal("Buffered before anything was read")
	}
	for i, want := range []string{"a", "bb"} {
		got, err := fr.Next()
		if err != nil || string(got) != want {
			t.Fatalf("frame %d: %q err=%v, want %q", i, got, err, want)
		}
		if src.reads != 1 {
			t.Fatalf("frame %d cost %d reads on the stream, want the one that delivered it", i, src.reads)
		}
		if fr.Buffered() != (i == 0) {
			t.Fatalf("after frame %d: Buffered=%v with a half-received frame next", i, fr.Buffered())
		}
	}
	if got, err := fr.Next(); err != nil || string(got) != "ccc" || src.reads != 2 {
		t.Fatalf("completed frame: %q err=%v after %d reads", got, err, src.reads)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream err = %v, want io.EOF", err)
	}

	big := bytes.Repeat([]byte{9}, 3*readerSize)
	fr = NewReader(bytes.NewReader(Append(Append(nil, big), []byte("small"))), len(big))
	if got, err := fr.Next(); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversized frame: %d bytes err=%v", len(got), err)
	}
	if got, err := fr.Next(); err != nil || string(got) != "small" || len(fr.buf) != readerSize {
		t.Fatalf("after the oversized frame: %q err=%v, buffer %d bytes (want it back at %d)", got, err, len(fr.buf), readerSize)
	}
	fr = NewReader(bytes.NewReader(Append(nil, big)), len(big)-1)
	if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) || len(fr.buf) != readerSize {
		t.Fatalf("over-cap frame: err=%v, buffer %d bytes (the cap check must come before growth)", err, len(fr.buf))
	}
}

// countingReader delivers one chunk per Read and counts the calls.
type countingReader struct {
	chunks [][]byte
	reads  int
}

func (c *countingReader) Read(b []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	c.reads++
	n := copy(b, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}
