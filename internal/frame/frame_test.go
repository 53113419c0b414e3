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

// FuzzReadNext: over arbitrary bytes, Read on a stream and Next on the same
// bytes as an image agree frame for frame and stop at the same offset, and
// neither returns a payload above the cap (Read allocates only after the
// cap check, so that also bounds its allocation).
func FuzzReadNext(f *testing.F) {
	f.Add([]byte{}, uint16(16))
	f.Add(Append(Append(nil, []byte("one")), []byte("two")), uint16(16))
	f.Add(Append(nil, bytes.Repeat([]byte{7}, 40)), uint16(16))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint16(16))
	f.Fuzz(func(t *testing.T, data []byte, capArg uint16) {
		max := int(capArg)
		r := bytes.NewReader(data)
		off := 0
		for {
			fromStream, err := Read(r, nil, max)
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
