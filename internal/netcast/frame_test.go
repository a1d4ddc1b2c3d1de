package netcast

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xAB}, 300), bytes.Repeat([]byte{0}, 0xFFFF)}
	for _, payload := range payloads {
		frame, err := appendFrame(nil, 12345, payload)
		if err != nil {
			t.Fatal(err)
		}
		slot, got, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatal(err)
		}
		if slot != 12345 {
			t.Fatalf("slot %d, want 12345", slot)
		}
		if len(payload) == 0 {
			if got != nil {
				t.Fatalf("lost-slot marker decoded to %d bytes", len(got))
			}
		} else if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(payload))
		}
	}
}

func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	if _, err := appendFrame(nil, 0, make([]byte, 0x10000)); err == nil {
		t.Fatal("payload over the uint16 length field must be rejected")
	}
}

// TestReadFrameTruncation: every strict prefix of a valid frame fails
// with an io error instead of hanging, panicking, or decoding garbage.
func TestReadFrameTruncation(t *testing.T) {
	frame, err := appendFrame(nil, 7, []byte{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:cut])))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(frame))
		}
	}
}

// TestReadFrameOversizedLength: a length field promising more bytes than
// the stream carries fails cleanly with a wrapped io error.
func TestReadFrameOversizedLength(t *testing.T) {
	hdr := []byte{0, 0, 0, 9, 0xFF, 0xFF, 1, 2, 3} // promises 65535, carries 3
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)))
	if err == nil {
		t.Fatal("oversized length field decoded successfully")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want a truncation error wrapping io.ErrUnexpectedEOF, got %v", err)
	}
}

// TestReadFrameNeverOverReads: readFrame consumes exactly one frame,
// leaving the next frame intact on the stream.
func TestReadFrameNeverOverReads(t *testing.T) {
	stream, err := appendFrame(nil, 1, []byte{0xAA, 0xBB})
	if err != nil {
		t.Fatal(err)
	}
	if stream, err = appendFrame(stream, 2, nil); err != nil {
		t.Fatal(err)
	}
	if stream, err = appendFrame(stream, 3, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for want := 1; want <= 3; want++ {
		slot, _, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if slot != want {
			t.Fatalf("frame slot %d, want %d", slot, want)
		}
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("stream not fully consumed: %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := appendRequest(nil, 3, 0xDEADBE)
	if len(req) != requestSize {
		t.Fatalf("request is %d bytes, want %d", len(req), requestSize)
	}
	ch, slot := parseRequest(req)
	if ch != 3 || slot != 0xDEADBE {
		t.Fatalf("round trip gave (%d, %d)", ch, slot)
	}
}

// FuzzReadFrame throws arbitrary bytes at the frame decoder: it must
// never panic, and any frame it accepts must re-encode to the exact bytes
// it consumed (canonical round trip).
func FuzzReadFrame(f *testing.F) {
	seed, _ := appendFrame(nil, 42, []byte{1, 2, 3})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		slot, payload, err := readFrame(br)
		if err != nil {
			return
		}
		consumed := frameHeaderSize + len(payload)
		if consumed > len(data) {
			t.Fatalf("decoder claims %d bytes from a %d-byte input", consumed, len(data))
		}
		re, err := appendFrame(nil, slot, payload)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("round trip not canonical:\n in:  %x\n out: %x", data[:consumed], re)
		}
	})
}
