package netcast

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The wire framing of the netcast protocol, big endian:
//
//	request:  channel uint8 | slot uint32   (channel 0 detaches)
//	frame:    slot uint32 | length uint16 | bucket payload
//
// A frame with length 0 is a *lost slot* marker: the client woke for the
// slot but the channel delivered nothing usable.

const (
	// requestSize is the fixed encoding of one wake-up request.
	requestSize = 1 + 4
	// frameHeaderSize precedes every bucket payload on the wire.
	frameHeaderSize = 4 + 2
)

// appendRequest encodes a wake-up request for (channel, slot).
func appendRequest(dst []byte, channel, slot int) []byte {
	dst = append(dst, byte(channel))
	return binary.BigEndian.AppendUint32(dst, uint32(slot))
}

// parseRequest decodes a request; req must hold exactly requestSize bytes.
func parseRequest(req []byte) (channel, slot int) {
	return int(req[0]), int(binary.BigEndian.Uint32(req[1:5]))
}

// appendFrame encodes one slot delivery. The payload must fit the uint16
// length field; EncodeProgram payloads always do (buckets cap label and
// pointer counts at 255).
func appendFrame(dst []byte, slot int, payload []byte) ([]byte, error) {
	if len(payload) > 0xFFFF {
		return nil, fmt.Errorf("netcast: %d-byte payload exceeds the frame length field", len(payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(slot))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	return append(dst, payload...), nil
}

// readFrame reads one complete frame, returning the slot stamp and the
// raw payload (possibly empty for a lost slot). A truncated header or a
// length field promising more bytes than the stream carries fails with
// an io error; readFrame never over-reads past the declared length.
func readFrame(br *bufio.Reader) (slot int, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	slot = int(binary.BigEndian.Uint32(hdr[0:4]))
	n := int(binary.BigEndian.Uint16(hdr[4:6]))
	if n == 0 {
		return slot, nil, nil
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("netcast: frame for slot %d truncated: %w", slot, err)
	}
	return slot, payload, nil
}

// readRequest fills buf (requestSize bytes) with the next request.
func readRequest(br *bufio.Reader, buf []byte) (int, error) {
	return io.ReadFull(br, buf)
}
