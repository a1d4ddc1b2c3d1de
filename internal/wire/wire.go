// Package wire defines the on-air bucket format: the binary layout a real
// broadcast server would transmit and a portable client would parse. Each
// bucket is a fixed-header, variable-body packet carrying the node kind,
// its label and key material, the (channel, offset) child pointers of
// index buckets, and the next-cycle pointer of first-channel buckets —
// the pointer structure Section 2.1 of the paper describes.
//
// The codec is self-contained (encoding/binary, big endian) and validated
// by round-trip property tests; Marshal/Unmarshal errors describe exactly
// which field was malformed, so a corrupted broadcast fails loudly rather
// than silently misrouting clients.
//
// Format version 2 trails every bucket with a CRC32-C over all preceding
// bytes. On a noisy channel a flipped bit is therefore *detectable* — the
// decode fails with an error wrapping ErrChecksum — and a client can treat
// the slot as lost and catch the retransmission on the next cycle instead
// of silently mis-routing its descent.
//
// Format version 3 additionally stamps every bucket with the 32-bit epoch
// ID of the broadcast program it belongs to, making programs versioned,
// swappable artifacts: a tower can hot-swap to a re-optimized program at a
// cycle boundary and a client that observes the epoch change mid-descent
// knows its cached pointers are stale and restarts from the new root. The
// decoder still accepts v2 frames (epoch 0), so a v3 client can ride a
// broadcast recorded by an older tower.
//
// Format version 4 additionally stamps every bucket with the 1-based
// channel that carries the index root. Under a channel outage the tower
// replans onto the surviving channels and the root may move off channel
// 1; any successfully read bucket — even a filler on a dark-adjacent
// channel — then tells a failing-over client where to re-tune for its
// next descent. The decoder accepts v2 and v3 frames with RootChannel 0,
// which clients interpret as the channel-1 default.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/sim"
	"repro/internal/tree"
)

// Magic opens every bucket so stray packets are rejected immediately.
const Magic uint16 = 0xB0CA

// Version is the current frame-format version; it follows the magic so a
// decoder can reject frames from an incompatible broadcast generation.
const Version uint8 = 4

// VersionV3 is the previous frame format (no root-channel stamp). The
// decoder still accepts it, reporting RootChannel 0.
const VersionV3 uint8 = 3

// VersionV2 is the epoch-less frame format before that. The decoder
// still accepts it, reporting epoch 0 and RootChannel 0.
const VersionV2 uint8 = 2

// ErrChecksum marks a structurally plausible bucket whose CRC32 trailer
// does not match: the frame was corrupted in flight.
var ErrChecksum = errors.New("wire: checksum mismatch")

// crcTable is the Castagnoli polynomial (hardware-accelerated CRC32-C).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Bucket kinds on the wire: the values of sim.BucketKind, which a
// client's session engine reads them as.
const (
	KindEmpty = uint8(sim.KindEmpty)
	KindIndex = uint8(sim.KindIndex)
	KindData  = uint8(sim.KindData)
)

// Pointer is a child reference: target channel and slot offset ahead.
type Pointer struct {
	Channel uint8
	Offset  uint16
	// KeyLo and KeyHi describe the target subtree's key range so a
	// client can route lookups without any out-of-band tree knowledge.
	KeyLo, KeyHi int64
}

// Bucket is the wire representation of one broadcast slot.
type Bucket struct {
	Kind uint8
	// RootCopy marks a bucket holding the index root — the original at
	// the cycle start or a replicated copy — so an arriving client knows
	// it can begin its descent immediately.
	RootCopy  bool
	NextCycle uint16 // channel-1 buckets: offset to the next cycle start
	// Epoch identifies the broadcast program generation this bucket was
	// compiled from. A client that started its descent in one epoch and
	// reads a bucket from another must restart: pointer arithmetic does
	// not survive a program swap. Epoch 0 means "unversioned" (v2 frames
	// and static broadcasts).
	Epoch uint32
	// RootChannel is the 1-based channel carrying the index root of the
	// program this bucket belongs to, so a client whose channel went dark
	// can learn where to fail over from any bucket it manages to read.
	// 0 means "unstamped" (v2/v3 frames); clients treat it as channel 1.
	RootChannel uint8
	Label       string
	Key         int64   // data buckets on keyed trees
	Weight      float64 // data buckets: advertised access frequency
	Pointers    []Pointer
}

const (
	headerSizeV2 = 2 + 1 + 1 + 1 + 2 // magic, version, kind, flags, nextCycle
	headerSizeV3 = headerSizeV2 + 4  // v3 adds the epoch stamp
	headerSize   = headerSizeV3 + 1  // v4 adds the root-channel stamp
	pointerSize  = 1 + 2 + 8 + 8     // channel, offset, key range
	crcSize      = 4                 // CRC32-C trailer
)

// encodedSize is the length of a current-format bucket with a label of
// labelLen bytes and the given number of pointers.
func encodedSize(labelLen, pointers int) int {
	return headerSize + 1 + labelLen + 8 + 8 + 1 + pointers*pointerSize + crcSize
}

// Marshal encodes the bucket.
func (b *Bucket) Marshal() ([]byte, error) {
	out, err := b.appendMarshal(make([]byte, 0, encodedSize(len(b.Label), len(b.Pointers))))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendMarshal appends the bucket's encoding to dst and returns the
// extended slice.
func (b *Bucket) appendMarshal(dst []byte) ([]byte, error) {
	if b.Kind > KindData {
		return dst, fmt.Errorf("wire: invalid kind %d", b.Kind)
	}
	if len(b.Label) > math.MaxUint8 {
		return dst, fmt.Errorf("wire: label %q too long", b.Label)
	}
	if len(b.Pointers) > math.MaxUint8 {
		return dst, fmt.Errorf("wire: %d pointers exceed the bucket capacity", len(b.Pointers))
	}
	start := len(dst)
	out := binary.BigEndian.AppendUint16(dst, Magic)
	out = append(out, Version)
	out = append(out, b.Kind)
	var flags uint8
	if b.RootCopy {
		flags |= 1
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint16(out, b.NextCycle)
	out = binary.BigEndian.AppendUint32(out, b.Epoch)
	out = append(out, b.RootChannel)
	out = append(out, uint8(len(b.Label)))
	out = append(out, b.Label...)
	out = binary.BigEndian.AppendUint64(out, uint64(b.Key))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(b.Weight))
	out = append(out, uint8(len(b.Pointers)))
	for _, p := range b.Pointers {
		out = append(out, p.Channel)
		out = binary.BigEndian.AppendUint16(out, p.Offset)
		out = binary.BigEndian.AppendUint64(out, uint64(p.KeyLo))
		out = binary.BigEndian.AppendUint64(out, uint64(p.KeyHi))
	}
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out[start:], crcTable)), nil
}

// Unmarshal decodes a bucket, validating the checksum, structure and
// length. A corrupted frame fails with an error wrapping ErrChecksum.
// The current v4 format plus the older v3 (no root-channel stamp) and v2
// (no epoch stamp) formats are accepted; older frames decode with the
// missing fields zero.
func Unmarshal(data []byte) (*Bucket, error) {
	if len(data) < headerSizeV2+crcSize {
		return nil, fmt.Errorf("wire: %d bytes, need at least %d", len(data), headerSizeV2+crcSize)
	}
	if m := binary.BigEndian.Uint16(data[0:2]); m != Magic {
		return nil, fmt.Errorf("wire: bad magic %#04x", m)
	}
	version := data[2]
	if version < VersionV2 || version > Version {
		return nil, fmt.Errorf("wire: unsupported version %d (decoder speaks %d through %d)", version, VersionV2, Version)
	}
	hdr := headerSize
	switch version {
	case VersionV2:
		hdr = headerSizeV2
	case VersionV3:
		hdr = headerSizeV3
	}
	if len(data) < hdr+crcSize {
		return nil, fmt.Errorf("wire: %d bytes, need at least %d", len(data), hdr+crcSize)
	}
	body, trailer := data[:len(data)-crcSize], data[len(data)-crcSize:]
	if got, want := crc32.Checksum(body, crcTable), binary.BigEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w (computed %#08x, frame says %#08x)", ErrChecksum, got, want)
	}
	data = body
	b := &Bucket{Kind: data[3]}
	if b.Kind > KindData {
		return nil, fmt.Errorf("wire: invalid kind %d", b.Kind)
	}
	if data[4]&^1 != 0 {
		return nil, fmt.Errorf("wire: unknown flag bits %#02x", data[4])
	}
	b.RootCopy = data[4]&1 != 0
	b.NextCycle = binary.BigEndian.Uint16(data[5:7])
	if version >= VersionV3 {
		b.Epoch = binary.BigEndian.Uint32(data[7:11])
	}
	if version >= Version {
		b.RootChannel = data[11]
	}
	pos := hdr
	need := func(n int, what string) error {
		if len(data) < pos+n {
			return fmt.Errorf("wire: truncated %s (%d of %d bytes)", what, len(data)-pos, n)
		}
		return nil
	}
	if err := need(1, "label length"); err != nil {
		return nil, err
	}
	labelLen := int(data[pos])
	pos++
	if err := need(labelLen, "label"); err != nil {
		return nil, err
	}
	b.Label = string(data[pos : pos+labelLen])
	pos += labelLen
	if err := need(16, "key and weight"); err != nil {
		return nil, err
	}
	b.Key = int64(binary.BigEndian.Uint64(data[pos : pos+8]))
	pos += 8
	b.Weight = math.Float64frombits(binary.BigEndian.Uint64(data[pos : pos+8]))
	pos += 8
	if math.IsNaN(b.Weight) || math.IsInf(b.Weight, 0) || b.Weight < 0 {
		return nil, fmt.Errorf("wire: invalid weight %v", b.Weight)
	}
	if err := need(1, "pointer count"); err != nil {
		return nil, err
	}
	count := int(data[pos])
	pos++
	for i := 0; i < count; i++ {
		if err := need(pointerSize, "pointer"); err != nil {
			return nil, err
		}
		var p Pointer
		p.Channel = data[pos]
		p.Offset = binary.BigEndian.Uint16(data[pos+1 : pos+3])
		p.KeyLo = int64(binary.BigEndian.Uint64(data[pos+3 : pos+11]))
		p.KeyHi = int64(binary.BigEndian.Uint64(data[pos+11 : pos+19]))
		pos += pointerSize
		if p.Channel == 0 {
			return nil, fmt.Errorf("wire: pointer %d has channel 0", i)
		}
		if p.Offset == 0 {
			return nil, fmt.Errorf("wire: pointer %d has zero offset", i)
		}
		b.Pointers = append(b.Pointers, p)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(data)-pos)
	}
	return b, nil
}

// EncodeProgram serializes a compiled broadcast program into per-channel
// per-slot packets, stamping every bucket with the given epoch ID:
// out[channel-1][slot-1] is the encoded bucket. Epoch 0 marks a static,
// unversioned broadcast.
//
// Every packet is cut from one arena sized in a first pass, with its
// capacity equal to its length, so appending to one packet copies it
// instead of overwriting its neighbour.
func EncodeProgram(p *sim.Program, epoch uint32) ([][][]byte, error) {
	t := p.Tree()
	if t == nil {
		// A checkpoint-restored skeleton serves its checkpointed packets
		// verbatim; re-encoding it would require the tree it no longer has.
		return nil, fmt.Errorf("wire: program has no tree (checkpoint-restored skeleton); serve its checkpointed packets instead")
	}
	channels, cycle := p.Channels(), p.CycleLen()
	size, maxPointers := 0, 0
	for ch := 1; ch <= channels; ch++ {
		for s := 1; s <= cycle; s++ {
			sb := p.BucketAt(ch, s)
			label := 0
			if sb.Node != tree.None {
				label = len(t.Label(sb.Node))
			}
			size += encodedSize(label, len(sb.Children))
			maxPointers = max(maxPointers, len(sb.Children))
		}
	}
	arena := make([]byte, 0, size)
	pointers := make([]Pointer, 0, maxPointers)
	packets := make([][]byte, channels*cycle)
	out := make([][][]byte, channels)
	for ch := 1; ch <= channels; ch++ {
		out[ch-1] = packets[(ch-1)*cycle : ch*cycle : ch*cycle]
		for s := 1; s <= cycle; s++ {
			sb := p.BucketAt(ch, s)
			wb := Bucket{
				NextCycle:   uint16(sb.NextCycle),
				RootCopy:    sb.RootCopy || sb.Node == t.Root(),
				Epoch:       epoch,
				RootChannel: uint8(p.RootChannel()),
			}
			if sb.Node == tree.None {
				wb.Kind = KindEmpty
			} else {
				wb.Label = t.Label(sb.Node)
				if t.IsData(sb.Node) {
					wb.Kind = KindData
					wb.Weight = t.Weight(sb.Node)
					if k, ok := t.Key(sb.Node); ok {
						wb.Key = k
					}
				} else {
					wb.Kind = KindIndex
				}
				pointers = pointers[:0]
				for _, c := range sb.Children {
					pointers = append(pointers, Pointer{
						Channel: uint8(c.Channel), Offset: uint16(c.Offset), KeyLo: c.KeyLo, KeyHi: c.KeyHi,
					})
				}
				wb.Pointers = pointers
			}
			start := len(arena)
			var err error
			if arena, err = wb.appendMarshal(arena); err != nil {
				return nil, fmt.Errorf("wire: channel %d slot %d: %w", ch, s, err)
			}
			out[ch-1][s-1] = arena[start:len(arena):len(arena)]
		}
	}
	return out, nil
}
