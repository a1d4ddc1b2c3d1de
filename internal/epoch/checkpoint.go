package epoch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/sim"
)

// This file is the station's crash-recovery state: a versioned,
// CRC-protected snapshot of everything the serving loop cannot rebuild
// from code — the slot clock, the span history, the registry's epoch
// counters, and the exact wire packets of the active (and any pending)
// program. A tower that writes a checkpoint at each cycle boundary can be
// SIGKILLed and warm-started: the restored server resumes airing at the
// checkpointed boundary and replays forward to the crash slot, so the
// absolute slot arithmetic clients depend on never skips or rewinds.
//
// The restored programs are skeletons (sim.Restored): the checkpoint
// carries the encoded packets, not the index tree they were compiled
// from, which is all a serving loop needs. Replanning after a warm start
// works because staging only requires channel-count agreement.

// CheckpointMagic opens every checkpoint file.
const CheckpointMagic uint16 = 0xB0CC

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion uint8 = 1

// ErrCheckpoint marks a checkpoint that cannot be restored: missing
// file, truncation, checksum mismatch, or inconsistent contents. Every
// decode failure wraps it, so a warm-start path can treat all of them
// uniformly as "fall back to a cold start".
var ErrCheckpoint = errors.New("epoch: invalid checkpoint")

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// Span is one entry of the tower's span history (sim.History): the
// program airing from absolute slot Start had cycle length CycleLen.
// Checkpointing the history lets a restored server keep answering
// catch-up requests for slots that crossed old epochs.
type Span = sim.Span

// Snapshot is one checkpointed epoch entry: the program shape plus its
// exact wire packets, indexed [channel-1][slot-1].
type Snapshot struct {
	ID          uint32
	Channels    int
	RootChannel int
	CycleLen    int
	Packets     [][][]byte
}

// Checkpoint is the whole recovery state of an adaptive tower at one
// cycle boundary.
type Checkpoint struct {
	// Now is the absolute slot the checkpoint was taken at — always a
	// cycle boundary of the active program.
	Now int
	// EpochStart is the absolute slot the active program went on the air.
	EpochStart int
	// Spans is the span history, oldest first; the last span is the
	// active program's.
	Spans []Span
	// NextID, Staged and Swapped restore the registry's counters so epoch
	// IDs stay monotone across the crash.
	NextID  uint32
	Staged  int
	Swapped int
	// Active is the program on the air; Pending, when non-nil, is the
	// staged successor awaiting the next boundary.
	Active  Snapshot
	Pending *Snapshot
}

// snapEntry converts a registry entry into its checkpoint form. Packets
// are shared, not copied: entries treat them as immutable.
func snapEntry(e Entry) Snapshot {
	return Snapshot{
		ID:          e.ID,
		Channels:    e.Prog.Channels(),
		RootChannel: e.Prog.RootChannel(),
		CycleLen:    e.Prog.CycleLen(),
		Packets:     e.Packets,
	}
}

// entry rebuilds a registry entry from the snapshot, around a restored
// skeleton program.
func (s *Snapshot) entry() (Entry, error) {
	p, err := sim.Restored(s.Channels, s.CycleLen, s.RootChannel)
	if err != nil {
		return Entry{}, err
	}
	return Entry{ID: s.ID, Prog: p, Packets: s.Packets}, nil
}

func appendSnapshot(out []byte, s *Snapshot) ([]byte, error) {
	if s.Channels < 1 || s.Channels > math.MaxUint8 {
		return nil, fmt.Errorf("epoch: checkpoint entry with %d channels", s.Channels)
	}
	if s.CycleLen < 1 || s.CycleLen > math.MaxUint16 {
		return nil, fmt.Errorf("epoch: checkpoint entry with cycle length %d", s.CycleLen)
	}
	if s.RootChannel < 1 || s.RootChannel > s.Channels {
		return nil, fmt.Errorf("epoch: checkpoint root channel %d outside [1, %d]", s.RootChannel, s.Channels)
	}
	if len(s.Packets) != s.Channels {
		return nil, fmt.Errorf("epoch: checkpoint entry has %d packet channels, want %d", len(s.Packets), s.Channels)
	}
	out = binary.BigEndian.AppendUint32(out, s.ID)
	out = append(out, uint8(s.Channels), uint8(s.RootChannel))
	out = binary.BigEndian.AppendUint16(out, uint16(s.CycleLen))
	for ch, slots := range s.Packets {
		if len(slots) != s.CycleLen {
			return nil, fmt.Errorf("epoch: checkpoint channel %d has %d packets, want %d", ch+1, len(slots), s.CycleLen)
		}
		for slot, pkt := range slots {
			if len(pkt) == 0 || len(pkt) > math.MaxUint16 {
				return nil, fmt.Errorf("epoch: checkpoint packet channel %d slot %d has %d bytes", ch+1, slot+1, len(pkt))
			}
			out = binary.BigEndian.AppendUint16(out, uint16(len(pkt)))
			out = append(out, pkt...)
		}
	}
	return out, nil
}

// EncodeCheckpoint serializes the checkpoint: a fixed header, the span
// history, the active (and optional pending) entry with all wire
// packets, and a CRC32-C trailer over everything before it.
func EncodeCheckpoint(c *Checkpoint) ([]byte, error) {
	if len(c.Spans) == 0 {
		return nil, fmt.Errorf("epoch: checkpoint with no span history")
	}
	if len(c.Spans) > math.MaxUint16 {
		return nil, fmt.Errorf("epoch: checkpoint with %d spans", len(c.Spans))
	}
	if err := validateCheckpoint(c); err != nil {
		return nil, err
	}
	out := make([]byte, 0, 64)
	out = binary.BigEndian.AppendUint16(out, CheckpointMagic)
	out = append(out, CheckpointVersion)
	var flags uint8
	if c.Pending != nil {
		flags |= 1
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint32(out, uint32(c.Now))
	out = binary.BigEndian.AppendUint32(out, uint32(c.EpochStart))
	out = binary.BigEndian.AppendUint32(out, c.NextID)
	out = binary.BigEndian.AppendUint32(out, uint32(c.Staged))
	out = binary.BigEndian.AppendUint32(out, uint32(c.Swapped))
	out = binary.BigEndian.AppendUint16(out, uint16(len(c.Spans)))
	for _, sp := range c.Spans {
		out = binary.BigEndian.AppendUint32(out, uint32(sp.Start))
		out = binary.BigEndian.AppendUint32(out, uint32(sp.CycleLen))
	}
	var err error
	if out, err = appendSnapshot(out, &c.Active); err != nil {
		return nil, err
	}
	if c.Pending != nil {
		if out, err = appendSnapshot(out, c.Pending); err != nil {
			return nil, err
		}
	}
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(out, ckptCRC))
	return out, nil
}

// validateCheckpoint enforces the cross-field invariants shared by the
// encoder (refusing to write nonsense) and the decoder (refusing to
// restore it).
func validateCheckpoint(c *Checkpoint) error {
	for i, sp := range c.Spans {
		if sp.Start < 0 || sp.CycleLen < 1 {
			return fmt.Errorf("epoch: checkpoint span %d is malformed (%+v)", i, sp)
		}
		if i > 0 && sp.Start < c.Spans[i-1].Start {
			return fmt.Errorf("epoch: checkpoint span %d starts at %d before span %d at %d",
				i, sp.Start, i-1, c.Spans[i-1].Start)
		}
	}
	last := c.Spans[len(c.Spans)-1]
	if c.EpochStart != last.Start {
		return fmt.Errorf("epoch: checkpoint epoch start %d does not match last span start %d", c.EpochStart, last.Start)
	}
	if c.Active.CycleLen != last.CycleLen {
		return fmt.Errorf("epoch: active cycle length %d does not match last span's %d", c.Active.CycleLen, last.CycleLen)
	}
	if c.Now < c.EpochStart {
		return fmt.Errorf("epoch: checkpoint slot %d precedes epoch start %d", c.Now, c.EpochStart)
	}
	if (c.Now-c.EpochStart)%c.Active.CycleLen != 0 {
		return fmt.Errorf("epoch: checkpoint slot %d is not a cycle boundary (epoch start %d, cycle %d)",
			c.Now, c.EpochStart, c.Active.CycleLen)
	}
	if c.NextID <= c.Active.ID {
		return fmt.Errorf("epoch: next epoch ID %d not past active ID %d", c.NextID, c.Active.ID)
	}
	if c.Staged < 0 || c.Swapped < 0 {
		return fmt.Errorf("epoch: negative lifecycle counters (%d staged, %d swapped)", c.Staged, c.Swapped)
	}
	if c.Pending != nil {
		if c.Pending.ID <= c.Active.ID {
			return fmt.Errorf("epoch: pending epoch %d not newer than active %d — epoch-skewed checkpoint",
				c.Pending.ID, c.Active.ID)
		}
		if c.NextID <= c.Pending.ID {
			return fmt.Errorf("epoch: next epoch ID %d not past pending ID %d", c.NextID, c.Pending.ID)
		}
		if c.Pending.Channels != c.Active.Channels {
			return fmt.Errorf("epoch: pending entry has %d channels, active has %d",
				c.Pending.Channels, c.Active.Channels)
		}
	}
	return nil
}

// DecodeCheckpoint parses and validates a checkpoint. Every failure —
// truncation, bad magic, checksum mismatch, structural or cross-field
// inconsistency — wraps ErrCheckpoint and never panics, which the fuzz
// target pins.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	const header = 2 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 2
	fail := func(format string, args ...any) (*Checkpoint, error) {
		return nil, fmt.Errorf("%w: %s", ErrCheckpoint, fmt.Sprintf(format, args...))
	}
	if len(data) < header+4 {
		return fail("%d bytes, need at least %d", len(data), header+4)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, ckptCRC), binary.BigEndian.Uint32(trailer); got != want {
		return fail("checksum mismatch (computed %#08x, file says %#08x)", got, want)
	}
	if m := binary.BigEndian.Uint16(body[0:2]); m != CheckpointMagic {
		return fail("bad magic %#04x", m)
	}
	if v := body[2]; v != CheckpointVersion {
		return fail("unsupported version %d (decoder speaks %d)", v, CheckpointVersion)
	}
	flags := body[3]
	if flags&^1 != 0 {
		return fail("unknown flag bits %#02x", flags)
	}
	c := &Checkpoint{
		Now:        int(binary.BigEndian.Uint32(body[4:8])),
		EpochStart: int(binary.BigEndian.Uint32(body[8:12])),
		NextID:     binary.BigEndian.Uint32(body[12:16]),
		Staged:     int(binary.BigEndian.Uint32(body[16:20])),
		Swapped:    int(binary.BigEndian.Uint32(body[20:24])),
	}
	spanCount := int(binary.BigEndian.Uint16(body[24:26]))
	pos := header
	take := func(n int, what string) ([]byte, error) {
		if len(body)-pos < n {
			return nil, fmt.Errorf("%w: truncated %s (%d of %d bytes)", ErrCheckpoint, what, len(body)-pos, n)
		}
		b := body[pos : pos+n]
		pos += n
		return b, nil
	}
	if spanCount == 0 {
		return fail("no span history")
	}
	for i := 0; i < spanCount; i++ {
		b, err := take(8, "span")
		if err != nil {
			return nil, err
		}
		c.Spans = append(c.Spans, Span{
			Start:    int(binary.BigEndian.Uint32(b[0:4])),
			CycleLen: int(binary.BigEndian.Uint32(b[4:8])),
		})
	}
	readSnapshot := func(what string) (*Snapshot, error) {
		b, err := take(8, what+" header")
		if err != nil {
			return nil, err
		}
		s := &Snapshot{
			ID:          binary.BigEndian.Uint32(b[0:4]),
			Channels:    int(b[4]),
			RootChannel: int(b[5]),
			CycleLen:    int(binary.BigEndian.Uint16(b[6:8])),
		}
		if s.Channels < 1 {
			return nil, fmt.Errorf("%w: %s has 0 channels", ErrCheckpoint, what)
		}
		if s.CycleLen < 1 {
			return nil, fmt.Errorf("%w: %s has cycle length 0", ErrCheckpoint, what)
		}
		if s.RootChannel < 1 || s.RootChannel > s.Channels {
			return nil, fmt.Errorf("%w: %s root channel %d outside [1, %d]", ErrCheckpoint, what, s.RootChannel, s.Channels)
		}
		s.Packets = make([][][]byte, s.Channels)
		for ch := 0; ch < s.Channels; ch++ {
			s.Packets[ch] = make([][]byte, s.CycleLen)
			for slot := 0; slot < s.CycleLen; slot++ {
				lb, err := take(2, what+" packet length")
				if err != nil {
					return nil, err
				}
				n := int(binary.BigEndian.Uint16(lb))
				if n == 0 {
					return nil, fmt.Errorf("%w: %s packet channel %d slot %d is empty", ErrCheckpoint, what, ch+1, slot+1)
				}
				pb, err := take(n, what+" packet")
				if err != nil {
					return nil, err
				}
				s.Packets[ch][slot] = append([]byte(nil), pb...)
			}
		}
		return s, nil
	}
	active, err := readSnapshot("active entry")
	if err != nil {
		return nil, err
	}
	c.Active = *active
	if flags&1 != 0 {
		if c.Pending, err = readSnapshot("pending entry"); err != nil {
			return nil, err
		}
	}
	if pos != len(body) {
		return fail("%d trailing bytes", len(body)-pos)
	}
	if err := validateCheckpoint(c); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpoint, err)
	}
	return c, nil
}

// WriteCheckpoint atomically replaces path with the encoded checkpoint:
// the bytes land in a temp file first and rename into place, so a crash
// mid-write leaves the previous checkpoint intact rather than a torn one.
func WriteCheckpoint(path string, c *Checkpoint) error {
	data, err := EncodeCheckpoint(c)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads and decodes the checkpoint at path. A missing or
// unreadable file wraps ErrCheckpoint like any other decode failure, so
// warm-start callers have exactly one fallback condition.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpoint, err)
	}
	return DecodeCheckpoint(data)
}

// Snapshot captures the registry's full state for checkpointing: the
// current entry, the pending entry (nil when none), and the lifecycle
// counters.
func (r *Registry) Snapshot() (cur Entry, pending *Entry, nextID uint32, staged, swapped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pending.Load()
	if p != nil {
		e := *p
		p = &e
	}
	return r.cur, p, r.nextID, r.staged, r.swapped
}

// CheckpointState assembles the registry's contribution to a checkpoint
// taken at slot now with the given span history, whose last span is the
// active program's.
func (r *Registry) CheckpointState(now int, spans []Span) *Checkpoint {
	cur, pending, nextID, staged, swapped := r.Snapshot()
	c := &Checkpoint{
		Now:        now,
		EpochStart: spans[len(spans)-1].Start,
		Spans:      append([]Span(nil), spans...),
		NextID:     nextID,
		Staged:     staged,
		Swapped:    swapped,
		Active:     snapEntry(cur),
	}
	if pending != nil {
		s := snapEntry(*pending)
		c.Pending = &s
	}
	return c
}

// RestoreRegistry rebuilds a registry from a decoded checkpoint. The
// programs are sim.Restored skeletons serving the checkpointed packets;
// epoch IDs and lifecycle counters continue from their checkpointed
// values, so post-restart stagings stay monotone on the air.
func RestoreRegistry(c *Checkpoint) (*Registry, error) {
	cur, err := c.Active.entry()
	if err != nil {
		return nil, err
	}
	r := &Registry{
		cur:     cur,
		nextID:  c.NextID,
		staged:  c.Staged,
		swapped: c.Swapped,
	}
	if c.Pending != nil {
		e, err := c.Pending.entry()
		if err != nil {
			return nil, err
		}
		r.pending.Store(&e)
	}
	return r, nil
}
