package epoch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fakeSnapshot builds a snapshot with synthetic packets: the checkpoint
// codec carries packet bytes opaquely (wire validation happens at serve
// time), so the codec tests do not need a compiled program.
func fakeSnapshot(id uint32, channels, cycleLen int) Snapshot {
	pk := make([][][]byte, channels)
	for ch := range pk {
		pk[ch] = make([][]byte, cycleLen)
		for s := range pk[ch] {
			pk[ch][s] = []byte{0xB0, byte(id), byte(ch + 1), byte(s + 1), 0x55}
		}
	}
	return Snapshot{ID: id, Channels: channels, RootChannel: 1, CycleLen: cycleLen, Packets: pk}
}

func testCheckpoint(withPending bool) *Checkpoint {
	c := &Checkpoint{
		Now:        18,
		EpochStart: 12,
		Spans:      []Span{{Start: 0, CycleLen: 4}, {Start: 12, CycleLen: 6}},
		NextID:     3,
		Staged:     2,
		Swapped:    1,
		Active:     fakeSnapshot(1, 2, 6),
	}
	if withPending {
		p := fakeSnapshot(2, 2, 5)
		c.Pending = &p
		c.NextID = 4
	}
	return c
}

func sameCheckpoint(t *testing.T, a, b *Checkpoint) {
	t.Helper()
	if a.Now != b.Now || a.EpochStart != b.EpochStart || a.NextID != b.NextID ||
		a.Staged != b.Staged || a.Swapped != b.Swapped {
		t.Fatalf("scalar fields differ: %+v vs %+v", a, b)
	}
	if len(a.Spans) != len(b.Spans) {
		t.Fatalf("span counts differ: %d vs %d", len(a.Spans), len(b.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Fatalf("span %d differs: %+v vs %+v", i, a.Spans[i], b.Spans[i])
		}
	}
	sameSnap := func(x, y *Snapshot) {
		if x.ID != y.ID || x.Channels != y.Channels || x.RootChannel != y.RootChannel || x.CycleLen != y.CycleLen {
			t.Fatalf("snapshot shapes differ: %+v vs %+v", x, y)
		}
		for ch := range x.Packets {
			for s := range x.Packets[ch] {
				if !bytes.Equal(x.Packets[ch][s], y.Packets[ch][s]) {
					t.Fatalf("packet channel %d slot %d differs", ch+1, s+1)
				}
			}
		}
	}
	sameSnap(&a.Active, &b.Active)
	if (a.Pending == nil) != (b.Pending == nil) {
		t.Fatalf("pending presence differs")
	}
	if a.Pending != nil {
		sameSnap(a.Pending, b.Pending)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, withPending := range []bool{false, true} {
		c := testCheckpoint(withPending)
		data, err := EncodeCheckpoint(c)
		if err != nil {
			t.Fatalf("pending=%v: encode: %v", withPending, err)
		}
		got, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("pending=%v: decode: %v", withPending, err)
		}
		sameCheckpoint(t, c, got)
		// Canonical: re-encoding the decoded checkpoint reproduces the bytes.
		again, err := EncodeCheckpoint(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("pending=%v: round trip not canonical", withPending)
		}
	}
}

// refreshCRC recomputes the trailer after a deliberate patch, so the
// decoder exercises its structural validation rather than the checksum.
func refreshCRC(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, ckptCRC))
}

func TestCheckpointDecodeRejects(t *testing.T) {
	valid, err := EncodeCheckpoint(testCheckpoint(true))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":    nil,
		"tiny":     valid[:8],
		"no-crc":   valid[:len(valid)-4],
		"crc-flip": func() []byte { d := append([]byte(nil), valid...); d[10] ^= 0x40; return d }(),
		"bad-magic": func() []byte {
			d := append([]byte(nil), valid...)
			d[0] = 0xDE
			return refreshCRC(d)
		}(),
		"bad-version": func() []byte {
			d := append([]byte(nil), valid...)
			d[2] = 99
			return refreshCRC(d)
		}(),
		"unknown-flags": func() []byte {
			d := append([]byte(nil), valid...)
			d[3] |= 0x80
			return refreshCRC(d)
		}(),
		"misaligned-now": func() []byte {
			d := append([]byte(nil), valid...)
			binary.BigEndian.PutUint32(d[4:8], 17) // 17-12 not divisible by cycle 6
			return refreshCRC(d)
		}(),
		"trailing-bytes": refreshCRC(append(append([]byte(nil), valid[:len(valid)-4]...), 0, 0, 0, 0, 0)),
	}
	for i := 1; i < len(valid)-4; i += 13 {
		// Truncate the body at i bytes but keep a valid CRC, so the decoder
		// exercises its structural truncation handling, not the checksum.
		cases["trunc-"+strconv.Itoa(i)] = refreshCRC(append([]byte(nil), valid[:i+4]...))
	}
	for name, data := range cases {
		c, err := DecodeCheckpoint(data)
		if err == nil {
			t.Errorf("%s: decoded to %+v, want error", name, c)
			continue
		}
		if !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: error %v does not wrap ErrCheckpoint", name, err)
		}
	}
}

func TestCheckpointEpochSkewRejected(t *testing.T) {
	// A pending entry not newer than the active one is the epoch-skew
	// corruption: restoring it would re-announce an old epoch ID.
	c := testCheckpoint(true)
	c.Pending.ID = c.Active.ID
	if _, err := EncodeCheckpoint(c); err == nil {
		t.Fatal("encoder accepted epoch-skewed checkpoint")
	}
	// Same via the decoder: patch the pending ID inside valid bytes.
	good := testCheckpoint(true)
	data, err := EncodeCheckpoint(good)
	if err != nil {
		t.Fatal(err)
	}
	// The pending snapshot begins right after the active one; find its ID
	// by scanning for the encoded pending header (ID=2 at a known layout
	// offset): active occupies 8 + channels*cycleLen*(2+5) bytes.
	activeSize := 8 + good.Active.Channels*good.Active.CycleLen*(2+5)
	const header = 2 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 2
	pendingOff := header + len(good.Spans)*8 + activeSize
	if got := binary.BigEndian.Uint32(data[pendingOff : pendingOff+4]); got != good.Pending.ID {
		t.Fatalf("pending ID not at computed offset (found %d)", got)
	}
	binary.BigEndian.PutUint32(data[pendingOff:pendingOff+4], good.Active.ID)
	if _, err := DecodeCheckpoint(refreshCRC(data)); err == nil || !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("decoder accepted epoch-skewed checkpoint: %v", err)
	}
}

func TestEncodeCheckpointRejectsBadState(t *testing.T) {
	mutate := func(f func(*Checkpoint)) *Checkpoint {
		c := testCheckpoint(false)
		f(c)
		return c
	}
	cases := map[string]*Checkpoint{
		"no-spans": mutate(func(c *Checkpoint) { c.Spans = nil }),
		"unsorted-spans": mutate(func(c *Checkpoint) {
			c.Spans = []Span{{Start: 12, CycleLen: 6}, {Start: 0, CycleLen: 4}}
			c.EpochStart = 0
			c.Now = 0
		}),
		"start-mismatch":   mutate(func(c *Checkpoint) { c.EpochStart = 11 }),
		"cycle-mismatch":   mutate(func(c *Checkpoint) { c.Spans[1].CycleLen = 7 }),
		"now-before-start": mutate(func(c *Checkpoint) { c.Now = 11 }),
		"not-boundary":     mutate(func(c *Checkpoint) { c.Now = 19 }),
		"stale-next-id":    mutate(func(c *Checkpoint) { c.NextID = 1 }),
		"bad-root-channel": mutate(func(c *Checkpoint) { c.Active.RootChannel = 3 }),
		"packet-shape": mutate(func(c *Checkpoint) {
			c.Active.Packets = c.Active.Packets[:1]
		}),
	}
	for name, c := range cases {
		if _, err := EncodeCheckpoint(c); err == nil {
			t.Errorf("%s: encoder accepted invalid checkpoint", name)
		}
	}
}

func TestWriteLoadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "station.ckpt")
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("missing file: error %v does not wrap ErrCheckpoint", err)
	}
	c := testCheckpoint(true)
	if err := WriteCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, c, got)
	// The write is atomic: no temp file remains.
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// An overwrite replaces the previous checkpoint wholesale.
	c2 := testCheckpoint(false)
	c2.Now = 24
	if err := WriteCheckpoint(path, c2); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Now != 24 || got2.Pending != nil {
		t.Fatalf("overwrite not visible: %+v", got2)
	}
	// A corrupt file on disk fails typed.
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("corrupt file: error %v does not wrap ErrCheckpoint", err)
	}
}

func TestRegistryCheckpointStateAndRestore(t *testing.T) {
	p1 := prog(t, 8, 2, 1)
	r, err := NewRegistry(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := prog(t, 8, 2, 2)
	if _, err := r.Stage(p2); err != nil {
		t.Fatal(err)
	}
	L := p1.CycleLen()
	c := r.CheckpointState(2*L, []Span{{Start: 0, CycleLen: L}})
	if c.Active.ID != 1 || c.Pending == nil || c.Pending.ID != 2 || c.NextID != 3 {
		t.Fatalf("checkpoint state wrong: active %d pending %v next %d", c.Active.ID, c.Pending, c.NextID)
	}
	data, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreRegistry(dec)
	if err != nil {
		t.Fatal(err)
	}
	cur := r2.Current()
	if cur.ID != 1 || !cur.Prog.IsRestored() || cur.Prog.CycleLen() != L || cur.Prog.Channels() != 2 {
		t.Fatalf("restored current entry wrong: %+v", cur)
	}
	for ch := range cur.Packets {
		for s := range cur.Packets[ch] {
			if !bytes.Equal(cur.Packets[ch][s], r.Current().Packets[ch][s]) {
				t.Fatalf("restored packet channel %d slot %d differs from original", ch+1, s+1)
			}
		}
	}
	if id, ok := r2.Pending(); !ok || id != 2 {
		t.Fatalf("pending not restored: %d %v", id, ok)
	}
	staged, swapped := r2.Stats()
	if staged != 1 || swapped != 0 {
		t.Fatalf("restored counters: %d staged, %d swapped", staged, swapped)
	}
	// The restored pending swaps on the restored registry.
	e, ok := r2.TrySwap()
	if !ok || e.ID != 2 {
		t.Fatalf("restored pending did not swap: %v %v", e.ID, ok)
	}
	// Staging a freshly compiled program onto the restored registry keeps
	// epoch IDs monotone (continuing from the checkpointed NextID).
	p3 := prog(t, 8, 2, 3)
	id, err := r2.Stage(p3)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("staged epoch ID %d, want 3", id)
	}
}

func TestRestoredProgramCannotBeReencoded(t *testing.T) {
	c := testCheckpoint(false)
	data, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreRegistry(dec)
	if err != nil {
		t.Fatal(err)
	}
	// Staging requires wire.EncodeProgram on the *staged* program only,
	// but re-encoding the restored skeleton itself must fail loudly, not
	// panic on the missing tree.
	if _, err := r.Stage(r.Current().Prog); err == nil {
		t.Fatal("re-staging a restored skeleton succeeded; want a typed failure")
	}
}
