package alloc

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/workload"
)

// ids resolves labels to IDs on t, failing the test on a miss.
func ids(t *testing.T, tr *tree.Tree, labels ...string) []tree.ID {
	t.Helper()
	out := make([]tree.ID, len(labels))
	for i, l := range labels {
		id := tr.FindLabel(l)
		if id == tree.None {
			t.Fatalf("label %q not in tree", l)
		}
		out[i] = id
	}
	return out
}

// TestFig2OneChannel reproduces the paper's Fig. 2(a) allocation
// 1 3 E 4 C D 2 A B and its data wait of 6.01 buckets.
func TestFig2OneChannel(t *testing.T) {
	tr := tree.Fig1()
	seq := ids(t, tr, "1", "3", "E", "4", "C", "D", "2", "A", "B")
	a, err := FromSequence(tr, seq)
	if err != nil {
		t.Fatal(err)
	}
	want := 421.0 / 70.0 // = 6.0142..., printed as 6.01 in the paper
	if got := a.DataWait(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DataWait = %v, want %v", got, want)
	}
	if a.NumSlots() != 9 || a.Channels() != 1 {
		t.Fatalf("slots=%d channels=%d", a.NumSlots(), a.Channels())
	}
}

// TestFig2TwoChannels reproduces Fig. 2(b): slots {1},{2,3},{A,B},{4,E},{C,D}
// with data wait 3.88 buckets.
func TestFig2TwoChannels(t *testing.T) {
	tr := tree.Fig1()
	levels := [][]tree.ID{
		ids(t, tr, "1"),
		ids(t, tr, "2", "3"),
		ids(t, tr, "A", "B"),
		ids(t, tr, "4", "E"),
		ids(t, tr, "C", "D"),
	}
	a, err := FromLevels(tr, 2, levels)
	if err != nil {
		t.Fatal(err)
	}
	want := 272.0 / 70.0 // = 3.8857..., printed as 3.88 in the paper
	if got := a.DataWait(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DataWait = %v, want %v", got, want)
	}
	// Channel-preference rules: root on C1; 2 follows parent 1 onto C1;
	// A follows 2 onto C1; 4 follows 3 onto C2; C follows 4 onto C2.
	if ch := a.Channel(tr.FindLabel("1")); ch != 1 {
		t.Errorf("root on channel %d, want 1", ch)
	}
	if ch := a.Channel(tr.FindLabel("2")); ch != 1 {
		t.Errorf("node 2 on channel %d, want parent's channel 1", ch)
	}
	if ch := a.Channel(tr.FindLabel("A")); ch != 1 {
		t.Errorf("node A on channel %d, want parent's channel 1", ch)
	}
	if ch := a.Channel(tr.FindLabel("4")); ch != a.Channel(tr.FindLabel("3")) {
		t.Errorf("node 4 should share channel with parent 3")
	}
}

func TestValidateRejectsChildBeforeParent(t *testing.T) {
	tr := tree.Fig1()
	// A before its parent 2.
	seq := ids(t, tr, "1", "A", "2", "B", "3", "E", "4", "C", "D")
	if _, err := FromSequence(tr, seq); err == nil {
		t.Fatal("want feasibility error: child before parent")
	}
	// Same slot is also infeasible (k=2: parent and child together).
	levels := [][]tree.ID{
		ids(t, tr, "1"),
		ids(t, tr, "2", "A"), // A is child of 2
		ids(t, tr, "3", "B"),
		ids(t, tr, "E", "4"),
		ids(t, tr, "C", "D"),
	}
	if _, err := FromLevels(tr, 2, levels); err == nil {
		t.Fatal("want feasibility error: child in same slot as parent")
	}
}

func TestFromLevelsErrors(t *testing.T) {
	tr := tree.Fig1()
	t.Run("too many per slot", func(t *testing.T) {
		if _, err := FromLevels(tr, 1, [][]tree.ID{ids(t, tr, "1", "2")}); err == nil {
			t.Fatal("want error for overloaded slot")
		}
	})
	t.Run("node missing", func(t *testing.T) {
		if _, err := FromSequence(tr, ids(t, tr, "1", "2", "A")); err == nil {
			t.Fatal("want error for unplaced nodes")
		}
	})
	t.Run("node duplicated", func(t *testing.T) {
		if _, err := FromSequence(tr, ids(t, tr, "1", "2", "A", "A", "B", "3", "E", "4", "C")); err == nil {
			t.Fatal("want error for duplicate node")
		}
	})
	t.Run("zero channels", func(t *testing.T) {
		if _, err := FromLevels(tr, 0, nil); err == nil {
			t.Fatal("want error for k=0")
		}
	})
	t.Run("unknown id", func(t *testing.T) {
		if _, err := FromLevels(tr, 1, [][]tree.ID{{tree.ID(99)}}); err == nil {
			t.Fatal("want error for unknown node")
		}
	})
}

func TestFromPositions(t *testing.T) {
	tr := tree.Fig1()
	// Rebuild Fig. 2(b) with explicit positions.
	pos := make([]Position, tr.NumNodes())
	place := func(label string, ch, slot int) {
		pos[tr.FindLabel(label)] = Position{Channel: ch, Slot: slot}
	}
	place("1", 1, 1)
	place("2", 1, 2)
	place("3", 2, 2)
	place("A", 1, 3)
	place("B", 2, 3)
	place("4", 1, 4)
	place("E", 2, 4)
	place("C", 1, 5)
	place("D", 2, 5)
	a, err := FromPositions(tr, 2, pos)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.DataWait(); math.Abs(got-272.0/70.0) > 1e-12 {
		t.Fatalf("DataWait = %v", got)
	}
	if a.NumSlots() != 5 {
		t.Fatalf("NumSlots = %d", a.NumSlots())
	}
	// Wrong length must error.
	if _, err := FromPositions(tr, 2, pos[:3]); err == nil {
		t.Fatal("want error for short position slice")
	}
}

func TestStringRendering(t *testing.T) {
	tr := tree.Fig1()
	levels := [][]tree.ID{
		ids(t, tr, "1"),
		ids(t, tr, "2", "3"),
		ids(t, tr, "A", "B"),
		ids(t, tr, "4", "E"),
		ids(t, tr, "C", "D"),
	}
	a, err := FromLevels(tr, 2, levels)
	if err != nil {
		t.Fatal(err)
	}
	s := a.String()
	if !strings.HasPrefix(s, "C1: 1 ") {
		t.Errorf("String should start with C1 row: %q", s)
	}
	if !strings.Contains(s, "\nC2: - ") {
		t.Errorf("C2 slot 1 should be empty: %q", s)
	}
	if strings.Count(s, "\n") != 1 {
		t.Errorf("want 2 rows: %q", s)
	}
}

func TestLevelsRoundTrip(t *testing.T) {
	tr := tree.Fig1()
	in := [][]tree.ID{
		ids(t, tr, "1"),
		ids(t, tr, "2", "3"),
		ids(t, tr, "A", "B"),
		ids(t, tr, "4", "E"),
		ids(t, tr, "C", "D"),
	}
	a, err := FromLevels(tr, 2, in)
	if err != nil {
		t.Fatal(err)
	}
	out := a.Levels()
	if len(out) != len(in) {
		t.Fatalf("Levels len = %d, want %d", len(out), len(in))
	}
	for s := range in {
		if len(out[s]) != len(in[s]) {
			t.Fatalf("slot %d: %d nodes, want %d", s+1, len(out[s]), len(in[s]))
		}
	}
}

func TestJSONEncoding(t *testing.T) {
	tr := tree.Fig1()
	a, err := FromSequence(tr, ids(t, tr, "1", "2", "A", "B", "3", "E", "4", "C", "D"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Channels int        `json:"channels"`
		Slots    int        `json:"slots"`
		Grid     [][]string `json:"grid"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Channels != 1 || decoded.Slots != 9 || len(decoded.Grid) != 1 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Grid[0][0] != "1" || decoded.Grid[0][8] != "D" {
		t.Fatalf("grid = %v", decoded.Grid[0])
	}
}

// TestFormatMultiChannelDeadSlots pins both renderings of a 3-channel
// allocation whose grid is not full: String draws "-" in every dead
// slot, the JSON grid holds "" there, the two agree cell for cell, and
// the JSON survives a marshal → decode → re-marshal round trip byte for
// byte (there is no UnmarshalJSON; the grid form is the interchange
// format consumed by external tooling).
func TestFormatMultiChannelDeadSlots(t *testing.T) {
	tr := tree.Fig1()
	levels := [][]tree.ID{
		ids(t, tr, "1"),
		ids(t, tr, "2", "3"),
		ids(t, tr, "A", "B", "E"),
		ids(t, tr, "4"),
		ids(t, tr, "C", "D"),
	}
	a, err := FromLevels(tr, 3, levels)
	if err != nil {
		t.Fatal(err)
	}

	s := a.String()
	lines := strings.Split(s, "\n")
	if len(lines) != 3 {
		t.Fatalf("String has %d rows, want 3:\n%s", len(lines), s)
	}
	dead := 3*5 - tr.NumNodes() // 15 grid cells, 9 nodes
	if got := strings.Count(s, "-"); got != dead {
		t.Errorf("String renders %d dead slots, want %d:\n%s", got, dead, s)
	}
	for ch := 1; ch <= 3; ch++ {
		prefix := fmt.Sprintf("C%d: ", ch)
		if !strings.HasPrefix(lines[ch-1], prefix) {
			t.Fatalf("row %d does not start with %q: %q", ch, prefix, lines[ch-1])
		}
		cells := strings.Split(strings.TrimPrefix(lines[ch-1], prefix), " ")
		if len(cells) != 5 {
			t.Fatalf("row %d has %d cells, want 5: %q", ch, len(cells), lines[ch-1])
		}
		for slot := 1; slot <= 5; slot++ {
			want := "-"
			if id := a.At(ch, slot); id != tree.None {
				want = tr.Label(id)
			}
			if cells[slot-1] != want {
				t.Errorf("String cell (%d,%d) = %q, want %q", ch, slot, cells[slot-1], want)
			}
		}
	}

	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Channels int        `json:"channels"`
		Slots    int        `json:"slots"`
		Grid     [][]string `json:"grid"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Channels != 3 || decoded.Slots != 5 || len(decoded.Grid) != 3 {
		t.Fatalf("decoded = %+v", decoded)
	}
	for ch := 1; ch <= 3; ch++ {
		for slot := 1; slot <= 5; slot++ {
			want := ""
			if id := a.At(ch, slot); id != tree.None {
				want = tr.Label(id)
			}
			if got := decoded.Grid[ch-1][slot-1]; got != want {
				t.Errorf("JSON cell (%d,%d) = %q, want %q", ch, slot, got, want)
			}
		}
	}
	again, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Errorf("round trip not byte-identical:\n%s\n%s", data, again)
	}
}

func TestAtLookup(t *testing.T) {
	tr := tree.Fig1()
	a, err := FromSequence(tr, ids(t, tr, "1", "2", "A", "B", "3", "E", "4", "C", "D"))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.At(1, 1); got != tr.Root() {
		t.Errorf("At(1,1) = %v, want root", got)
	}
	if got := a.At(1, 99); got != tree.None {
		t.Errorf("At(1,99) = %v, want None", got)
	}
}

// Property: preorder-sequence allocations of random trees are always
// feasible (preorder puts every parent before its children), and the data
// wait is between the best case (all weight at slot 1) and worst case
// (all weight at the last slot).
func TestQuickPreorderAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(30)
		tr, err := workload.Random(workload.RandomConfig{NumData: n}, rng)
		if err != nil {
			return false
		}
		a, err := FromSequence(tr, tr.Preorder())
		if err != nil {
			return false
		}
		w := a.DataWait()
		return w >= 1 && w <= float64(tr.NumNodes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: spreading a preorder sequence over k channels level-by-level
// (k nodes per slot in preorder) is feasible whenever parents land in
// earlier slots, and never increases the cycle length beyond ceil(n/k).
func TestQuickLevelPackingFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		tr, err := workload.FullMAry(2+rng.Intn(2), 3, stats.Uniform{Lo: 1, Hi: 50}, rng)
		if err != nil {
			return false
		}
		// Pack whole tree levels into slots: level L at slot L. Needs
		// k >= MaxLevelWidth (Corollary 1 layout).
		k := tr.MaxLevelWidth()
		levels := make([][]tree.ID, tr.Depth())
		for l := 1; l <= tr.Depth(); l++ {
			levels[l-1] = tr.LevelNodes(l)
		}
		a, err := FromLevels(tr, k, levels)
		if err != nil {
			return false
		}
		return a.NumSlots() == tr.Depth() && a.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDataWait(b *testing.B) {
	tr := tree.Fig1()
	a, err := FromSequence(tr, tr.Preorder())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.DataWait()
	}
}

// TestValidateNamesFirstOffender pins the exact error of each feasibility
// failure, including which nodes a shared position names when three
// nodes collide: the scan goes by node ID, so the first two IDs on the
// cell are reported.
func TestValidateNamesFirstOffender(t *testing.T) {
	tr := tree.Fig1()
	seq := ids(t, tr, "1", "2", "A", "B", "3", "E", "4", "C", "D")
	base := make([]Position, tr.NumNodes())
	for i, id := range seq {
		base[id] = Position{Channel: 1, Slot: i + 1}
	}
	for _, tc := range []struct {
		name string
		edit func(pos []Position)
		want string
	}{
		{"channel out of range", func(pos []Position) {
			pos[tr.FindLabel("B")].Channel = 3
			pos[tr.FindLabel("C")].Channel = 0
		}, "alloc: node B on channel 3 of 2"},
		{"slot below 1", func(pos []Position) {
			pos[tr.FindLabel("E")].Slot = 0
		}, "alloc: node E at slot 0 of 9"},
		{"shared position", func(pos []Position) {
			for _, l := range []string{"D", "C", "4"} {
				pos[tr.FindLabel(l)] = Position{Channel: 2, Slot: 7}
			}
		}, "alloc: nodes 4 and C share channel 2 slot 7"},
		{"child before parent", func(pos []Position) {
			pos[tr.FindLabel("A")], pos[tr.FindLabel("2")] = pos[tr.FindLabel("2")], pos[tr.FindLabel("A")]
		}, "alloc: child A (slot 2) not after parent 2 (slot 3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pos := append([]Position(nil), base...)
			tc.edit(pos)
			_, err := FromPositions(tr, 2, pos)
			if err == nil || err.Error() != tc.want { //nolint:bcast-errsentinel // which nodes the message names is the contract under test; these errors have no sentinel
				t.Fatalf("err = %v, want %s", err, tc.want)
			}
		})
	}
}

// TestLevelsMatchesAtScan: the bucketed Levels equals one At lookup per
// (slot, channel), empty slots included as nil.
func TestLevelsMatchesAtScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		tr, err := workload.Random(workload.RandomConfig{NumData: 1 + rng.Intn(30)}, rng)
		if err != nil {
			return false
		}
		// Spread the preorder over k channels with random empty slots.
		k := 1 + rng.Intn(4)
		pos := make([]Position, tr.NumNodes())
		slot, ch := 1, 1
		for _, id := range tr.Preorder() {
			if ch > k || rng.Intn(4) == 0 {
				slot += 1 + rng.Intn(2)
				ch = 1
			}
			pos[id] = Position{Channel: ch, Slot: slot}
			ch++
			if tr.IsIndex(id) {
				slot++
				ch = 1
			}
		}
		a, err := FromPositions(tr, k, pos)
		if err != nil {
			return false
		}
		want := make([][]tree.ID, a.NumSlots())
		for s := 1; s <= a.NumSlots(); s++ {
			for c := 1; c <= k; c++ {
				if id := a.At(c, s); id != tree.None {
					want[s-1] = append(want[s-1], id)
				}
			}
		}
		return reflect.DeepEqual(a.Levels(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
