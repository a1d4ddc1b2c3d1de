// Newsfeed: a wireless news service pushes 40 articles with Zipf-skewed
// popularity over 3 broadcast channels. The example contrasts the solver
// strategies (auto = sorting heuristic at this size vs forced pruned
// search on a trimmed catalog) and shows how much the skew is worth
// versus a popularity-oblivious layout.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"repro/broadcast"
)

func main() {
	const (
		articles = 40
		channels = 3
		theta    = 0.9 // Zipf skew: article 1 is hottest
	)

	items := make([]broadcast.Item, articles)
	for i := range items {
		items[i] = broadcast.Item{
			Label:  fmt.Sprintf("story-%02d", i+1),
			Key:    int64(i + 1),
			Weight: 100 / math.Pow(float64(i+1), theta),
		}
	}

	tree, err := broadcast.NewCatalogTree(items, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d articles, tree depth %d, %d index nodes\n\n",
		tree.NumData(), tree.Depth(), tree.NumIndex())

	// Auto picks Index Tree Sorting at this size — linear time.
	sched, err := broadcast.Optimize(tree, broadcast.Options{
		Channels:      channels,
		ReplicateRoot: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strategy %s: avg data wait %.3f buckets, cycle %d slots\n",
		sched.Used, sched.DataWait(), sched.CycleLen())

	// Hot stories must lead the cycle: print the first few slots.
	fmt.Println("\nbroadcast head:")
	fmt.Println(head(sched, 8))

	// How much did popularity awareness buy? Compare against the same
	// catalog with flattened weights (every story equally hot).
	flatItems := make([]broadcast.Item, len(items))
	copy(flatItems, items)
	for i := range flatItems {
		flatItems[i].Weight = 1
	}
	flatTree, err := broadcast.NewCatalogTree(flatItems, 3)
	if err != nil {
		log.Fatal(err)
	}
	flatSched, err := broadcast.Optimize(flatTree, broadcast.Options{Channels: channels})
	if err != nil {
		log.Fatal(err)
	}
	// Evaluate the oblivious layout under the *true* skewed popularity:
	// weight each item's wait by its real weight.
	oblivious := weightedWait(flatSched, items)
	fmt.Printf("\nskew-aware wait:     %.3f buckets\n", sched.DataWait())
	fmt.Printf("skew-oblivious wait: %.3f buckets (same tree shape, flat weights)\n", oblivious)
	fmt.Printf("improvement:         %.1f%%\n", 100*(1-sched.DataWait()/oblivious))

	// Per-story tail latency: the 5 hottest and 5 coldest stories.
	fmt.Println("\nper-story data wait (slots):")
	type sw struct {
		label string
		wait  int
	}
	var waits []sw
	st := sched.Alloc.Tree()
	for _, id := range st.DataIDs() {
		waits = append(waits, sw{st.Label(id), sched.Alloc.Slot(id)})
	}
	sort.SliceStable(waits, func(i, j int) bool { return waits[i].wait < waits[j].wait })
	for i, w := range waits {
		if i < 5 || i >= len(waits)-5 {
			fmt.Printf("  %-10s %d\n", w.label, w.wait)
		} else if i == 5 {
			fmt.Println("  ...")
		}
	}
}

// head renders the first n slots of every channel.
func head(s *broadcast.Schedule, n int) string {
	t := s.Alloc.Tree()
	levels := s.Alloc.Levels()
	out := ""
	for ch := 1; ch <= s.Alloc.Channels(); ch++ {
		out += fmt.Sprintf("C%d:", ch)
		for slot := 1; slot <= n && slot <= len(levels); slot++ {
			label := "-"
			for _, id := range levels[slot-1] {
				if s.Alloc.Channel(id) == ch {
					label = t.Label(id)
				}
			}
			out += " " + label
		}
		out += " ...\n"
	}
	return out
}

// weightedWait evaluates a schedule's data wait under external weights
// matched by label.
func weightedWait(s *broadcast.Schedule, trueItems []broadcast.Item) float64 {
	t := s.Alloc.Tree()
	byLabel := map[string]float64{}
	for _, it := range trueItems {
		byLabel[it.Label] = it.Weight
	}
	var num, den float64
	for _, id := range t.DataIDs() {
		w := byLabel[t.Label(id)]
		num += w * float64(s.Alloc.Slot(id))
		den += w
	}
	return num / den
}
