package analysis

import (
	"strings"
	"testing"
)

// FuzzNolintDirective hammers the directive parser with arbitrary
// comment text. The parser is the one piece of bcast-vet that consumes
// attacker-shaped input (any comment in any reviewed file), so it must
// never panic and must hold its structural invariants.
func FuzzNolintDirective(f *testing.F) {
	f.Add("//nolint:bcast-determinism // clock injected by caller")
	f.Add("//nolint:bcast-determinism,bcast-errsentinel // both audited upstream")
	f.Add("//nolint:bcast-pooledreturn")
	f.Add("//nolint:bcast-pooledreturn //")
	f.Add("//nolint:bcast-pooledreturn // ...")
	f.Add("//nolint:bcast-lockdiscipline // -- reviewed: lock released in callee --")
	f.Add("//nolint:")
	f.Add("//nolint:gosec // not ours")
	f.Add("// nolint:bcast-obsregistry")
	f.Add("/* want `directive needs a reason` */")
	f.Add("//nolint:bcast-,bcast-budgetflow")
	f.Add("//nolint:bcast-bcast-")
	f.Add("//\x00nolint:bcast-determinism")
	f.Fuzz(func(t *testing.T, text string) {
		names, hasReason, ok := parseNolintDirective(text)
		if !ok {
			if names != nil || hasReason {
				t.Fatalf("!ok must imply zero value results, got (%v, %v)", names, hasReason)
			}
			return
		}
		if len(names) == 0 {
			t.Fatal("ok with no analyzer names")
		}
		for _, n := range names {
			if n == "" {
				t.Fatal("empty analyzer name survived parsing")
			}
			if strings.ContainsAny(n, ", \t") {
				t.Fatalf("analyzer name %q not split on commas", n)
			}
			if strings.HasPrefix(n, "bcast-") {
				t.Fatalf("analyzer name %q kept its bcast- prefix", n)
			}
		}
		// Parsing is pure: the same text always parses the same way.
		names2, hasReason2, ok2 := parseNolintDirective(text)
		if !ok2 || hasReason2 != hasReason || len(names2) != len(names) {
			t.Fatalf("re-parse diverged: (%v, %v, %v) vs (%v, %v, %v)",
				names, hasReason, ok, names2, hasReason2, ok2)
		}
		for i := range names {
			if names[i] != names2[i] {
				t.Fatalf("re-parse diverged at name %d: %q vs %q", i, names[i], names2[i])
			}
		}
	})
}
