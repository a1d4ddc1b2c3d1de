package analysis

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestErrSentinelFiresOnIdentityAndStringMatching(t *testing.T) {
	RunFixture(t, ErrSentinel, "fix/errs/bad", "testdata/src/errsentinel/bad")
}

func TestErrSentinelSilentOnErrorsIsAndNilChecks(t *testing.T) {
	RunFixture(t, ErrSentinel, "fix/errs/good", "testdata/src/errsentinel/good")
}

// probe is an operand that records, through fmt.Formatter, every verb
// fmt formats it with. It is also an error, so fmt.Errorf reports which
// probes a %w wrapped (fmt hands a wrapped operand to Format as 'v').
type probe struct {
	id  int
	log *[]probeUse
}

type probeUse struct {
	id   int
	verb rune
}

func (p probe) Error() string { return "probe" }

func (p probe) Format(s fmt.State, verb rune) {
	*p.log = append(*p.log, probeUse{p.id, verb})
	io.WriteString(s, "\x00")
}

// fmtVerbs runs fmt.Errorf(format) over nargs probes and returns, per
// operand, the verb verbForArg must report: 'w' when errors.Is finds the
// probe, otherwise the first verb fmt formatted it with, or 0. ok is
// false for formats the probes cannot observe: %T and %p never reach
// Format, and text that could pass for fmt's own EXTRA suffix or the
// probe's marker.
func fmtVerbs(format string, nargs int) (want []rune, ok bool) {
	if strings.ContainsAny(format, "Tp\x00") || strings.Contains(format, "EXTRA") {
		return nil, false
	}
	var log []probeUse
	args := make([]any, nargs)
	for i := range args {
		args[i] = probe{i, &log}
	}
	err := fmt.Errorf(format, args...)
	// Leftover operands are printed after "%!(EXTRA ", one marker each;
	// they are not formatted by any verb.
	if at := strings.LastIndex(err.Error(), "%!(EXTRA "); at >= 0 {
		log = log[:len(log)-strings.Count(err.Error()[at:], "\x00")]
	}
	want = make([]rune, nargs)
	for _, u := range log {
		if want[u.id] == 0 {
			want[u.id] = u.verb
		}
	}
	for i, a := range args {
		if errors.Is(err, a.(error)) {
			want[i] = 'w'
		}
	}
	return want, true
}

func checkVerbForArg(t *testing.T, format string, nargs int) {
	t.Helper()
	want, ok := fmtVerbs(format, nargs)
	if !ok {
		return
	}
	for i := range want {
		if got := verbForArg(format, nargs, i); got != want[i] {
			t.Errorf("verbForArg(%q, %d, %d) = %q, fmt formats it with %q", format, nargs, i, got, want[i])
		}
	}
}

var verbForArgCases = []string{
	"%w", "%v: %w", "%d %s %w", "100%% %w", "%%%w%%", "%-5%%w", "%5.2%%v",
	"%+v %#v % d %-08.3f %w", "%x%X%q",
	"%*d %w", "%-*d %w", "%.*f %w", "%*.*f %w", "%[2]*[1]d %w", "%[3]*.[2]*[1]f",
	"%[2]v %[1]w", "%[1]v %[1]w", "%[2]w %v", "%[3]w %d", "%[0]v %w", "%[9]v %w",
	"%[x]v %w", "%[]v %w", "%[", "%[1", "%[1]", "%[2]3d %w", "%[2].3d %w",
	"%[1]*w", "%.[2]*d %w", "%5.w", "%.", "%w%", "%", "%!w", "%é %w",
	"%\xff %w", "%12345678d %w", "%.12345678d %w", "%[12345678]d %w",
	"%d %d %d %d",
}

// TestVerbForArgMatchesFmt holds verbForArg to the real fmt on formats
// that exercise %%, flags, * width and precision, and [n] indexes, with
// fewer, as many, and more operands than the format asks for.
func TestVerbForArgMatchesFmt(t *testing.T) {
	for _, format := range verbForArgCases {
		for nargs := 0; nargs <= 4; nargs++ {
			checkVerbForArg(t, format, nargs)
		}
	}
}

func FuzzVerbForArg(f *testing.F) {
	for _, format := range verbForArgCases {
		f.Add(format, uint8(3))
	}
	f.Fuzz(func(t *testing.T, format string, nargs uint8) {
		checkVerbForArg(t, format, int(nargs%8))
	})
}
