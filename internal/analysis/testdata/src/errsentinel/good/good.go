// Package good tests sentinels the sanctioned way and keeps the
// idiomatic nil checks the analyzer must not flag.
package good

import (
	"errors"
	"fmt"
	"io"
)

var ErrBudget = errors.New("retry budget exhausted")

func Check(err error) bool {
	return errors.Is(err, ErrBudget)
}

func NilCheck(err error) bool {
	return err != nil
}

func NilCheckEq(err error) bool {
	return nil == err
}

func Wrap(limit int) error {
	return fmt.Errorf("%w (limit %d)", ErrBudget, limit)
}

// WrapAnyWay wraps through explicit indexes, after a * width, next to
// %%, and twice in one call; a non-sentinel error may use any verb.
func WrapAnyWay(limit int, err error) []error {
	local := errors.New("local")
	return []error{
		fmt.Errorf("%[2]d: %[1]w", ErrBudget, limit),
		fmt.Errorf("%*d%% %w", limit, limit, ErrBudget),
		fmt.Errorf("%[1]v is %[1]w", ErrBudget),
		fmt.Errorf("%w, %w", ErrBudget, io.EOF),
		fmt.Errorf("%v %v", err, local),
	}
}

func LocalCompare() bool {
	a, b := 1, 2
	return a == b
}
