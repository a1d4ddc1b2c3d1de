// Package bad compares sentinel errors every forbidden way (identity,
// switch dispatch, and string matching) and formats them with verbs
// other than %w.
package bad

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

var ErrBudget = errors.New("retry budget exhausted")

var ErrRetryBudget = errors.New("retry budget exhausted")

func Check(err error) bool {
	return err == ErrBudget // want `sentinel ErrBudget compared with ==`
}

func CheckNeq(err error) bool {
	if err != ErrBudget { // want `sentinel ErrBudget compared with !=`
		return true
	}
	return false
}

func Reversed(err error) bool {
	return ErrBudget == err // want `sentinel ErrBudget compared with ==`
}

func Text(err error) bool {
	return err.Error() == "retry budget exhausted" // want `comparing err\.Error\(\) text`
}

func Match(err error) bool {
	return strings.Contains(err.Error(), "budget") // want `matching err\.Error\(\) with strings\.Contains`
}

func Dispatch(err error) int {
	switch err {
	case ErrBudget: // want `switch matches sentinel ErrBudget`
		return 1
	}
	return 0
}

// UnwrappedBudgetErr formats the sentinel with %v, so errors.Is stops
// matching at this wrap.
func UnwrappedBudgetErr(retries int) error {
	return fmt.Errorf("tune failed after %d retries: %v", retries, ErrRetryBudget) // want `sentinel ErrRetryBudget is formatted without %w`
}

// Imported sentinels count, and so do the verbs fmt routes by index or
// spends on a * width.
func Unwrapped(n int) []error {
	return []error{
		fmt.Errorf("read: %s", io.EOF),                       // want `sentinel EOF is formatted without %w`
		fmt.Errorf("%[2]d %[1]v", ErrBudget, n),              // want `sentinel ErrBudget is formatted without %w`
		fmt.Errorf("%*w", ErrBudget, n),                      // want `sentinel ErrBudget is formatted without %w`
		fmt.Errorf("%-5%%w %d", ErrBudget, ErrBudget, n),     // want `sentinel ErrBudget is formatted without %w`
		fmt.Errorf("%w %[5]w", ErrBudget, ErrRetryBudget, n), // want `sentinel ErrRetryBudget is formatted without %w`
	}
}
