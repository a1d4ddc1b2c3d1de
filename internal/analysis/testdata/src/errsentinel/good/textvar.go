package good

import (
	"fmt"
	"strings"
)

// Text that is not an error's may be compared, whatever formats it.

func FormatNumber(n int) bool {
	s := fmt.Sprint(n)
	return s == "3" || fmt.Sprintf("%v", n) == "3"
}

func FormatMessage(n int) bool {
	msg := fmt.Sprintf("%d retries", n)
	return strings.Contains(msg, "retries")
}

// Shadow keys the definition by variable, not by name: the inner msg
// is not the error text.
func Shadow(err error) (int, bool) {
	msg := err.Error()
	n := len(msg)
	{
		msg := "budget"
		return n, msg == "budget"
	}
}
