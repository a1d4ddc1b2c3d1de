package bad

import (
	"fmt"
	"strings"
)

// Error text reaches a comparison through fmt or one local variable.

func SprintText(err error) bool {
	return fmt.Sprint(err) == "retry budget exhausted" // want `comparing err\.Error\(\) text`
}

func SprintfText(err error) bool {
	return fmt.Sprintf("%v", err) != "retry budget exhausted" // want `comparing err\.Error\(\) text`
}

func MatchThroughVar(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "budget") // want `matching err\.Error\(\) with strings\.Contains`
}

func CompareThroughVar(err error) bool {
	if got := fmt.Sprint(err); got != "retry budget exhausted" { // want `comparing err\.Error\(\) text`
		return false
	}
	return true
}

func PrefixThroughVar(err error) bool {
	text := fmt.Sprintf("%s", err)
	return strings.HasPrefix(text, "retry") // want `matching err\.Error\(\) with strings\.HasPrefix`
}
