// Package fixture is the errwrapchain analyzer's test bed: fmt.Errorf
// calls that mix %w with a flattening verb on an error value, and the
// shapes that must stay clean.
package fixture

import (
	"errors"
	"fmt"
)

type myErr struct{ msg string }

func (e *myErr) Error() string { return e.msg }

// A failure plus the cleanup failure behind it: the second error is
// flattened to text and lost to errors.Is.
func bad(base, cleanup error) error {
	return fmt.Errorf("%w (cleanup also failed: %v)", base, cleanup) // want `errwrapchain: fmt.Errorf mixes %w with %v on an error value`
}

func badString(base error, e *myErr) error {
	return fmt.Errorf("%w (%s)", base, e) // want `errwrapchain: fmt.Errorf mixes %w with %s on an error value`
}

// The fix: both arms wrapped.
func good(base, cleanup error) error {
	return fmt.Errorf("%w (cleanup also failed: %w)", base, cleanup)
}

// %v on a non-error is ordinary formatting.
func goodNonError(base error, tries int) error {
	return fmt.Errorf("%w after %v tries", base, tries)
}

// Without a %w there is no chain to lose; flattening is a (separate,
// deliberate) choice the analyzer leaves alone.
func goodNoWrap(cleanup error) error {
	return fmt.Errorf("cleanup failed: %v", cleanup)
}

// Flag characters and indexes don't confuse the verb scan.
func badFlagged(base, cleanup error) error {
	return fmt.Errorf("%w (%+v)", base, cleanup) // want `errwrapchain: fmt.Errorf mixes %w with %v on an error value`
}

var errSentinel = errors.New("sentinel")

func goodJoin(base error) error {
	return errors.Join(base, errSentinel)
}
