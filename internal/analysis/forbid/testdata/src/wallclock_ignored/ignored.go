// Package wallclock_ignored exercises the //dnslint:ignore escape
// hatch: a justified directive suppresses, a bare one does not.
package wallclock_ignored

import "time"

// RealNow is the one legitimate wall-clock read, annotated.
func RealNow() time.Time {
	return time.Now() //dnslint:ignore wallclock this is the production Clock implementation
}

// AboveLine is suppressed by a directive on the preceding line.
func AboveLine() time.Time {
	//dnslint:ignore wallclock directive on the line above also counts
	return time.Now()
}

// BareDirective has no reason, so it does not suppress.
func BareDirective() time.Time {
	//dnslint:ignore wallclock
	return time.Now() // want "time.Now in determinism-critical package"
}

// WrongAnalyzer names a different analyzer, so it does not suppress.
func WrongAnalyzer() time.Time {
	return time.Now() //dnslint:ignore weakrand wrong analyzer name // want "time.Now in determinism-critical package"
}

// StaleDirective suppresses nothing: the forbidden call was removed but
// the directive stayed behind, so the directive itself is the finding.
func StaleDirective() time.Time {
	return time.Unix(0, 0) //dnslint:ignore wallclock fossil from a removed time.Now // want "stale"
}
