package mapmatch

// SingleTargetSearch returns a copy of m whose sessions search routes with
// the single-target search the search trees replaced (singleTarget in
// session_test.go), for the tests outside the package that hold the two to
// the same answers.
func SingleTargetSearch(m *Matcher) *Matcher {
	ref := *m
	ref.reference = func() findFunc { return new(singleTarget).find }
	return &ref
}
