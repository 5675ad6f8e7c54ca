package main

import (
	"strings"
	"testing"
)

// TestFixture runs the check over testdata/fixture, a module with one
// export of each kind under internal/ and in its root package, against
// allowlists that pass and that fail.
func TestFixture(t *testing.T) {
	const allow = `
# test infrastructure
other
lib.Listed item 9
`
	problems, err := check("testdata/fixture", []byte(allow))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ // sorted as text
		"fixture.go:9: fixture.Unused is exported and no non-test code uses it",
		"internal/lib/lib.go:26: lib.T.Extra is exported and no non-test code uses it",
		"internal/lib/lib.go:5: lib.Dead is exported and no non-test code uses it",
		"internal/lib/lib.go:8: lib.TestOnly is exported and no non-test code uses it",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems:\n%s\nwant %d", strings.Join(problems, "\n"), len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(problems[i], w) {
			t.Errorf("problem %d = %q, want prefix %q", i, problems[i], w)
		}
	}

	dead, pkgs, err := deadExports("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ allow, want string }{
		{"lib.Used item 9", "lib.Used is stale"},         // live: cmd/app calls it
		{"lib.PureOnly item 9", "lib.PureOnly is stale"}, // live under -tags purego
		{"lib.T.String item 9", "lib.T.String is stale"}, // satisfies fmt.Stringer
		{"lib.Gone item 9", "lib.Gone is stale"},         // no such name
		{"gone", "gone is stale"},                        // no such package
		{"lib.Dead", `lib.Dead has no "item N" tag`},
		{"lib.Dead item 9\nlib.Dead item 9", "lib.Dead is listed twice"},
		{"fixture.Facade item 9", "fixture.Facade is stale"}, // the root package's live export
	} {
		problems := applyAllow(dead, pkgs, []byte(tc.allow))
		if !strings.Contains(strings.Join(problems, "\n"), tc.want) {
			t.Errorf("allowlist %q: problems\n%s\nwant one containing %q", tc.allow, strings.Join(problems, "\n"), tc.want)
		}
	}
}
