package main

import (
	"slices"
	"testing"
)

// TestAttackListChecksEveryNameFirst: an unknown name anywhere in the list
// is refused before any attack runs, and "all" expands in place.
func TestAttackListChecksEveryNameFirst(t *testing.T) {
	for _, args := range [][]string{{"bogus"}, {"blind", "bogus"}, {"ppp", "all", "pocc"}, {"All"}} {
		if got, err := attackList(args); err == nil {
			t.Errorf("attackList(%q) = %q, want an error", args, got)
		}
	}
	got, err := attackList([]string{"pht", "all", "rsa"})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]string{"pht"}, allAttacks...), "rsa")
	if !slices.Equal(got, want) {
		t.Fatalf("attackList = %q, want %q", got, want)
	}
}
