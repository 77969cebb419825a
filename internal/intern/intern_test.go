package intern

import (
	"fmt"
	"testing"
)

type id int32

func TestSeedAndFirstUseOrder(t *testing.T) {
	tb := New[id]("", "a")
	for _, c := range []struct {
		s    string
		want id
	}{{"", 0}, {"a", 1}, {"b", 2}, {"a", 1}, {"c", 3}, {"b", 2}} {
		if got := tb.ID(c.s); got != c.want {
			t.Fatalf("ID(%q) = %d, want %d", c.s, got, c.want)
		}
	}
	if got, want := fmt.Sprint(tb.Names()), fmt.Sprint([]string{"", "a", "b", "c"}); got != want {
		t.Fatalf("Names() = %s, want %s", got, want)
	}
	if _, ok := tb.Lookup("d"); ok {
		t.Fatal("Lookup assigned an ID to an unseen string")
	}
	if got, ok := tb.Lookup("c"); !ok || got != 3 {
		t.Fatalf("Lookup(c) = %d, %v", got, ok)
	}
	if len(tb.Names()) != 4 {
		t.Fatalf("Lookup grew the table to %d", len(tb.Names()))
	}
}
