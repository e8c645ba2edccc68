package digest

import (
	"sync"
	"testing"

	"repro/internal/mail"
)

var bob = mail.MustParseAddress("bob@corp.example")

func TestSeries(t *testing.T) {
	b := NewBook()
	if got := b.Series(bob); len(got) != 0 {
		t.Fatalf("Series on empty book = %v", got)
	}
	b.Record(bob, 2)
	b.Record(bob, 0) // empty day recorded as 0
	b.Record(bob, 5)
	b.Record(mail.MustParseAddress("amy@corp.example"), 9)
	got := b.Series(bob)
	want := []int{2, 0, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Series = %v, want %v", got, want)
	}
	// The returned slice is the caller's: writing it leaves the book alone.
	got[0] = 99
	if again := b.Series(bob); again[0] != 2 {
		t.Fatalf("Series aliases the book: %v", again)
	}
	// Users are keyed by canonical address: the local part
	// case-insensitively.
	if got := b.Series(mail.MustParseAddress("BOB@corp.example")); len(got) != 3 {
		t.Fatalf("Series(BOB) = %v", got)
	}
}

func TestConcurrentRecord(t *testing.T) {
	b := NewBook()
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Record(bob, i%4)
		}(i)
	}
	wg.Wait()
	got := b.Series(bob)
	if len(got) != 30 {
		t.Fatalf("Series length = %d, want 30", len(got))
	}
	sum := 0
	for _, n := range got {
		sum += n
	}
	if sum != 7*(0+1+2+3)+0+1 { // i%4 summed over i = 0..29
		t.Fatalf("Series sums to %d", sum)
	}
}
