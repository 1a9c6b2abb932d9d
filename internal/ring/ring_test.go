package ring

import "testing"

func TestFIFOOrder(t *testing.T) {
	var r FIFO[int]
	if r.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 0; i < 1000; i++ {
		r.Push(i)
	}
	if r.Len() != 1000 {
		t.Fatalf("Len = %d", r.Len())
	}
	if *r.Peek() != 0 {
		t.Fatalf("Peek = %d", *r.Peek())
	}
	for i := 0; i < 1000; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop %d = %d", i, got)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
}

func TestFIFOInterleaved(t *testing.T) {
	var r FIFO[int]
	next, want := 0, 0
	// Interleave pushes and pops with a persistent backlog so the
	// compaction path (head ≥ 64, dead prefix ≥ half) is exercised.
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
}

// Steady-state queueing must not allocate: the backing array is recycled
// once warm, whatever the head position.
func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var r FIFO[int]
	for i := 0; i < 256; i++ {
		r.Push(i)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			r.Push(i)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f per cycle, want 0", avg)
	}
}

// Pop must zero vacated slots so popped pointers are not retained by the
// backing array.
func TestFIFOClearsSlots(t *testing.T) {
	var r FIFO[*int]
	v := 7
	r.Push(&v)
	r.Push(&v)
	r.Pop()
	if got := r.buf[0]; got != nil {
		t.Fatal("popped slot still holds the pointer")
	}
}
