package stats

import "testing"

func TestPerQueueReduction(t *testing.T) {
	pq := NewPerQueue(4)
	pq.Set(0, 100, 100, 0)
	pq.Set(1, 100, 90, 10)
	pq.Set(2, 100, 100, 0)
	pq.Set(3, 100, 100, 0)

	if pq.TotalSteered() != 400 || pq.TotalDelivered() != 390 || pq.TotalDropped() != 10 {
		t.Fatalf("totals %d/%d/%d", pq.TotalSteered(), pq.TotalDelivered(), pq.TotalDropped())
	}
	if got := pq.Share(1); got != 0.25 {
		t.Fatalf("share = %v", got)
	}
	if got := pq.DropFraction(1); got != 0.1 {
		t.Fatalf("drop fraction = %v", got)
	}
	if got := pq.DropFraction(0); got != 0 {
		t.Fatalf("lossless queue drop fraction = %v", got)
	}
	if got := pq.Imbalance(); got != 1.0 {
		t.Fatalf("balanced imbalance = %v", got)
	}
}

func TestPerQueueImbalance(t *testing.T) {
	pq := NewPerQueue(4)
	pq.Set(0, 400, 400, 0) // one hot queue
	if got := pq.Imbalance(); got != 4.0 {
		t.Fatalf("imbalance = %v, want 4.0 (everything on one of four queues)", got)
	}
	empty := NewPerQueue(2)
	if empty.Imbalance() != 0 || empty.Share(0) != 0 {
		t.Fatal("empty reduction must read zero")
	}
}
