package buffer

import (
	"testing"

	"smallbuffers/internal/packet"
)

func mk(id packet.ID, dst int) packet.Packet {
	return packet.Packet{ID: id, Src: 0, Dst: 3, Inject: dst} // Dst fixed; Inject reused as payload
}

func TestBufferBasics(t *testing.T) {
	var b Buffer
	if b.Len() != 0 {
		t.Fatalf("zero-value Len = %d, want 0", b.Len())
	}
	b.Add(mk(1, 0))
	b.Add(mk(2, 0))
	b.Add(mk(3, 0))
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if !b.Contains(2) {
		t.Error("Contains(2) = false")
	}
	if b.Contains(9) {
		t.Error("Contains(9) = true")
	}
	p, err := b.Remove(2)
	if err != nil || p.ID != 2 {
		t.Fatalf("Remove(2) = %v, %v", p, err)
	}
	if b.Len() != 2 || b.Contains(2) {
		t.Error("Remove did not delete")
	}
	got := b.Packets()
	if got[0].ID != 1 || got[1].ID != 3 {
		t.Errorf("order after remove = %v, want [1 3]", got)
	}
	if _, err := b.Remove(99); err == nil {
		t.Error("Remove(99) succeeded, want error")
	}
}

func TestReset(t *testing.T) {
	var b Buffer
	b.Add(packet.Packet{ID: 1})
	b.Add(packet.Packet{ID: 2})
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", b.Len())
	}
	// Storage is retained: the next Add must not lose ordering semantics.
	b.Add(packet.Packet{ID: 3})
	if got := b.Packets(); len(got) != 1 || got[0].ID != 3 {
		t.Errorf("Packets after Reset+Add = %v", got)
	}
}
