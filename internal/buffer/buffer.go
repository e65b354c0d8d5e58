// Package buffer implements the per-node packet stores of the simulation.
//
// A node's buffer holds packets in arrival order. The paper's algorithms
// never address a buffer as a whole: they partition it into LIFO
// pseudo-buffers ("virtual output queues", §3.2 footnote 2) keyed by an
// algorithm-specific class — the destination for PPTS, the level-λ
// intermediate destination for HPTS. Each protocol in internal/core builds
// that partition itself from Packets, in the shape its Decide needs, so
// this package is only the flat store the engine owns. Arrival order is
// what makes the partition LIFO: within one class, the packet that comes
// last in Packets is the top.
package buffer

import (
	"fmt"

	"smallbuffers/internal/packet"
)

// Buffer is the ordered multiset of packets stored at one node. Packets are
// kept in arrival order (ties broken by injection order, i.e. packet ID,
// which the engine guarantees by appending injections in ID order). The
// zero value is an empty buffer ready to use.
type Buffer struct {
	pkts []packet.Packet
}

// Len returns the number of stored packets.
func (b *Buffer) Len() int { return len(b.pkts) }

// Add appends a packet (it becomes the newest / top-of-LIFO element of its
// pseudo-buffer).
func (b *Buffer) Add(p packet.Packet) { b.pkts = append(b.pkts, p) }

// Reset empties the buffer, retaining its backing storage so a reused
// engine run does not reallocate.
func (b *Buffer) Reset() { b.pkts = b.pkts[:0] }

// Packets returns the stored packets in arrival order. The returned slice
// is shared; callers must not modify it.
func (b *Buffer) Packets() []packet.Packet { return b.pkts }

// Remove deletes the packet with the given ID, preserving order, and
// returns it. It returns an error if the packet is not present.
func (b *Buffer) Remove(id packet.ID) (packet.Packet, error) {
	for i, p := range b.pkts {
		if p.ID == id {
			b.pkts = append(b.pkts[:i], b.pkts[i+1:]...)
			return p, nil
		}
	}
	return packet.Packet{}, fmt.Errorf("buffer: packet #%d not present", id)
}

// Contains reports whether the packet with the given ID is stored here.
func (b *Buffer) Contains(id packet.ID) bool {
	for _, p := range b.pkts {
		if p.ID == id {
			return true
		}
	}
	return false
}
