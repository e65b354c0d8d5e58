package sim

import (
	"fmt"

	"smallbuffers/internal/metrics"
	"smallbuffers/internal/network"
	"smallbuffers/internal/packet"
)

// ConservationCheck is an Observer asserting packet conservation after
// every round: every injected packet is exactly one of delivered, buffered,
// or staged. It catches engine or protocol accounting bugs (duplication,
// loss, overshooting a destination) that no space bound would notice.
type ConservationCheck struct {
	metrics.NopObserver
	injected  int
	delivered int
	// Err records the first violation.
	Err error
}

// NewConservationCheck returns a fresh checker; register it with
// WithObservers.
func NewConservationCheck() *ConservationCheck { return &ConservationCheck{} }

// OnInject implements Observer.
func (c *ConservationCheck) OnInject(round int, pkts []packet.Packet) {
	c.injected += len(pkts)
}

// OnForward implements Observer.
func (c *ConservationCheck) OnForward(round int, moves []metrics.Move) {
	for _, m := range moves {
		if m.Delivered {
			c.delivered++
		}
	}
}

// OnRoundEnd implements Observer.
func (c *ConservationCheck) OnRoundEnd(round int, v metrics.View) {
	if c.Err != nil {
		return
	}
	buffered := 0
	staged := 0
	for i := 0; i < v.Net().Len(); i++ {
		node := network.NodeID(i)
		buffered += v.Load(node)
		staged += v.Staged(node)
		// No packet may sit at or past its destination.
		for _, p := range v.Packets(node) {
			if p.Dst == node || !v.Net().Reaches(node, p.Dst) {
				c.Err = fmt.Errorf("sim: round %d: packet %v stored at %d, at/past its destination", round, p, node)
				return
			}
		}
	}
	if total := c.delivered + buffered + staged; total != c.injected {
		c.Err = fmt.Errorf("sim: round %d: conservation violated: delivered %d + buffered %d + staged %d = %d ≠ injected %d",
			round, c.delivered, buffered, staged, total, c.injected)
	}
}
