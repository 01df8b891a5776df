package channel

import (
	"fmt"

	"repro/internal/ioa"
)

// FIFO is a first-in-first-out physical channel, provided for contrast with
// the paper's non-FIFO model: protocols such as the alternating bit
// protocol [BSW69] are correct over lossy FIFO channels but break over
// non-FIFO channels. Deliveries occur strictly in send order; copies may be
// dropped but never reordered.
type FIFO struct {
	dir   ioa.Dir
	queue []ioa.Packet
}

// NewFIFO returns an empty FIFO channel for the given direction.
func NewFIFO(dir ioa.Dir) *FIFO {
	return &FIFO{dir: dir}
}

// Send enqueues a copy of p.
func (c *FIFO) Send(p ioa.Packet) { c.queue = append(c.queue, p) }

// DeliverHead dequeues and returns the oldest in-transit packet.
func (c *FIFO) DeliverHead() (ioa.Packet, error) {
	if len(c.queue) == 0 {
		return ioa.Packet{}, fmt.Errorf("channel %s: deliver on empty FIFO channel", c.dir)
	}
	p := c.queue[0]
	c.queue = c.queue[1:]
	return p, nil
}

// DropHead discards the oldest in-transit packet.
func (c *FIFO) DropHead() error {
	if len(c.queue) == 0 {
		return fmt.Errorf("channel %s: drop on empty FIFO channel", c.dir)
	}
	c.queue = c.queue[1:]
	return nil
}

// Head returns the oldest in-transit packet without removing it.
func (c *FIFO) Head() (ioa.Packet, bool) {
	if len(c.queue) == 0 {
		return ioa.Packet{}, false
	}
	return c.queue[0], true
}

// CountHeader reports the number of queued copies with the given header.
func (c *FIFO) CountHeader(h string) int {
	n := 0
	for _, p := range c.queue {
		if p.Header == h {
			n++
		}
	}
	return n
}

// Key returns a canonical encoding of the queue contents (order matters).
func (c *FIFO) Key() string {
	s := "["
	for i, p := range c.queue {
		if i > 0 {
			s += " "
		}
		s += p.String()
	}
	return s + "]"
}

// Clone returns an independent copy of the channel state.
func (c *FIFO) Clone() *FIFO {
	q := make([]ioa.Packet, len(c.queue))
	copy(q, c.queue)
	return &FIFO{dir: c.dir, queue: q}
}
