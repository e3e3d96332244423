package fleet

import (
	"sync"
	"time"
)

// SchedulerConfig sizes and tunes a Scheduler.
type SchedulerConfig struct {
	// Capacity bounds the number of queued items; TryEnqueue beyond it
	// reports false (the caller's backpressure path). <= 0 means unbounded.
	Capacity int
	// AgingStep is the wait per one-class promotion: an item queued for
	// N*AgingStep is served as if it were N classes higher (capped at high).
	// 0 selects DefaultAgingStep; negative disables aging.
	AgingStep time.Duration
	// Clock is the time source (tests inject a fake one; nil = time.Now).
	Clock func() time.Time
}

// DefaultAgingStep is the promotion quantum when none is configured: long
// enough that priorities mean something under bursts, short enough that a
// low job outlives any plausible high-priority storm.
const DefaultAgingStep = 30 * time.Second

// entry is one queued item with the metadata scheduling needs.
type entry[T any] struct {
	v        T
	client   string
	base     Priority
	enqueued time.Time
}

// clientQueue is one client's FIFO inside one class.
type clientQueue[T any] struct {
	client string
	items  []entry[T]
}

// class is one priority level: per-client queues and the round-robin ring
// over the clients that currently have work here.
type class[T any] struct {
	queues map[string]*clientQueue[T]
	ring   []*clientQueue[T]
	cursor int
}

// Scheduler is the fleet queue discipline: strict priority across classes
// (after aging promotion), round-robin across clients within a class, FIFO
// within a client. With a single client and a single class it degenerates to
// exactly the plain FIFO it replaced. Safe for concurrent use; Dequeue blocks
// until work arrives or stop fires.
type Scheduler[T any] struct {
	mu      sync.Mutex
	cfg     SchedulerConfig
	classes [numPriorities]class[T]
	size    int
	closed  bool
	wake    chan struct{} // closed and replaced on every enqueue/close
}

// NewScheduler builds an empty scheduler.
func NewScheduler[T any](cfg SchedulerConfig) *Scheduler[T] {
	if cfg.AgingStep == 0 {
		cfg.AgingStep = DefaultAgingStep
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Scheduler[T]{cfg: cfg, wake: make(chan struct{})}
	for i := range s.classes {
		s.classes[i].queues = make(map[string]*clientQueue[T])
	}
	return s
}

// TryEnqueue adds an item at the tail of its (class, client) queue. It
// reports false when the scheduler is at capacity or closed — never blocks.
func (s *Scheduler[T]) TryEnqueue(v T, pri Priority, client string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || (s.cfg.Capacity > 0 && s.size >= s.cfg.Capacity) {
		return false
	}
	s.pushLocked(pri, entry[T]{v: v, client: client, base: pri, enqueued: s.cfg.Clock()}, false)
	return true
}

// TryEnqueueAll atomically adds a group of items at the tail of their
// (class, client) queues, pris[i] being item i's class: either every item is
// admitted, or — if the batch would exceed capacity or the scheduler is
// closed — none is. This is the batch/portfolio admission path;
// all-or-nothing under one lock means a concurrent submitter can never
// interleave into the middle of a group and strand half of it past the
// capacity check.
func (s *Scheduler[T]) TryEnqueueAll(vs []T, pris []Priority, client string) bool {
	if len(vs) != len(pris) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || (s.cfg.Capacity > 0 && s.size+len(vs) > s.cfg.Capacity) {
		return false
	}
	now := s.cfg.Clock()
	for i, v := range vs {
		s.pushLocked(pris[i], entry[T]{v: v, client: client, base: pris[i], enqueued: now}, false)
	}
	return true
}

// EnqueueFront re-admits an item at the head of its (class, client) queue,
// keeping its original enqueue time so aging credit is preserved. This is
// the lease-expiry path: the item was already dequeued once, so it goes back
// in front of everything submitted after it, and capacity is deliberately
// not enforced — re-enqueued work was already admitted.
func (s *Scheduler[T]) EnqueueFront(v T, pri Priority, client string, enqueued time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.pushLocked(pri, entry[T]{v: v, client: client, base: pri, enqueued: enqueued}, true)
}

// pushLocked links an entry into class pri and wakes waiters. Front pushes
// also move the client to the ring's serving position, so a re-enqueued item
// is the next thing a worker sees.
func (s *Scheduler[T]) pushLocked(pri Priority, e entry[T], front bool) {
	c := &s.classes[pri]
	q, ok := c.queues[e.client]
	if !ok {
		q = &clientQueue[T]{client: e.client}
		c.queues[e.client] = q
		if front && len(c.ring) > 0 {
			at := c.cursor % len(c.ring)
			c.ring = append(c.ring[:at], append([]*clientQueue[T]{q}, c.ring[at:]...)...)
			c.cursor = at
		} else {
			c.ring = append(c.ring, q)
		}
	}
	if front {
		q.items = append([]entry[T]{e}, q.items...)
	} else {
		q.items = append(q.items, e)
	}
	s.size++
	close(s.wake)
	s.wake = make(chan struct{})
}

// effective is the class an entry is served at: its base class plus one
// promotion per AgingStep waited, capped at high.
func (s *Scheduler[T]) effective(e *entry[T], now time.Time) Priority {
	if s.cfg.AgingStep <= 0 {
		return e.base
	}
	steps := int64(now.Sub(e.enqueued) / s.cfg.AgingStep)
	p := int64(e.base) + steps
	if p > int64(PriorityHigh) {
		return PriorityHigh
	}
	if p < int64(e.base) { // overflow paranoia
		return e.base
	}
	return Priority(p)
}

// promoteLocked moves aged entries up to the class they are now served at.
// Client queues are age-ordered (FIFO plus front-pushes of older items), so
// only heads ever need to move; promoted items keep their enqueue time and
// join the tail of their client's queue in the higher class.
func (s *Scheduler[T]) promoteLocked(now time.Time) {
	if s.cfg.AgingStep <= 0 {
		return
	}
	for pri := PriorityLow; pri < PriorityHigh; pri++ {
		c := &s.classes[pri]
		for i := 0; i < len(c.ring); {
			q := c.ring[i]
			for len(q.items) > 0 {
				eff := s.effective(&q.items[0], now)
				if eff <= pri {
					break
				}
				e := q.items[0]
				q.items = q.items[1:]
				s.size-- // pushLocked re-counts it
				s.pushLocked(eff, e, false)
			}
			if len(q.items) == 0 {
				s.removeFromRingLocked(c, i)
				delete(c.queues, q.client)
				continue
			}
			i++
		}
	}
}

// removeFromRingLocked unlinks ring[i], keeping the cursor pointed at the
// same next-to-serve client.
func (s *Scheduler[T]) removeFromRingLocked(c *class[T], i int) {
	c.ring = append(c.ring[:i], c.ring[i+1:]...)
	if c.cursor > i {
		c.cursor--
	}
	if c.cursor >= len(c.ring) {
		c.cursor = 0
	}
}

// pickLocked dequeues the next item: highest effective class first,
// round-robin across that class's clients, FIFO within a client.
func (s *Scheduler[T]) pickLocked(now time.Time) (entry[T], bool) {
	s.promoteLocked(now)
	for pri := PriorityHigh + 1; pri > PriorityLow; pri-- {
		c := &s.classes[pri-1]
		if len(c.ring) == 0 {
			continue
		}
		if c.cursor >= len(c.ring) {
			c.cursor = 0
		}
		q := c.ring[c.cursor]
		e := q.items[0]
		q.items = q.items[1:]
		s.size--
		if len(q.items) == 0 {
			s.removeFromRingLocked(c, c.cursor)
			delete(c.queues, q.client)
		} else {
			c.cursor++
			if c.cursor >= len(c.ring) {
				c.cursor = 0
			}
		}
		return e, true
	}
	return entry[T]{}, false
}

// TryDequeue removes and returns the next scheduled item without blocking.
func (s *Scheduler[T]) TryDequeue() (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pickLocked(s.cfg.Clock())
	return e.v, ok
}

// Dequeue blocks until an item is available (returned with true) or stop
// fires / the scheduler closes (zero value, false).
func (s *Scheduler[T]) Dequeue(stop <-chan struct{}) (T, bool) {
	for {
		s.mu.Lock()
		if e, ok := s.pickLocked(s.cfg.Clock()); ok {
			s.mu.Unlock()
			return e.v, true
		}
		if s.closed {
			s.mu.Unlock()
			var zero T
			return zero, false
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-stop:
			var zero T
			return zero, false
		case <-wake:
		}
	}
}

// WakeChan returns a channel closed at the next enqueue (or already closed
// once the scheduler is). Snapshot it before TryDequeue to poll without
// missed wakeups.
func (s *Scheduler[T]) WakeChan() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wake
}

// Close wakes every blocked Dequeue; the scheduler accepts nothing further.
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.wake)
}

// AgingStep reports the configured promotion quantum (after defaulting);
// <= 0 means aging is disabled.
func (s *Scheduler[T]) AgingStep() time.Duration { return s.cfg.AgingStep }

// Len reports the number of queued items.
func (s *Scheduler[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Depths is the observability snapshot of the queue: totals by residence
// class and by client (summed across classes).
type Depths struct {
	Total    int            `json:"total"`
	ByClass  map[string]int `json:"by_class"`
	ByClient map[string]int `json:"by_client"`
}

// Depths snapshots per-class and per-client queue depths for /statsz.
func (s *Scheduler[T]) Depths() Depths {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := Depths{
		Total:    s.size,
		ByClass:  make(map[string]int, int(numPriorities)),
		ByClient: make(map[string]int),
	}
	for pri := PriorityLow; pri < numPriorities; pri++ {
		n := 0
		for _, q := range s.classes[pri].queues {
			n += len(q.items)
			d.ByClient[q.client] += len(q.items)
		}
		d.ByClass[pri.String()] = n
	}
	return d
}
