package engine

import (
	"sync"
	"time"
)

// timerQueue holds a Runtime's pending delayed timers in one heap ordered by
// due time, then by arming order, and fires them from one time.Timer set to
// the earliest due. Arming a timer appends to the heap's reused array, so
// once the heap has grown to the most timers ever pending at once it
// allocates nothing; a time.AfterFunc per timer cost a timer and a closure.
type timerQueue struct {
	mu     sync.Mutex
	start  time.Time // dues are offsets from it on the monotonic clock
	heap   []pendingTimer
	seq    uint64 // arming order, the tie-break among equal dues
	timer  *time.Timer
	closed bool
}

type pendingTimer struct {
	due time.Duration
	seq uint64
	mb  *mailbox
	env Envelope
}

func (p *pendingTimer) before(q *pendingTimer) bool {
	return p.due < q.due || p.due == q.due && p.seq < q.seq
}

// add arms env for delivery to mb after delay. After close it does nothing.
func (q *timerQueue) add(delay time.Duration, mb *mailbox, env Envelope) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.seq++
	q.heap = append(q.heap, pendingTimer{due: time.Since(q.start) + delay, seq: q.seq, mb: mb, env: env})
	if q.up(len(q.heap)-1) > 0 {
		return // an earlier timer is pending, and the time.Timer is set for it
	}
	if q.timer == nil {
		q.timer = time.AfterFunc(delay, q.fire)
	} else {
		q.timer.Reset(delay)
	}
}

// fire delivers every timer now due, earliest first and equal dues in
// arming order, then sets the time.Timer for the next one. It delivers under
// the lock, so two overlapping fires cannot reorder deliveries; a mailbox
// push never takes the queue's lock, so this cannot deadlock.
func (q *timerQueue) fire() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	now := time.Since(q.start)
	for len(q.heap) > 0 && q.heap[0].due <= now {
		p := q.heap[0]
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap[last] = pendingTimer{} // release the message for reuse/GC
		q.heap = q.heap[:last]
		q.down(0)
		p.mb.push(p.env)
	}
	if len(q.heap) > 0 {
		q.timer.Reset(q.heap[0].due - now)
	}
}

// close drops every pending timer and stops arming new ones (Shutdown).
func (q *timerQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	if q.timer != nil {
		q.timer.Stop()
	}
	clear(q.heap)
	q.heap = q.heap[:0]
}

// up restores the heap order above index i and returns i's final index.
func (q *timerQueue) up(i int) int {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return i
}

// down restores the heap order below index i.
func (q *timerQueue) down(i int) {
	h := q.heap
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].before(&h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
