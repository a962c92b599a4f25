package serve

import (
	"errors"
	"runtime"
	"sync"
)

// ErrBusy is returned by Submit when the client's queue is at its bound;
// the HTTP layer maps it to 429 with a Retry-After hint.
var ErrBusy = errors.New("serve: client queue full")

// ErrClosed is returned by Submit after Close; the HTTP layer maps it to
// 503.
var ErrClosed = errors.New("serve: scheduler closed")

// Sched fans jobs out to a bounded worker pool with per-client fair
// queuing: each client gets its own FIFO of at most depth pending jobs,
// and workers drain the queues round-robin, so a client flooding its
// queue delays only itself — a light client's next job is at most one
// round-robin lap away, never behind the heavy client's whole backlog.
// Submissions beyond a client's depth are rejected immediately (ErrBusy)
// instead of queued, which is the service's backpressure signal.
//
// Close drains: it stops new submissions and returns only after every
// queued and in-flight job has run, so no accepted request ever loses
// its response during graceful shutdown.
type Sched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	depth   int
	workers int

	queues   map[string]*clientQ // clients with pending jobs, by id
	ring     []*clientQ          // the same clients, round-robin order
	next     int                 // ring cursor
	pending  int
	inflight int
	rejected uint64
	closed   bool

	wg sync.WaitGroup
}

type clientQ struct {
	id   string
	jobs []func()
}

// NewSched starts a scheduler with the given worker count (<= 0 selects
// GOMAXPROCS) and per-client queue depth (<= 0 selects 16).
func NewSched(workers, depth int) *Sched {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 16
	}
	s := &Sched{
		depth:   depth,
		workers: workers,
		queues:  map[string]*clientQ{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Workers returns the pool size.
func (s *Sched) Workers() int { return s.workers }

// Depth returns the per-client queue bound.
func (s *Sched) Depth() int { return s.depth }

// Submit enqueues a job for a client. It never blocks: the job is either
// accepted (and will eventually run, even across Close) or rejected with
// ErrBusy (queue bound hit) or ErrClosed (shutting down).
func (s *Sched) Submit(client string, job func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	q := s.queues[client]
	if q == nil {
		q = &clientQ{id: client}
		s.queues[client] = q
	}
	if len(q.jobs) >= s.depth {
		s.rejected++
		return ErrBusy
	}
	if len(q.jobs) == 0 {
		s.ring = append(s.ring, q)
	}
	q.jobs = append(q.jobs, job)
	s.pending++
	s.cond.Signal()
	return nil
}

// Closed reports whether Close has started (the scheduler is draining
// or drained); healthz uses it to signal load balancers.
func (s *Sched) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Load reports the queued and in-flight job counts plus the lifetime
// rejection count (for stats and Retry-After estimation).
func (s *Sched) Load() (pending, inflight int, rejected uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending, s.inflight, s.rejected
}

// Close stops new submissions, waits for every queued and in-flight job
// to finish, and stops the workers. Safe to call once.
func (s *Sched) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	for s.pending > 0 || s.inflight > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Sched) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for s.pending == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.pending == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		// One job from the next client in the ring. Removing an emptied
		// client leaves next pointing at its successor, so the lap
		// continues where it left off either way. An emptied client is
		// forgotten too, so the queues map holds only clients with
		// pending jobs, however many distinct clients a daemon sees.
		if s.next >= len(s.ring) {
			s.next = 0
		}
		q := s.ring[s.next]
		job := q.jobs[0]
		q.jobs = q.jobs[1:]
		if len(q.jobs) == 0 {
			s.ring = append(s.ring[:s.next], s.ring[s.next+1:]...)
			delete(s.queues, q.id)
		} else {
			s.next++
		}
		s.pending--
		s.inflight++
		s.mu.Unlock()

		job()

		s.mu.Lock()
		s.inflight--
		if s.closed && s.pending == 0 && s.inflight == 0 {
			s.cond.Broadcast() // wake Close and idle workers
		}
	}
}
