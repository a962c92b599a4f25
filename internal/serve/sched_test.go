package serve

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedRoundRobinInterleavesClients pins the fairness property at
// the scheduler level with one worker, where execution order is fully
// deterministic: with a heavy client's backlog queued ahead of a light
// client's single job, the light job runs after exactly one heavy job,
// not after the whole backlog.
func TestSchedRoundRobinInterleavesClients(t *testing.T) {
	s := NewSched(1, 8)
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	job := func(name string, gate bool) func() {
		return func() {
			if gate {
				close(started)
				<-release
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}

	// h0 occupies the single worker; h1..h3 queue for "heavy"; then one
	// job queues for "light".
	if err := s.Submit("heavy", job("h0", true)); err != nil {
		t.Fatal(err)
	}
	<-started
	for _, n := range []string{"h1", "h2", "h3"} {
		if err := s.Submit("heavy", job(n, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Submit("light", job("l0", false)); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitFor(t, "all jobs to finish", func() bool {
		p, i, _ := s.Load()
		return p == 0 && i == 0
	})

	mu.Lock()
	defer mu.Unlock()
	want := []string{"h0", "h1", "l0", "h2", "h3"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin order %v, want %v (light client starved behind heavy backlog)", order, want)
		}
	}
}

// TestSchedDepthBoundPerClient pins that the queue bound is per client:
// a heavy client at its bound is rejected while a light client is still
// accepted.
func TestSchedDepthBoundPerClient(t *testing.T) {
	s := NewSched(1, 2)
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if err := s.Submit("heavy", func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started

	// The in-flight job freed heavy's queue; two more fill it.
	for i := 0; i < 2; i++ {
		if err := s.Submit("heavy", func() {}); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if err := s.Submit("heavy", func() {}); err != ErrBusy {
		t.Fatalf("over-bound submit: got %v, want ErrBusy", err)
	}
	if err := s.Submit("light", func() {}); err != nil {
		t.Fatalf("light client rejected while under its own bound: %v", err)
	}
	if _, _, rejected := s.Load(); rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", rejected)
	}
}

// TestSchedCloseDrains pins graceful shutdown: queued and in-flight
// jobs all run before Close returns, and later submissions fail with
// ErrClosed.
func TestSchedCloseDrains(t *testing.T) {
	s := NewSched(2, 8)
	started := make(chan struct{})
	release := make(chan struct{})
	var ran sync.WaitGroup
	ran.Add(5)
	if err := s.Submit("a", func() { close(started); <-release; ran.Done() }); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 4; i++ {
		client := "a"
		if i%2 == 0 {
			client = "b"
		}
		if err := s.Submit(client, func() { ran.Done() }); err != nil {
			t.Fatal(err)
		}
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	ran.Wait() // every accepted job ran

	if err := s.Submit("a", func() {}); err != ErrClosed {
		t.Fatalf("submit after Close: got %v, want ErrClosed", err)
	}
}

// TestSchedForgetsDrainedClients: a client whose last job a worker took
// leaves the scheduler, so a daemon that sees many distinct clients
// (X-Client values, remote hosts) keeps no state for idle ones.
func TestSchedForgetsDrainedClients(t *testing.T) {
	s := NewSched(2, 4)
	var ran sync.WaitGroup
	ran.Add(1000)
	for i := 0; i < 1000; i++ {
		if err := s.Submit("client-"+strconv.Itoa(i), ran.Done); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	ran.Wait()
	if n, r := len(s.queues), len(s.ring); n != 0 || r != 0 {
		t.Fatalf("after draining 1000 one-job clients: %d queues and %d ring entries remain, want 0", n, r)
	}
}
