package serve

import (
	"testing"
	"time"

	"targad/internal/mat"
)

// batcherUnderTest is a Server with only what collectBatch touches and
// no dispatcher goroutine, so the test alone decides what is queued.
// MaxWait is set to an hour throughout: collectBatch must ignore it.
func batcherUnderTest(maxBatch int) *Server {
	return &Server{
		cfg:   Config{MaxBatch: maxBatch, MaxWait: time.Hour},
		queue: make(chan *job, 16),
		done:  make(chan struct{}),
	}
}

func rowsJob(rows int) *job { return &job{x: mat.New(rows, 1)} }

// wantBatch checks that got holds exactly want, in order.
func wantBatch(t *testing.T, got, want []*job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch of %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch job %d is not the expected job", i)
		}
	}
}

// TestCollectBatch pins opportunistic batching: a batch takes only the
// jobs already queued, up to MaxBatch rows, and never blocks.
func TestCollectBatch(t *testing.T) {
	t.Run("empty queue", func(t *testing.T) {
		s := batcherUnderTest(4)
		first := rowsJob(1)
		wantBatch(t, s.collectBatch(first), []*job{first})
	})

	t.Run("coalesces up to MaxBatch", func(t *testing.T) {
		s := batcherUnderTest(4)
		first := rowsJob(1)
		queued := []*job{rowsJob(1), rowsJob(1), rowsJob(1), rowsJob(1), rowsJob(1)}
		for _, j := range queued {
			s.queue <- j
		}
		wantBatch(t, s.collectBatch(first), []*job{first, queued[0], queued[1], queued[2]})
		if len(s.queue) != 2 {
			t.Fatalf("%d jobs left queued, want 2", len(s.queue))
		}
		if next := <-s.queue; next != queued[3] {
			t.Fatal("the first job left queued is not the next in line")
		}
	})

	t.Run("job reaching MaxBatch joins whole", func(t *testing.T) {
		s := batcherUnderTest(4)
		first := rowsJob(2)
		big, rest := rowsJob(5), rowsJob(1)
		s.queue <- big
		s.queue <- rest
		wantBatch(t, s.collectBatch(first), []*job{first, big})
		if len(s.queue) != 1 {
			t.Fatalf("%d jobs left queued, want 1", len(s.queue))
		}
	})

	t.Run("full first job takes nothing", func(t *testing.T) {
		s := batcherUnderTest(4)
		first := rowsJob(4)
		s.queue <- rowsJob(1)
		wantBatch(t, s.collectBatch(first), []*job{first})
		if len(s.queue) != 1 {
			t.Fatalf("%d jobs left queued, want 1", len(s.queue))
		}
	})

	t.Run("closed done", func(t *testing.T) {
		s := batcherUnderTest(4)
		close(s.done)
		first := rowsJob(1)
		wantBatch(t, s.collectBatch(first), []*job{first})
		queued := rowsJob(1)
		s.queue <- queued
		wantBatch(t, s.collectBatch(first), []*job{first, queued})
	})
}
