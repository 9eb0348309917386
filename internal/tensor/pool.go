package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker oversubscribes the chunk count relative to the worker
// count so uneven chunk costs (e.g. zero-skip sparsity) still balance.
const chunksPerWorker = 4

// Pool is a bounded worker pool for data-parallel kernels. Work is
// submitted as a fixed set of index-range chunks drained through a shared
// atomic cursor (a chunk queue with no work stealing): every runner —
// the submitting goroutine plus any idle workers — grabs the next chunk
// until the range is exhausted. Submission never blocks; when all workers
// are busy the submitter simply computes every chunk itself, so nested or
// concurrent ParallelFor calls (one per pipeline device) cannot deadlock.
//
// Workers are started lazily on first use and live for the life of the
// pool. A Pool is safe for concurrent use by multiple goroutines.
type Pool struct {
	workers int
	tasks   chan *forJob
	start   sync.Once
}

// NewPool returns a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tasks: make(chan *forJob, workers)}
}

// startWorkers spawns the long-lived workers (the submitting goroutine
// always participates, so only workers-1 extra goroutines are needed).
func (p *Pool) startWorkers() {
	p.start.Do(func() {
		for i := 1; i < p.workers; i++ {
			go func() {
				for j := range p.tasks {
					j.run()
					j.release()
				}
			}()
		}
	})
}

// forJob is one ParallelFor call: its range, its cursor, the chunks left
// to finish, and how many runners — the submitter and each worker it was
// offered to — still hold it. A worker may dequeue a job after its range
// has drained and only then find nothing left, so the job is recycled
// when the last holder lets go, not when the call returns.
type forJob struct {
	body            func(lo, hi int)
	n, size, chunks int
	next            atomic.Int64
	done            sync.WaitGroup
	holders         atomic.Int32
}

// run takes chunks until the range is drained.
func (j *forJob) run() {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		lo := c * j.size
		j.body(lo, min(lo+j.size, j.n))
		j.done.Done()
	}
}

// release drops one holder; the last one recycles the job.
func (j *forJob) release() {
	if j.holders.Add(-1) != 0 {
		return
	}
	j.body = nil
	forJobs.Put(j)
}

var forJobs = sync.Pool{New: func() any { return new(forJob) }}

// ParallelFor partitions [0, n) into contiguous chunks of at least
// minChunk indices and runs body on each. Chunks are disjoint, so body
// may write its range without synchronization; ParallelFor returns only
// after every chunk has completed. Small ranges run inline. A call
// allocates nothing once a finished call's job is there to recycle.
func (p *Pool) ParallelFor(n, minChunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if p.workers == 1 || n <= minChunk {
		body(0, n)
		return
	}
	chunks := (n + minChunk - 1) / minChunk
	if lim := p.workers * chunksPerWorker; chunks > lim {
		chunks = lim
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size // recompute so every chunk is non-empty
	if chunks < 2 {
		body(0, n)
		return
	}
	p.startWorkers()

	j := forJobs.Get().(*forJob)
	j.body, j.n, j.size, j.chunks = body, n, size, chunks
	j.next.Store(0)
	j.done.Add(chunks)
	j.holders.Store(1)
	// Offer the job to idle workers without ever blocking; a worker that
	// takes it after the range is drained finds nothing left to run.
submit:
	for i := 1; i < p.workers && i < chunks; i++ {
		j.holders.Add(1)
		select {
		case p.tasks <- j:
		default:
			j.holders.Add(-1)
			break submit
		}
	}
	j.run()
	j.done.Wait()
	j.release()
}

var (
	sharedPoolMu sync.Mutex
	sharedPool   *Pool
)

// SharedPool returns the process-wide pool used by the default parallel
// backend, creating it sized by GOMAXPROCS on first use. One pool per
// process keeps total compute goroutines bounded no matter how many
// pipeline devices issue kernels concurrently.
func SharedPool() *Pool {
	sharedPoolMu.Lock()
	defer sharedPoolMu.Unlock()
	if sharedPool == nil {
		sharedPool = NewPool(0)
	}
	return sharedPool
}
