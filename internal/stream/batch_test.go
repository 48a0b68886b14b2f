package stream

import (
	"sync"
	"testing"
)

// taggedTuple encodes (producer, seq) so consumers can check per-producer
// order.
type taggedTuple struct {
	producer int
	seq      int
}

func (taggedTuple) SizeBytes() int { return 16 }

// taggedSpout emits n tuples tagged with its task index, in seq order.
type taggedSpout struct {
	task, n, i int
}

func (s *taggedSpout) Next() (Tuple, bool) {
	if s.i >= s.n {
		return nil, false
	}
	t := taggedTuple{producer: s.task, seq: s.i}
	s.i++
	return t, true
}

// orderBolt records the tuples it sees, per producer.
type orderBolt struct {
	mu  sync.Mutex
	got map[int][]int // guarded by mu
}

func (o *orderBolt) Execute(t Tuple, _ Emitter) {
	tt := t.(taggedTuple)
	o.mu.Lock()
	if o.got == nil {
		o.got = make(map[int][]int)
	}
	o.got[tt.producer] = append(o.got[tt.producer], tt.seq)
	o.mu.Unlock()
}

// TestBatchingPreservesPerProducerFIFO checks the transport ordering
// contract under batching: for every (producer, destination) pair, tuples
// arrive in emit order, at every batch size including ones that do not
// divide the stream length.
func TestBatchingPreservesPerProducerFIFO(t *testing.T) {
	const perProducer = 500
	for _, bs := range []int{1, 3, 64, 1000} {
		tp := New("fifo", 4, WithBatchSize(bs))
		tp.AddSpout("src", func(task int) Spout {
			return &taggedSpout{task: task, n: perProducer}
		}, 3)
		tp.AddBolt("sink", func(int) Bolt { return &orderBolt{} }, 2).
			SubscribeTo("src", Shuffle{})
		rep, err := tp.Run()
		if err != nil {
			t.Fatalf("batch %d: %v", bs, err)
		}
		total := 0
		for task := 0; task < 2; task++ {
			sink := rep.Bolts["sink"][task].(*orderBolt)
			for prod, seqs := range sink.got {
				total += len(seqs)
				for i := 1; i < len(seqs); i++ {
					if seqs[i] <= seqs[i-1] {
						t.Fatalf("batch %d: producer %d at sink %d out of order: %d after %d",
							bs, prod, task, seqs[i], seqs[i-1])
					}
				}
			}
		}
		if total != 3*perProducer {
			t.Fatalf("batch %d: delivered %d tuples, want %d", bs, total, 3*perProducer)
		}
	}
}

// TestFlushOnCompletionDeliversEveryTuple drives stream lengths around and
// below the batch size through a two-stage pipeline: the final flush, not
// batch fill, must deliver the tail, including bolt Flush output emitted
// after the input closed.
func TestFlushOnCompletionDeliversEveryTuple(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 1000} {
		tp := New("flushall", 4, WithBatchSize(64))
		tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
		tp.AddBolt("sum", func(int) Bolt { return &sumFlushBolt{} }, 1).
			SubscribeTo("src", Shuffle{})
		tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
			SubscribeTo("sum", Shuffle{})
		rep, err := tp.Run()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sink := rep.Bolts["sink"][0].(*collectBolt)
		want := n * (n - 1) / 2
		if len(sink.got) != 1 || sink.got[0] != want {
			t.Fatalf("n=%d: flush output %v, want [%d]", n, sink.got, want)
		}
	}
}

// TestBatchCountersAndOccupancy checks the amortization accounting: tuple
// counts are unchanged by batching, batch counts reflect channel sends, and
// occupancy is tuples per send.
func TestBatchCountersAndOccupancy(t *testing.T) {
	const n, bs = 1000, 8
	tp := New("occupancy", 16, WithBatchSize(bs))
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("src", Shuffle{})
	rep, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	ec := rep.Edges[EdgeKey{From: "src", To: "sink"}]
	if got := ec.Tuples.Load(); got != n {
		t.Fatalf("tuples: got %d want %d", got, n)
	}
	if got := rep.EdgeBatches("src", "sink"); got != n/bs {
		t.Fatalf("batches: got %d want %d", got, n/bs)
	}
	if occ := ec.Occupancy(); occ != float64(bs) {
		t.Fatalf("occupancy: got %v want %v", occ, float64(bs))
	}
}

// TestUnbatchedSubscription checks SubscribeToUnbatched: on that edge every
// tuple is its own transport batch (Batches == Tuples), per-producer FIFO
// holds, the tail and a bolt's Flush output are delivered on completion,
// and the other edges of the same topology still batch at the topology's
// batch size.
func TestUnbatchedSubscription(t *testing.T) {
	const perProducer, producers, bs = 203, 3, 8
	tp := New("unbatched", 4, WithBatchSize(bs))
	tp.AddSpout("src", func(task int) Spout {
		return &taggedSpout{task: task, n: perProducer}
	}, producers)
	tp.AddBolt("ordered", func(int) Bolt { return &orderBolt{} }, 2).
		SubscribeToUnbatched("src", Shuffle{})
	tp.AddBolt("batched", func(int) Bolt { return &orderBolt{} }, 1).
		SubscribeTo("src", Fields{Hash: func(Tuple) uint64 { return 0 }})
	rep, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	const total = producers * perProducer
	delivered := 0
	for _, b := range rep.Bolts["ordered"] {
		for prod, seqs := range b.(*orderBolt).got {
			delivered += len(seqs)
			for i := 1; i < len(seqs); i++ {
				if seqs[i] <= seqs[i-1] {
					t.Fatalf("producer %d out of order on the unbatched edge: %d after %d",
						prod, seqs[i], seqs[i-1])
				}
			}
		}
	}
	if delivered != total {
		t.Fatalf("unbatched edge delivered %d tuples, want %d", delivered, total)
	}
	un := rep.Edges[EdgeKey{From: "src", To: "ordered"}]
	if un.Tuples.Load() != total || un.Batches.Load() != total {
		t.Fatalf("unbatched edge: %d tuples in %d batches, want %d in %d",
			un.Tuples.Load(), un.Batches.Load(), total, total)
	}
	// Each producer ships full batches of bs to the one batched consumer
	// and flushes its remainder once.
	wantBatches := uint64(producers * ((perProducer + bs - 1) / bs))
	if got := rep.EdgeBatches("src", "batched"); got != wantBatches {
		t.Fatalf("batched edge: %d batches, want %d", got, wantBatches)
	}
	if got := len(rep.Bolts["batched"][0].(*orderBolt).got); got != producers {
		t.Fatalf("batched consumer heard from %d producers, want %d", got, producers)
	}

	// A bolt's Flush output crosses an unbatched edge after the input
	// closed, and the tail of a short stream is delivered.
	for _, n := range []int{1, 7, 65} {
		tp := New("unbatched-flush", 4, WithBatchSize(64))
		tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
		tp.AddBolt("sum", func(int) Bolt { return &sumFlushBolt{} }, 1).
			SubscribeToUnbatched("src", Shuffle{})
		tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
			SubscribeToUnbatched("sum", Shuffle{})
		rep, err := tp.Run()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sink := rep.Bolts["sink"][0].(*collectBolt)
		if want := n * (n - 1) / 2; len(sink.got) != 1 || sink.got[0] != want {
			t.Fatalf("n=%d: flush output %v, want [%d]", n, sink.got, want)
		}
		if got := rep.EdgeBatches("src", "sum"); got != uint64(n) {
			t.Fatalf("n=%d: %d batches on the unbatched input edge, want %d", n, got, n)
		}
	}
}

// TestWithQueueCapOption checks the option overrides the positional
// argument and the topology still drains under a tiny queue.
func TestWithQueueCapOption(t *testing.T) {
	tp := New("qcap", 1024, WithQueueCap(1), WithBatchSize(4))
	if tp.queueCap != 1 {
		t.Fatalf("queueCap: got %d want 1", tp.queueCap)
	}
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(5000)} }, 1)
	tp.AddBolt("mid", func(int) Bolt { return doubleBolt{} }, 2).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("mid", Shuffle{})
	rep, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Bolts["sink"][0].(*collectBolt).got); got != 5000 {
		t.Fatalf("sink: %d", got)
	}
}

// TestLazySizeBytes checks the emit path only calls SizeBytes when a
// subscribed edge selects at least one destination: emits to unsubscribed
// streams must not pay for size accounting.
func TestLazySizeBytes(t *testing.T) {
	sizeCalls.Reset() // the counter is package-level; -count>1 reruns the test
	tp := New("lazysize", 4)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(10)} }, 1)
	tp.AddBolt("split", func(int) Bolt { return sizeCountingBolt{} }, 1).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(int) Bolt { return dropBolt{} }, 1).
		SubscribeTo("split", Shuffle{})
	if _, err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sizeCalls.Load(); got != 10 {
		t.Fatalf("SizeBytes calls: got %d want 10 (one per delivered tuple, none for dropped streams)", got)
	}
}

// dropBolt discards every tuple regardless of type.
type dropBolt struct{}

// Execute implements Bolt.
func (dropBolt) Execute(Tuple, Emitter) {}

// sizeProbeTuple counts SizeBytes invocations through a package-level
// counter (tests run sequentially per topology here).
type sizeProbeTuple int

// sizeCalls counts SizeBytes invocations across a run.
var sizeCalls atomicCounter

func (sizeProbeTuple) SizeBytes() int {
	sizeCalls.Add(1)
	return 8
}

// sizeCountingBolt forwards every tuple as a sizeProbeTuple on the default
// stream and also emits one copy to a stream nobody subscribes to.
type sizeCountingBolt struct{}

func (sizeCountingBolt) Execute(t Tuple, em Emitter) {
	v := sizeProbeTuple(int(t.(intTuple)))
	em.Emit(v)
	em.EmitTo("nobody-listens", v) // must not call SizeBytes
}

// atomicCounter is a tiny test helper around a mutex-guarded int (avoids
// importing sync/atomic in tests for one counter).
type atomicCounter struct {
	mu sync.Mutex
	n  int64 // guarded by mu
}

// Add increments the counter.
func (c *atomicCounter) Add(d int64) {
	c.mu.Lock()
	c.n += d
	c.mu.Unlock()
}

// Reset zeroes the counter.
func (c *atomicCounter) Reset() {
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
}

// Load reads the counter.
func (c *atomicCounter) Load() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
