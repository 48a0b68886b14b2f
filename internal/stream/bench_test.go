package stream

import (
	"fmt"
	"sync"
	"testing"
)

// ptrTuple is a pre-boxed tuple for benchmarks: emitting it exercises only
// the transport, not interface boxing of the payload.
type ptrTuple struct{ v int }

func (*ptrTuple) SizeBytes() int { return 8 }

// BenchmarkEmitPath measures the steady-state cost of one EmitTo through a
// batched edge with a live consumer: batching plus the pooled batches keep
// it allocation-flat (~0 allocs/op). The unbatched case is an edge made by
// SubscribeToUnbatched in a topology batching at 64: pooled batches of
// capacity 64 that each ship one tuple.
func BenchmarkEmitPath(b *testing.B) {
	for _, c := range []struct {
		name          string
		poolCap, edge int
	}{{"batch-1", 1, 1}, {"batch-64", 64, 64}, {"unbatched", 64, 1}} {
		b.Run(c.name, func(b *testing.B) {
			pool := &sync.Pool{New: func() interface{} {
				return &batch{items: make([]Tuple, 0, c.poolCap)}
			}}
			dest := &taskRun{in: make(chan *batch, 64), pool: pool}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ba := range dest.in {
					for i := range ba.items {
						ba.items[i] = nil
					}
					ba.items = ba.items[:0]
					pool.Put(ba)
				}
			}()
			out := &edgeOut{
				stream:    DefaultStream,
				sel:       Shuffle{}.NewSelector(1),
				dests:     []*taskRun{dest},
				counters:  &EdgeCounters{},
				batchSize: c.edge,
				pending:   make([]*batch, 1),
			}
			em := &emitter{outs: []*edgeOut{out}, counters: &TaskCounters{}, pool: pool}
			tu := &ptrTuple{v: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				em.Emit(tu)
			}
			em.flush()
			b.StopTimer()
			close(dest.in)
			wg.Wait()
		})
	}
}

// BenchmarkTransport pushes tuples through a three-stage pipeline at
// several batch sizes; per-tuple cost should drop sharply from batch 1 to
// 64 because channel synchronization is amortized across the batch.
func BenchmarkTransport(b *testing.B) {
	const n = 100000
	for _, bs := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tp := New("bench", 16, WithBatchSize(bs))
				tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
				tp.AddBolt("mid", func(int) Bolt { return doubleBolt{} }, 4).
					SubscribeTo("src", Shuffle{})
				tp.AddBolt("sink", func(int) Bolt { return countBolt{c: new(int)} }, 1).
					SubscribeTo("mid", Shuffle{})
				if _, err := tp.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(n)
		})
	}
}

// countBolt counts tuples without retaining them.
type countBolt struct{ c *int }

// Execute implements Bolt.
func (c countBolt) Execute(Tuple, Emitter) { *c.c++ }
