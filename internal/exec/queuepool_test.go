package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// TestQueuePoolClasses checks the size classes: take(n) returns an empty
// array holding at least n items, of exactly the smallest class holding n
// when it makes one, and give files an array under the largest class its
// capacity fills, so the next take of that class gets it back. An array
// smaller than the smallest class is not kept.
func TestQueuePoolClasses(t *testing.T) {
	var p queuePool[int]
	for _, c := range []struct{ n, class int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128}, {1024, 1024}, {1025, 2048}, {5000, 8192},
	} {
		a := p.take(c.n)
		if len(*a) != 0 || cap(*a) != c.class {
			t.Errorf("take(%d) on an empty pool: len %d cap %d, want an empty array of %d", c.n, len(*a), cap(*a), c.class)
		}
	}
	if raceBuild {
		t.Skip("sync.Pool drops some of what it is handed under -race")
	}
	for _, c := range []struct{ capacity, fills int }{{16, 16}, {100, 64}, {1024, 1024}, {5000, 4096}} {
		items := make([]scoreItem[int], 3, c.capacity)
		items[0].v = 7
		p.give(new([]scoreItem[int]), items)
		if items[0].v != 0 {
			t.Errorf("give kept the payload of an array of %d", c.capacity)
		}
		if a := p.take(2 * c.fills); unsafe.SliceData(*a) == unsafe.SliceData(items) {
			t.Errorf("an array of %d went to a take of %d", c.capacity, 2*c.fills)
		}
		a := p.take(c.fills)
		if unsafe.SliceData(*a) != unsafe.SliceData(items) || len(*a) != 0 || cap(*a) < c.fills {
			t.Errorf("an array of %d was not filed under class %d: take got len %d cap %d", c.capacity, c.fills, len(*a), cap(*a))
		}
	}
	small := make([]scoreItem[int], 0, 15)
	p.give(new([]scoreItem[int]), small)
	if a := p.take(1); unsafe.SliceData(*a) == unsafe.SliceData(small) {
		t.Error("an array smaller than the smallest class was pooled")
	}
}

// TestQueuePoolDeepThenShallow runs an HRJN whose queue passes 4 096 items,
// closes it, and opens a shallow HRJN next: the shallow one gets an array of
// its own class, never the deep array, however the pool holds it. The deep
// join, reopened, takes the class its last run reached.
func TestQueuePoolDeepThenShallow(t *testing.T) {
	ctx := context.Background()
	lsch, ltups := tagged("L", 1200, 3, 1, false)
	rsch, rtups := tagged("R", 1200, 3, 2, false)
	deep := pairJoins["HRJN"](FromTuples(lsch, ltups), FromTuples(rsch, rtups)).(*HRJN)
	if err := deep.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8000; i++ {
		if _, ok, err := deep.Next(); err != nil || !ok {
			t.Fatalf("deep row %d: ok=%v err=%v", i, ok, err)
		}
	}
	deepArr, deepCap := unsafe.SliceData(deep.buf.pq.items), cap(deep.buf.pq.items)
	if err := deep.Close(); err != nil {
		t.Fatal(err)
	}
	last := deep.Stats().MaxQueue
	if last <= 4096 {
		t.Fatalf("the deep join's queue reached %d items, want a run past 4 096", last)
	}

	lsch, ltups = tagged("L", 60, 60, 1, false)
	rsch, rtups = tagged("R", 60, 60, 1, false)
	shallow := pairJoins["HRJN"](FromTuples(lsch, ltups), FromTuples(rsch, rtups)).(*HRJN)
	if err := shallow.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := shallow.Next(); err != nil || !ok {
			t.Fatalf("shallow row %d: ok=%v err=%v", i, ok, err)
		}
	}
	items := shallow.buf.pq.items
	if unsafe.SliceData(items) == deepArr || cap(items) >= deepCap || cap(items) < shallow.Stats().MaxQueue {
		t.Errorf("a shallow join queueing %d items holds an array of %d (deep array %v), want its own class",
			shallow.Stats().MaxQueue, cap(items), unsafe.SliceData(items) == deepArr)
	}
	if err := shallow.Close(); err != nil {
		t.Fatal(err)
	}

	if err := deep.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cap(deep.buf.pq.items); got < last || got >= 2*last {
		t.Errorf("the deep join reopened with room for %d items after a run reaching %d, want its class", got, last)
	}
	if err := deep.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueuePoolConcurrent runs deep and shallow HRJNs on four goroutines at
// once, each reopening its join several times, so queue arrays of every
// class pass between goroutines and between deep and shallow runs through
// the shared pool: every run must answer as a fresh join run alone.
func TestQueuePoolConcurrent(t *testing.T) {
	type input struct{ n, mod, pull int }
	build := func(in input) Operator {
		lsch, ltups := tagged("L", in.n, in.mod, 1, false)
		rsch, rtups := tagged("R", in.n, in.mod, 2, false)
		return pairJoins["HRJN"](FromTuples(lsch, ltups), FromTuples(rsch, rtups))
	}
	inputs := []input{{1200, 3, 3000}, {60, 60, 5}, {600, 6, 400}, {60, 6, 40}}
	want := make([]string, len(inputs))
	for i, in := range inputs {
		out, err := CollectK(build(in), in.pull)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(out)
	}
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func(i int, in input) {
			defer wg.Done()
			op := build(in)
			for run := 0; run < 4; run++ {
				out, err := CollectK(op, in.pull)
				if err != nil || fmt.Sprint(out) != want[i] {
					t.Errorf("join %d run %d: %d rows, %v; want the answer of a fresh join", i, run, len(out), err)
					return
				}
			}
		}(i, in)
	}
	wg.Wait()
}

// TestQueuePoolGrowthOrder offers a queue that starts in the smallest class
// and crosses several while running, releasing between offers, and checks
// that it pops the same (score, seq) sequence as a queue presized for every
// item: moving the heap into the next class's array keeps its order.
func TestQueuePoolGrowthOrder(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(41))
	var b rankBuffer[int]
	b.pool = new(queuePool[int])
	b.reset(nil)
	ref := scoreQueue[int]{items: make([]scoreItem[int], 0, n)}
	caps := map[int]bool{}
	popped := 0
	check := func() {
		want := ref.items[0]
		got := b.pq.items[0]
		if got.score != want.score || got.seq != want.seq {
			t.Fatalf("pop %d: (%v, %d), want (%v, %d)", popped, got.score, got.seq, want.score, want.seq)
		}
		v, ok := b.release(0, true)
		if w := ref.pop(); !ok || v != w {
			t.Fatalf("pop %d: payload %d ok=%v, want %d", popped, v, ok, w)
		}
		popped++
	}
	for i := 0; i < n; i++ {
		s := float64(rng.Intn(50)) // heavy ties: seq decides
		if err := b.offer(s, i); err != nil {
			t.Fatal(err)
		}
		ref.push(s, i)
		caps[cap(b.pq.items)] = true
		if rng.Intn(4) == 0 {
			check()
		}
	}
	for len(ref.items) > 0 {
		check()
	}
	if len(b.pq.items) != 0 {
		t.Fatalf("%d items left after the reference drained", len(b.pq.items))
	}
	if len(caps) < 6 {
		t.Errorf("the queue held %d array sizes, want it to cross at least five classes", len(caps))
	}
	for c := range caps {
		if c < 1<<minQueueShift || c&(c-1) != 0 {
			t.Errorf("the queue held an array of %d items, not a class size", c)
		}
	}
	b.close()
}
