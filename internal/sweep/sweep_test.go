package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapMatchesSequentialLoop(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i
	}
	fn := func(_ context.Context, i int) (int, error) {
		// Skew completion order: earlier items finish later.
		if i < 8 {
			time.Sleep(time.Duration(8-i) * time.Millisecond)
		}
		return i*i + 1, nil
	}
	want := make([]int, len(items))
	for i, it := range items {
		o, err := fn(context.Background(), it)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = o
	}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(context.Background(), items, fn, Workers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from sequential loop", workers)
		}
	}
}

func TestMapEmptyAndNil(t *testing.T) {
	got, err := Map(context.Background(), nil, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: got %v, %v", got, err)
	}
	if _, err := Map[int, int](context.Background(), []int{1}, nil); !errors.Is(err, ErrNilFunc) {
		t.Fatalf("nil fn: got %v, want ErrNilFunc", err)
	}
}

func TestMapFirstErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	fn := func(_ context.Context, i int) (int, error) {
		if i == 41 || i == 87 {
			return 0, fmt.Errorf("item-%d: %w", i, boom)
		}
		return i, nil
	}
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(context.Background(), items, fn, Workers(workers))
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
		// With a deterministic fn the lowest failing index is reported.
		if workers == 1 && err.Error() != "sweep: item 41: item-41: boom" {
			t.Fatalf("sequential error = %q", err)
		}
	}
}

func TestMapErrorCancelsOutstandingWork(t *testing.T) {
	var evaluated atomic.Int64
	items := make([]int, 10_000)
	for i := range items {
		items[i] = i
	}
	_, err := Map(context.Background(), items, func(_ context.Context, i int) (int, error) {
		evaluated.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	}, Workers(8))
	if err == nil {
		t.Fatal("want error")
	}
	if n := evaluated.Load(); n == int64(len(items)) {
		t.Fatalf("error did not cancel the sweep: all %d items evaluated", n)
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []int{1, 2, 3}
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, items, func(context.Context, int) (int, error) { return 0, nil }, Workers(workers))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

func TestCacheSingleFlight(t *testing.T) {
	var c Cache[int, int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 32
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(7, func() (int, error) {
				calls.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 49, nil
			})
			if err != nil || v != 49 {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("stats = %d hits, %d misses; want %d, 1", hits, misses, goroutines-1)
	}
}

func TestCacheMemoizesErrors(t *testing.T) {
	var c Cache[string, int]
	var calls int
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.Do("k", func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: got %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}
