package obs

import (
	"reflect"
	"sync"
	"testing"
)

// TestCounterTableCoversStats: every Stats field has exactly one
// CounterTable entry with a unique series name, so a new counter cannot
// silently miss Add, Live or /metrics.
func TestCounterTableCoversStats(t *testing.T) {
	entries := map[string]int{}
	names := map[string]bool{}
	for _, c := range CounterTable {
		entries[c.Field]++
		if names[c.Name] {
			t.Errorf("series name %s used twice", c.Name)
		}
		names[c.Name] = true
		if c.Help == "" || (c.Merge != Sum && c.Merge != Max) {
			t.Errorf("entry %s: help %q, merge %d", c.Field, c.Help, c.Merge)
		}
	}
	st := reflect.TypeFor[Stats]()
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i).Name; entries[f] != 1 {
			t.Errorf("Stats.%s has %d CounterTable entries, want 1", f, entries[f])
		}
	}
	if len(entries) != st.NumField() {
		t.Errorf("CounterTable names %d fields, Stats has %d", len(entries), st.NumField())
	}
}

// TestStatsAddMerges: Add sums work counters and keeps the larger value of
// peaks.
func TestStatsAddMerges(t *testing.T) {
	a := Stats{Iterations: 3, Workers: 4, QueueDepthPeak: 2, CacheShardHits: 1}
	a.Add(Stats{Iterations: 5, Workers: 2, QueueDepthPeak: 7, CacheShardHits: 1})
	want := Stats{Iterations: 8, Workers: 4, QueueDepthPeak: 7, CacheShardHits: 2}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

// TestLiveStatsUnderContention: writer goroutines count into their own
// Stats and publish deltas into one Live while a reader loads it; the
// published totals must equal the sum (or max) of the writers' Stats.
// Meaningful under -race (make race).
func TestLiveStatsUnderContention(t *testing.T) {
	const writers, rounds = 16, 500
	live := &Live{}
	final := make([]Stats, writers)
	var wg sync.WaitGroup
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if s := live.Load(); s.Workers > writers {
					t.Errorf("Workers = %d mid-run, beyond every writer", s.Workers)
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var st, pub Stats
			st.Workers = w + 1
			for i := 0; i < rounds; i++ {
				st.Iterations++
				st.SweepNodeVisits += w
				if i%2 == 0 {
					st.CacheShardHits++
				} else {
					st.CacheShardMisses++
				}
				st.QueueDepthPeak = max(st.QueueDepthPeak, (w*i)%97)
				if i%7 == 0 {
					live.Publish(&st, &pub)
				}
			}
			live.Publish(&st, &pub)
			final[w] = st
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	var want Stats
	for _, st := range final {
		want.Add(st)
	}
	if got := live.Load(); got != want {
		t.Fatalf("live = %+v\nwant %+v", got, want)
	}
	if want.Workers != writers || want.Iterations != writers*rounds {
		t.Fatalf("reference totals wrong: %+v", want)
	}
}
