package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasic(t *testing.T) {
	var h Histogram
	h.Observe(50*time.Microsecond, false)
	h.Observe(50*time.Microsecond, true)
	h.Observe(2*time.Millisecond, false)
	h.Observe(20*time.Second, false) // overflow bucket

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if s.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", s.Errors)
	}
	wantSum := int64(50 + 50 + 2_000 + 20_000_000)
	if s.SumMicros != wantSum {
		t.Fatalf("SumMicros = %d, want %d", s.SumMicros, wantSum)
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}

	// A second snapshot must still see the full history (the merge-back
	// invariant), and new observations must accumulate on top.
	h.Observe(time.Microsecond, false)
	s2 := h.Snapshot()
	if s2.Count != 5 || s2.SumMicros != wantSum+1 {
		t.Fatalf("after merge-back: count=%d sum=%d, want 5/%d", s2.Count, s2.SumMicros, wantSum+1)
	}
}

func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(time.Millisecond, false) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot count = %d", s.Count)
	}
}

// TestHistogramCoherentUnderConcurrency is the regression test for the
// mean-latency skew the six-bucket endpointMetrics had: with every
// observation a fixed 5µs, any snapshot whose SumMicros is not exactly
// 5×Count (or whose buckets don't sum to Count) mixed a fresh counter
// with a stale one.
func TestHistogramCoherentUnderConcurrency(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(5*time.Microsecond, i%10 == 0)
			}
		}(w)
	}
	var snaps int
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			snaps++
			if s.SumMicros != int64(5*s.Count) {
				t.Errorf("incoherent snapshot: count=%d sum=%d", s.Count, s.SumMicros)
				return
			}
			var total uint64
			for _, n := range s.Buckets {
				total += n
			}
			if total != s.Count {
				t.Errorf("incoherent snapshot: count=%d bucket sum=%d", s.Count, total)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if want := uint64(workers * perWorker); s.Count != want {
		t.Fatalf("final count = %d, want %d", s.Count, want)
	}
	if want := uint64(workers * perWorker / 10); s.Errors != want {
		t.Fatalf("final errors = %d, want %d", s.Errors, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(50*time.Microsecond, false) // bucket (32, 100]
	}
	s := h.Snapshot()
	// rank 50 of 100 falls halfway through the (32, 100] bucket:
	// 32 + 68*50/100 = 66.
	if got := s.Quantile(0.5); got != 66 {
		t.Fatalf("p50 = %v, want 66", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v, want 100 (bucket upper bound)", got)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}

	// Overflow-bucket ranks clamp to the highest finite bound.
	var over Histogram
	over.Observe(time.Minute, false)
	if got := over.Snapshot().Quantile(0.99); got != 10_000_000 {
		t.Fatalf("overflow p99 = %v, want 1e7", got)
	}
}

func TestHistSnapshotJSONShape(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond, false)
	raw, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("histogram JSON is not a flat label map: %v", err)
	}
	if len(m) != NumBuckets {
		t.Fatalf("histogram JSON has %d buckets, want %d", len(m), NumBuckets)
	}
	if m["<=1ms"] != 1 {
		t.Fatalf("1ms observation not in <=1ms bucket: %v", m)
	}
}

func TestEndpointSnapshotPercentiles(t *testing.T) {
	var h Histogram
	out := EndpointSnapshot(&h)
	if _, ok := out["p50_micros"]; ok {
		t.Fatal("empty endpoint snapshot must omit percentiles")
	}
	h.Observe(time.Millisecond, false)
	out = EndpointSnapshot(&h)
	for _, k := range []string{"requests", "errors", "latency_micros_total", "latency_histogram", "latency_micros_mean", "p50_micros", "p95_micros", "p99_micros"} {
		if _, ok := out[k]; !ok {
			t.Fatalf("endpoint snapshot missing %q", k)
		}
	}
	if m := out["latency_micros_mean"].(float64); m != 1000 {
		t.Fatalf("mean = %v, want 1000", m)
	}
}

// BenchmarkHistogramObserve is the histogram's cost on the serving path:
// every instrumented request and every shard call pays one Observe.
// "serial" is one goroutine; "parallel" is GOMAXPROCS goroutines on one
// histogram, the contention of a busy endpoint.
func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		var h Histogram
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i&1023)*time.Microsecond, false)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var h Histogram
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				h.Observe(time.Duration(i&1023)*time.Microsecond, false)
				i++
			}
		})
	})
}
