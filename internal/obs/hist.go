// Package obs is the dependency-free observability layer shared by the
// serve, shard, router and trainer processes: log-scale latency
// histograms with coherent snapshots and interpolated percentiles
// (hist.go), per-request trace records with a lock-free recent-traces
// ring (trace.go), Prometheus text exposition rendered from the same
// snapshot trees the JSON /metrics serves (prom.go) plus an in-repo
// format checker (promcheck.go). Everything here is stdlib-only; the
// -pprof-addr side listener is cliutil's.
package obs

import (
	"sync"
	"time"
)

// bucketBoundsMicros are the histogram buckets' inclusive upper bounds
// in microseconds: half-decade steps (~2 buckets per decade) from 10µs
// to 10s. Durations above the last bound land in the overflow bucket.
var bucketBoundsMicros = [...]int64{
	10, 32, 100, 316,
	1_000, 3_162, 10_000, 31_623,
	100_000, 316_228, 1_000_000, 3_162_278,
	10_000_000,
}

// NumBuckets counts the buckets including the overflow (>10s) bucket.
const NumBuckets = len(bucketBoundsMicros) + 1

// bucketLabels name the buckets in JSON snapshots.
var bucketLabels = [NumBuckets]string{
	"<=10us", "<=32us", "<=100us", "<=316us",
	"<=1ms", "<=3.2ms", "<=10ms", "<=32ms",
	"<=100ms", "<=316ms", "<=1s", "<=3.2s",
	"<=10s", ">10s",
}

func bucketIdx(d time.Duration) int {
	us := int64(d / time.Microsecond)
	for i, b := range bucketBoundsMicros {
		if us <= b {
			return i
		}
	}
	return NumBuckets - 1
}

// Histogram is a concurrency-safe log-scale latency histogram whose
// snapshots are coherent: count, error count, sum and buckets all come
// from the same set of completed observations, so a derived mean can
// never mix a fresh count with a stale sum. One mutex guards one
// HistSnapshot: Observe increments it, Snapshot copies it. The zero
// value is ready to use. Its contention is measured on 2 cores only
// (BenchmarkHistogramObserve at -cpu 4 and 8 oversubscribes them); with
// more cores observing one histogram, the mutex may park goroutines.
type Histogram struct {
	mu sync.Mutex
	s  HistSnapshot
}

// Observe records one observation. isErr marks it as a failed request
// (counted separately; still part of count/sum/buckets). Nil-safe.
func (h *Histogram) Observe(d time.Duration, isErr bool) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := bucketIdx(d)
	h.mu.Lock()
	h.s.Count++
	h.s.SumMicros += int64(d / time.Microsecond)
	if isErr {
		h.s.Errors++
	}
	h.s.Buckets[i]++
	h.mu.Unlock()
}

// Snapshot returns a coherent copy of everything observed so far.
// Nil-safe: a nil histogram snapshots as empty.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s
}

// HistSnapshot is one coherent read of a Histogram.
type HistSnapshot struct {
	Count     uint64
	Errors    uint64
	SumMicros int64
	Buckets   [NumBuckets]uint64
}

// Mean returns the mean latency in microseconds, 0 when empty. Because
// Count and SumMicros are copied under one lock, the mean cannot be
// skewed by a mid-burst read.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumMicros) / float64(s.Count)
}

// Quantile returns the q-quantile (0 < q <= 1) in microseconds,
// linearly interpolated within the bucket the rank falls in — the same
// estimate Prometheus' histogram_quantile computes. Ranks landing in
// the overflow bucket clamp to the highest bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, n := range s.Buckets {
		if n == 0 {
			cum += n
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i == NumBuckets-1 {
			return float64(bucketBoundsMicros[len(bucketBoundsMicros)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(bucketBoundsMicros[i-1])
		}
		hi := float64(bucketBoundsMicros[i])
		return lo + (hi-lo)*(rank-float64(prev))/float64(n)
	}
	return float64(bucketBoundsMicros[len(bucketBoundsMicros)-1])
}

// MarshalJSON renders the buckets as a label→count object, every
// bucket present, so the JSON /metrics histogram keeps the flat shape
// it has always had (just with the finer log-scale labels).
func (s HistSnapshot) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16*NumBuckets)
	b = append(b, '{')
	for i, n := range s.Buckets {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, bucketLabels[i]...)
		b = append(b, '"', ':')
		b = appendUint(b, n)
	}
	return append(b, '}'), nil
}

func appendUint(b []byte, n uint64) []byte {
	if n == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(b, tmp[i:]...)
}

// EndpointSnapshot renders one endpoint histogram in the shape the
// /metrics JSON trees share across serve, shard and router: raw
// counters, the bucket map, and the interpolated percentiles.
func EndpointSnapshot(h *Histogram) map[string]any {
	s := h.Snapshot()
	out := map[string]any{
		"requests":             s.Count,
		"errors":               s.Errors,
		"latency_micros_total": s.SumMicros,
		"latency_histogram":    s,
	}
	if s.Count > 0 {
		out["latency_micros_mean"] = s.Mean()
		out["p50_micros"] = s.Quantile(0.50)
		out["p95_micros"] = s.Quantile(0.95)
		out["p99_micros"] = s.Quantile(0.99)
	}
	return out
}
