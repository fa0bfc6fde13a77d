// Package detrangefix is the detrange analyzer's fixture: map iteration
// feeding order-sensitive sinks, and the collect-sort-iterate idiom that is
// the canonical fix.
package detrangefix

import (
	"sort"
	"sync"

	"mlmd/internal/cluster"
)

// BadMapAccum accumulates floats in map-iteration order.
func BadMapAccum(m map[int]float64) float64 {
	sum := 0.0
	for _, v := range m { // want "accumulates floating-point values in iteration order"
		sum += v
	}
	return sum
}

// BadMapAppend appends values in map-iteration order.
func BadMapAppend(m map[int]float64) []float64 {
	var out []float64
	for _, v := range m { // want "appends values in iteration order"
		out = append(out, v)
	}
	return out
}

// BadMapSend drives rank traffic in map-iteration order.
func BadMapSend(c *cluster.Comm, m map[int][]float64) {
	for dst, payload := range m { // want "calls cluster.Comm.SendBuf in iteration order"
		c.SendBuf(0, dst, payload)
	}
}

// GoodSortedKeys is the canonical idiom: collect the keys (the one append
// detrange allows), sort ascending, iterate the slice.
func GoodSortedKeys(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// BadSyncMapRange accumulates inside a sync.Map.Range callback.
func BadSyncMapRange(m *sync.Map) float64 {
	sum := 0.0
	m.Range(func(k, v any) bool { // want "sync.Map.Range callback accumulates floating-point values"
		sum += v.(float64)
		return true
	})
	return sum
}

// GoodMapCount only counts: no order-sensitive sink, no finding.
func GoodMapCount(m map[int]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}
