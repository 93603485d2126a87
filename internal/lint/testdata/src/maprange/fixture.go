// Package maprange is a fixture for the maprange analyzer.
package maprange

import "sort"

func Bad(weights map[string]float64) float64 {
	var total float64
	for _, w := range weights {
		total += w // want "float accumulation over map iteration"
	}
	return total
}

func BadProduct(sels map[string]float64) float64 {
	card := 1.0
	for _, s := range sels {
		card *= s // want "float accumulation over map iteration"
	}
	return card
}

func GoodSortedKeys(weights map[string]float64) float64 {
	keys := make([]string, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += weights[k]
	}
	return total
}

// GoodIntCount: integer accumulation is associative; order cannot matter.
func GoodIntCount(m map[string]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// GoodLocalTemp: a per-iteration temporary is order-independent.
func GoodLocalTemp(m map[string]float64) int {
	count := 0
	for _, v := range m {
		x := v
		x *= 2
		if x > 1 {
			count++
		}
	}
	return count
}

// GoodDeleteOnly: a loop that only deletes keyed entries accumulates nothing
// and needs no suppression.
func GoodDeleteOnly(m map[string]float64, stale func(string) bool) {
	for k := range m {
		if stale(k) {
			delete(m, k)
		}
	}
}

// GoodDrainToSet drains the keys into a key-indexed set and clears the map:
// one write per distinct key, order-insensitive.
func GoodDrainToSet(m map[string]int, seen map[string]bool) {
	for k := range m {
		seen[k] = true
		delete(m, k)
	}
}
