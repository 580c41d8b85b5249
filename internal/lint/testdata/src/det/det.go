// Package det exercises the determinism family: wall-clock reads, ambient
// randomness, environment reads, goroutines and order-sensitive map
// iteration, plus the sanctioned escapes and //bear:nolint suppression.
package det

import (
	"fmt"
	"math/rand" // want "determinism: import of .math/rand."
	"os"
	"sort"
	"time"
)

func clock() int64 {
	t := time.Now()       // want "determinism: time.Now in a simulation package"
	_ = time.Since(t)     // want "determinism: time.Since in a simulation package"
	_ = os.Getenv("SEED") // want "determinism: os.Getenv in a simulation package"
	return rand.Int63()
}

func spawn() {
	go clock() // want "goroutine: go statement in a simulation package"
}

func foldFloat(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want "maprange: map iteration accumulates into sum"
	}
	return sum
}

func countItems(m map[string]int) int {
	n := 0
	for range m {
		n++ // want "maprange: map iteration accumulates into n"
	}
	return n
}

func lastValue(m map[string]int) int {
	last := 0
	for _, v := range m {
		last = v // want "maprange: map iteration assigns last in map order"
	}
	return last
}

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "maprange: map iteration appends to keys in map order"
	}
	return keys
}

func printAll(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "maprange: map iteration formats output in map order"
	}
}

// collectSorted is the sanctioned escape: collect, then sort.
func collectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectSortedCond shows conditional collection still qualifies when the
// slice is sorted afterwards.
func collectSortedCond(m map[string]int) []string {
	var keys []string
	for k, v := range m {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// invert shows keyed stores are order-independent per element.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// suppressedTrailing uses a trailing nolint comment.
func suppressedTrailing(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v //bear:nolint maprange — commutative fold, asserted by the author
	}
	return sum
}

// suppressedAbove uses a nolint comment on the line above the finding.
func suppressedAbove(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		//bear:nolint maprange — commutative fold, asserted by the author
		sum += v
	}
	return sum
}

// staleSuppression names a rule that does not exist: the nolint is reported
// and suppresses nothing, so the finding it sits on is reported too.
func staleSuppression(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v //bear:nolint hotpath — retired rule // want "nolint: //bear:nolint names .hotpath., which is not a rule" // want "maprange: map iteration accumulates into sum"
	}
	return sum
}

// bareSuppression names no rule at all.
func bareSuppression() {
	_ = 0 //bear:nolint — no rule named // want "nolint: //bear:nolint names no rule"
}

// gluedSuppression misses the space after the marker: the glued word is
// reported as a name that is no rule, and it suppresses nothing.
func gluedSuppression(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v //bear:nolintmaprange — glued // want "nolint: //bear:nolint names .nolintmaprange., which is not a rule" // want "maprange: map iteration accumulates into sum"
	}
	return sum
}
