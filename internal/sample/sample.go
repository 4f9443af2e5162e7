// Package sample implements the subsampling primitives used by the ASQP-RL
// preprocessing pipeline and by several baselines: uniform sampling without
// replacement, stratified sampling, and a "variational"
// signature-stratified subsampler standing in for VerdictDB's variational
// subsampling (see DESIGN.md for the substitution rationale).
package sample

import (
	"math"
	"math/rand"
	"sort"
)

// Uniform returns k distinct indices drawn uniformly from [0, n). If k >= n
// it returns all indices 0..n-1. The result is sorted.
func Uniform(n, k int, rng *rand.Rand) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Partial Fisher-Yates over an index permutation.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := perm[:k:k]
	sort.Ints(out)
	return out
}

// Stratified samples k total indices from items grouped by strata[i],
// allocating slots proportionally to stratum size but guaranteeing at least
// one slot per non-empty stratum when k allows. The result is sorted.
func Stratified(strata []int, k int, rng *rand.Rand) []int {
	n := len(strata)
	if n == 0 || k <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	groups := map[int][]int{}
	var order []int
	for i, s := range strata {
		if _, ok := groups[s]; !ok {
			order = append(order, s)
		}
		groups[s] = append(groups[s], i)
	}
	sort.Ints(order)
	return allocateAndDraw(groups, order, k, rng, func(size int) float64 {
		return float64(size)
	})
}

// Variational samples k total indices from items grouped by signature,
// weighting strata by sqrt(size). Compared to proportional allocation this
// over-represents rare strata — the behaviour ASQP-RL needs from VerdictDB's
// variational subsampling: tuples that appear in few query results (small
// strata) survive subsampling, while huge result sets are thinned
// aggressively. The result is sorted.
func Variational(signatures []string, k int, rng *rand.Rand) []int {
	n := len(signatures)
	if n == 0 || k <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	groups := map[int][]int{}
	sigID := map[string]int{}
	var order []int
	for i, sig := range signatures {
		id, ok := sigID[sig]
		if !ok {
			id = len(sigID)
			sigID[sig] = id
			order = append(order, id)
		}
		groups[id] = append(groups[id], i)
	}
	return allocateAndDraw(groups, order, k, rng, func(size int) float64 {
		return math.Sqrt(float64(size))
	})
}

// allocateAndDraw distributes k slots over groups according to weight(size)
// (largest-remainder method, ≥1 per group when possible) and draws uniform
// samples within each group.
func allocateAndDraw(groups map[int][]int, order []int, k int, rng *rand.Rand, weight func(int) float64) []int {
	type alloc struct {
		id    int
		want  float64
		slots int
	}
	var total float64
	allocs := make([]alloc, 0, len(order))
	for _, id := range order {
		w := weight(len(groups[id]))
		allocs = append(allocs, alloc{id: id, want: w})
		total += w
	}
	if total == 0 {
		return nil
	}
	// Integer parts.
	assigned := 0
	for i := range allocs {
		exact := allocs[i].want / total * float64(k)
		allocs[i].slots = int(exact)
		if allocs[i].slots > len(groups[allocs[i].id]) {
			allocs[i].slots = len(groups[allocs[i].id])
		}
		allocs[i].want = exact - float64(allocs[i].slots) // remainder
		assigned += allocs[i].slots
	}
	// Guarantee representation, then distribute remaining by remainder.
	for i := range allocs {
		if assigned >= k {
			break
		}
		if allocs[i].slots == 0 && len(groups[allocs[i].id]) > 0 {
			allocs[i].slots = 1
			assigned++
		}
	}
	for assigned < k {
		best, bestRem := -1, math.Inf(-1)
		for i := range allocs {
			if allocs[i].slots >= len(groups[allocs[i].id]) {
				continue
			}
			if allocs[i].want > bestRem {
				best, bestRem = i, allocs[i].want
			}
		}
		if best < 0 {
			break
		}
		allocs[best].slots++
		allocs[best].want -= 1
		assigned++
	}

	var out []int
	for _, a := range allocs {
		members := groups[a.id]
		for _, j := range Uniform(len(members), a.slots, rng) {
			out = append(out, members[j])
		}
	}
	sort.Ints(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
