// Package cluster implements k-means clustering over embedding vectors.
// ASQP-RL uses it to select query representatives from the embedded, relaxed
// workload (Section 4.2; the caller picks each cluster's medoid), to split
// workloads into interest clusters for the drift experiments (Section 6.2),
// and as the core of the QRD baseline (query result diversification).
package cluster

import (
	"math"
	"math/rand"
)

// Result holds a clustering: an assignment per input vector and the final
// centroids.
type Result struct {
	Assignments []int
	Centroids   [][]float64
}

// sqDist returns squared euclidean distance.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeans clusters vecs into k clusters using Lloyd's algorithm with k-means++
// seeding. It is deterministic given rng. k is clamped to [1, len(vecs)].
func KMeans(vecs [][]float64, k, iters int, rng *rand.Rand) Result {
	n := len(vecs)
	if n == 0 {
		return Result{}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dim := len(vecs[0])

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), vecs[first]...))
	dists := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, v := range vecs {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(v, c); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centroids; pick arbitrary.
			centroids = append(centroids, append([]float64(nil), vecs[rng.Intn(n)]...))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range dists {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), vecs[idx]...))
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centroids {
				if d := sqDist(v, c); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for ci := range sums {
			sums[ci] = make([]float64, dim)
		}
		for i, v := range vecs {
			ci := assign[i]
			counts[ci]++
			for d := range v {
				sums[ci][d] += v[d]
			}
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				// Re-seed empty cluster at the farthest point.
				far, farD := 0, -1.0
				for i, v := range vecs {
					if d := sqDist(v, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[ci], vecs[far])
				continue
			}
			for d := range centroids[ci] {
				centroids[ci][d] = sums[ci][d] / float64(counts[ci])
			}
		}
	}
	// Final assignment pass.
	for i, v := range vecs {
		best, bestD := 0, math.Inf(1)
		for ci, c := range centroids {
			if d := sqDist(v, c); d < bestD {
				best, bestD = ci, d
			}
		}
		assign[i] = best
	}
	return Result{Assignments: assign, Centroids: centroids}
}
