package cluster

import (
	"math/rand"
	"testing"
)

// threeBlobs generates three well-separated gaussian blobs in 2D.
func threeBlobs(rng *rand.Rand, perBlob int) ([][]float64, []int) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	var vecs [][]float64
	var labels []int
	for ci, c := range centers {
		for i := 0; i < perBlob; i++ {
			vecs = append(vecs, []float64{
				c[0] + rng.NormFloat64()*0.5,
				c[1] + rng.NormFloat64()*0.5,
			})
			labels = append(labels, ci)
		}
	}
	return vecs, labels
}

func TestKMeansRecoverBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vecs, labels := threeBlobs(rng, 30)
	res := KMeans(vecs, 3, 50, rng)
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d, want 3", len(res.Centroids))
	}
	// All points with the same true label must share a cluster.
	for ci := 0; ci < 3; ci++ {
		seen := map[int]bool{}
		for i, l := range labels {
			if l == ci {
				seen[res.Assignments[i]] = true
			}
		}
		if len(seen) != 1 {
			t.Errorf("true blob %d split across clusters %v", ci, seen)
		}
	}
	// And different labels map to different clusters.
	clusterOf := map[int]int{}
	for i, l := range labels {
		clusterOf[l] = res.Assignments[i]
	}
	if clusterOf[0] == clusterOf[1] || clusterOf[1] == clusterOf[2] || clusterOf[0] == clusterOf[2] {
		t.Error("blobs merged into the same cluster")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if res := KMeans(nil, 3, 10, rng); res.Assignments != nil || res.Centroids != nil {
		t.Error("empty input should give empty result")
	}
	// k > n clamps.
	vecs := [][]float64{{1, 1}, {2, 2}}
	res := KMeans(vecs, 10, 10, rng)
	if len(res.Centroids) != 2 {
		t.Errorf("k should clamp to n, got %d centroids", len(res.Centroids))
	}
	// k < 1 clamps to 1.
	res = KMeans(vecs, 0, 10, rng)
	if len(res.Centroids) != 1 {
		t.Errorf("k=0 should clamp to 1, got %d", len(res.Centroids))
	}
	// Identical points.
	same := [][]float64{{5, 5}, {5, 5}, {5, 5}}
	res = KMeans(same, 2, 10, rng)
	if len(res.Assignments) != 3 {
		t.Error("identical points should still be assigned")
	}
}

func TestKMeansDeterministicGivenSeed(t *testing.T) {
	vecs, _ := threeBlobs(rand.New(rand.NewSource(3)), 20)
	a := KMeans(vecs, 3, 25, rand.New(rand.NewSource(7)))
	b := KMeans(vecs, 3, 25, rand.New(rand.NewSource(7)))
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed should give same clustering")
		}
	}
}
