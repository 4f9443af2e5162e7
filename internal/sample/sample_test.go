package sample

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func isSortedUnique(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

func TestUniformBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := Uniform(100, 10, rng)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	if !isSortedUnique(got) {
		t.Errorf("not sorted-unique: %v", got)
	}
	for _, i := range got {
		if i < 0 || i >= 100 {
			t.Errorf("index %d out of range", i)
		}
	}
}

func TestUniformEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if Uniform(0, 5, rng) != nil {
		t.Error("n=0 should give nil")
	}
	if Uniform(5, 0, rng) != nil {
		t.Error("k=0 should give nil")
	}
	all := Uniform(5, 10, rng)
	if len(all) != 5 || all[0] != 0 || all[4] != 4 {
		t.Errorf("k>=n should return everything: %v", all)
	}
}

func TestUniformIsUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, idx := range Uniform(10, 3, rng) {
			counts[idx]++
		}
	}
	want := float64(trials) * 3 / 10
	for i, c := range counts {
		ratio := float64(c) / want
		if ratio < 0.93 || ratio > 1.07 {
			t.Errorf("index %d picked %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestUniformProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(n, k uint8) bool {
		got := Uniform(int(n), int(k), rng)
		wantLen := int(k)
		if int(n) < wantLen {
			wantLen = int(n)
		}
		if int(n) == 0 || int(k) == 0 {
			wantLen = 0
		}
		return len(got) == wantLen && isSortedUnique(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStratifiedCoversAllStrata(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// 3 strata: sizes 70, 20, 10.
	strata := make([]int, 100)
	for i := range strata {
		switch {
		case i < 70:
			strata[i] = 0
		case i < 90:
			strata[i] = 1
		default:
			strata[i] = 2
		}
	}
	got := Stratified(strata, 10, rng)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	seen := map[int]int{}
	for _, i := range got {
		seen[strata[i]]++
	}
	for s := 0; s < 3; s++ {
		if seen[s] == 0 {
			t.Errorf("stratum %d unrepresented: %v", s, seen)
		}
	}
	// Proportionality: the big stratum gets the most slots.
	if seen[0] <= seen[2] {
		t.Errorf("allocation not proportional: %v", seen)
	}
}

func TestStratifiedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if Stratified(nil, 5, rng) != nil {
		t.Error("empty strata should be nil")
	}
	all := Stratified([]int{1, 2, 3}, 99, rng)
	if len(all) != 3 {
		t.Errorf("k>=n should return everything, got %v", all)
	}
}

func TestVariationalOverRepresentsRareStrata(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// One huge signature group (900) and ten rare ones (10 each).
	sigs := make([]string, 1000)
	for i := range sigs {
		if i < 900 {
			sigs[i] = "common"
		} else {
			sigs[i] = "rare" + string(rune('0'+(i-900)/10))
		}
	}
	got := Variational(sigs, 100, rng)
	if len(got) != 100 {
		t.Fatalf("len = %d, want 100", len(got))
	}
	rare := 0
	for _, i := range got {
		if sigs[i] != "common" {
			rare++
		}
	}
	// Proportional allocation would give the rare groups ~10 slots total;
	// sqrt weighting must give them clearly more.
	if rare < 20 {
		t.Errorf("rare strata got %d slots, want over-representation (> 20)", rare)
	}
	// And every rare signature should be represented.
	seen := map[string]bool{}
	for _, i := range got {
		seen[sigs[i]] = true
	}
	if len(seen) != 11 {
		t.Errorf("saw %d of 11 signatures", len(seen))
	}
}

func TestVariationalEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if Variational(nil, 5, rng) != nil {
		t.Error("empty input should be nil")
	}
	all := Variational([]string{"a", "b"}, 10, rng)
	sort.Ints(all)
	if len(all) != 2 || all[0] != 0 || all[1] != 1 {
		t.Errorf("k>=n should return everything: %v", all)
	}
}

func TestVariationalExactK(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(groups uint8, kRaw uint8) bool {
		g := int(groups)%7 + 1
		sigs := make([]string, 0, g*13)
		for i := 0; i < g; i++ {
			for j := 0; j <= i*5; j++ {
				sigs = append(sigs, string(rune('a'+i)))
			}
		}
		k := int(kRaw) % (len(sigs) + 3)
		got := Variational(sigs, k, rng)
		want := k
		if want > len(sigs) {
			want = len(sigs)
		}
		if k <= 0 {
			want = 0
		}
		return len(got) == want && (len(got) == 0 || isSortedUnique(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
