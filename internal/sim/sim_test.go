package sim

import "testing"

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		j := g.Jitter(0.25)
		if j < -0.25 || j > 0.25 {
			t.Fatalf("jitter out of range: %v", j)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	g := NewRNG(2)
	p := g.Perm(10)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad perm: %v", p)
		}
		seen[v] = true
	}
}
