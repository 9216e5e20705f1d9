package hoplabel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntersectsSorted(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want bool
	}{
		{nil, nil, false},
		{[]uint32{1}, nil, false},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, false},
		{[]uint32{1, 3, 5}, []uint32{5}, true},
		{[]uint32{7}, []uint32{1, 2, 7, 9}, true},
		{[]uint32{1, 2, 3}, []uint32{3, 4, 5}, true},
		{[]uint32{10, 20}, []uint32{1, 2, 3, 4, 5}, false},
	}
	for _, c := range cases {
		if got := IntersectsSorted(c.a, c.b); got != c.want {
			t.Errorf("IntersectsSorted(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBuilderFreezeSortsAndDedups(t *testing.T) {
	b := NewBuilder(2)
	b.AddOut(0, 5)
	b.AddOut(0, 1)
	b.AddOut(0, 5)
	b.AddIn(1, 9)
	b.AddIn(1, 9)
	l := b.Freeze()
	if got := l.Out(0); !reflect.DeepEqual(got, []uint32{1, 5}) {
		t.Errorf("Out(0) = %v", got)
	}
	if got := l.In(1); !reflect.DeepEqual(got, []uint32{9}) {
		t.Errorf("In(1) = %v", got)
	}
	if got := l.Out(1); len(got) != 0 {
		t.Errorf("Out(1) = %v, want empty", got)
	}
	if l.SizeInts() != 3 {
		t.Errorf("SizeInts = %d, want 3", l.SizeInts())
	}
}

func TestReachableSelf(t *testing.T) {
	l := NewBuilder(3).Freeze()
	if !l.Reachable(1, 1) {
		t.Error("self reachability must hold even with empty labels")
	}
	if l.Reachable(0, 1) {
		t.Error("empty labels imply unreachable")
	}
}

func TestReachableViaCommonHop(t *testing.T) {
	b := NewBuilder(3)
	// 0 -> 2 via hop 7... hops are arbitrary vertex IDs; use 2 itself.
	b.AddOut(0, 2)
	b.AddIn(2, 2)
	l := b.Freeze()
	if !l.Reachable(0, 2) {
		t.Error("Reachable(0,2) = false")
	}
	if l.Reachable(2, 0) {
		t.Error("Reachable(2,0) = true")
	}
}

func TestComputeStats(t *testing.T) {
	b := NewBuilder(2)
	b.AddOut(0, 1)
	b.AddOut(0, 2)
	b.AddIn(1, 3)
	l := b.Freeze()
	s := l.ComputeStats()
	if s.TotalOut != 2 || s.TotalIn != 1 || s.MaxOut != 2 || s.MaxIn != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgOut != 1.0 || s.AvgIn != 0.5 {
		t.Errorf("avg = %+v", s)
	}
}

func TestSetOutSetIn(t *testing.T) {
	b := NewBuilder(1)
	b.SetOut(0, []uint32{4, 2, 2})
	b.SetIn(0, []uint32{8})
	l := b.Freeze()
	if got := l.Out(0); !reflect.DeepEqual(got, []uint32{2, 4}) {
		t.Errorf("Out = %v", got)
	}
	if got := l.In(0); !reflect.DeepEqual(got, []uint32{8}) {
		t.Errorf("In = %v", got)
	}
}

// Property: IntersectsSorted, and a Probe resolved from a labeling holding
// the same two lists, agree with a map-based intersection test.
func TestIntersectsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []uint32 {
			m := map[uint32]bool{}
			for i := 0; i < rng.Intn(30); i++ {
				m[uint32(rng.Intn(60))] = true
			}
			var out []uint32
			for x := uint32(0); x < 60; x++ {
				if m[x] {
					out = append(out, x)
				}
			}
			return out
		}
		a, b := mk(), mk()
		want := false
		bm := map[uint32]bool{}
		for _, x := range b {
			bm[x] = true
		}
		for _, x := range a {
			if bm[x] {
				want = true
				break
			}
		}
		lb := NewBuilder(2)
		lb.SetOut(0, a)
		lb.SetIn(1, b)
		p := lb.Freeze().Resolve(0, 1)
		return IntersectsSorted(a, b) == want && p.Intersects() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIntersectsSortedZeroAlloc pins the //reach:hotpath contract
// reachlint enforces statically: the label intersection runs per query
// pair and must not allocate.
func TestIntersectsSortedZeroAlloc(t *testing.T) {
	a := []uint32{1, 5, 9, 40, 77, 120}
	b := []uint32{2, 6, 10, 41, 78, 121}
	c := []uint32{3, 9, 200}
	allocs := testing.AllocsPerRun(1000, func() {
		IntersectsSorted(a, b)
		IntersectsSorted(a, c)
		IntersectsSorted(nil, a)
	})
	if allocs != 0 {
		t.Fatalf("IntersectsSorted allocated %v times per run; the hot path must be allocation-free", allocs)
	}
}
