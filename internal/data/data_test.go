package data

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

func mkDataset(n int, rng *xrand.Rand) *Dataset {
	x := tensor.NewMatrix(n, 2)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, float64(i))
		y.Set(i, 0, float64(i)*10)
	}
	return &Dataset{X: x, Y: y}
}

func TestAppend(t *testing.T) {
	d := &Dataset{}
	d.Append([]float64{1, 2}, []float64{3})
	d.Append([]float64{4, 5}, []float64{6})
	if d.Len() != 2 {
		t.Fatalf("len %d want 2", d.Len())
	}
	if d.X.At(1, 1) != 5 || d.Y.At(1, 0) != 6 {
		t.Fatal("appended values wrong")
	}
}

func TestAppendDimensionPanic(t *testing.T) {
	d := &Dataset{}
	d.Append([]float64{1, 2}, []float64{3})
	defer func() {
		if recover() == nil {
			t.Fatal("bad append did not panic")
		}
	}()
	d.Append([]float64{1}, []float64{3})
}

func TestSubset(t *testing.T) {
	rng := xrand.New(1)
	d := mkDataset(10, rng)
	s := d.Subset([]int{3, 7})
	if s.Len() != 2 {
		t.Fatalf("subset len %d", s.Len())
	}
	if s.X.At(0, 1) != 3 || s.X.At(1, 1) != 7 {
		t.Fatal("subset picked wrong rows")
	}
	// Mutating the subset must not affect the parent.
	s.X.Set(0, 1, -1)
	if d.X.At(3, 1) != 3 {
		t.Fatal("subset aliases parent")
	}
}

func TestSplitSizesAndPartition(t *testing.T) {
	rng := xrand.New(2)
	d := mkDataset(100, rng)
	train, test := d.Split(0.7, rng)
	if train.Len() != 70 || test.Len() != 30 {
		t.Fatalf("split sizes %d/%d want 70/30", train.Len(), test.Len())
	}
	// Row ids (column 1 of X) must partition 0..99 exactly.
	seen := map[float64]int{}
	for i := 0; i < train.Len(); i++ {
		seen[train.X.At(i, 1)]++
	}
	for i := 0; i < test.Len(); i++ {
		seen[test.X.At(i, 1)]++
	}
	if len(seen) != 100 {
		t.Fatalf("split lost rows: %d distinct", len(seen))
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("row %g appears %d times", id, c)
		}
	}
}

func TestSplitPanicsOnBadFraction(t *testing.T) {
	rng := xrand.New(3)
	d := mkDataset(10, rng)
	for _, f := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Split(%g) did not panic", f)
				}
			}()
			d.Split(f, rng)
		}()
	}
}

func TestLatinHypercubeProperties(t *testing.T) {
	rng := xrand.New(7)
	lo := []float64{-1, 0}
	hi := []float64{1, 10}
	n := 50
	m := LatinHypercube(n, 2, lo, hi, rng)
	if m.Rows != n || m.Cols != 2 {
		t.Fatalf("LHS shape %dx%d", m.Rows, m.Cols)
	}
	for j := 0; j < 2; j++ {
		strata := make([]bool, n)
		for i := 0; i < n; i++ {
			v := m.At(i, j)
			if v < lo[j] || v >= hi[j] {
				t.Fatalf("LHS value %g outside [%g,%g)", v, lo[j], hi[j])
			}
			u := (v - lo[j]) / (hi[j] - lo[j])
			s := int(u * float64(n))
			if s == n {
				s = n - 1
			}
			if strata[s] {
				t.Fatalf("stratum %d hit twice in column %d", s, j)
			}
			strata[s] = true
		}
	}
}

func TestLatinHypercubeBoundsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad bounds did not panic")
		}
	}()
	LatinHypercube(10, 3, []float64{0}, []float64{1}, xrand.New(1))
}

// Property: Split preserves every (x,y) pairing.
func TestSplitPairingPreservedQuick(t *testing.T) {
	rng := xrand.New(8)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 10
		d := mkDataset(n, rng)
		train, test := d.Split(0.5, rng)
		check := func(s *Dataset) bool {
			for i := 0; i < s.Len(); i++ {
				if s.Y.At(i, 0) != s.X.At(i, 1)*10 {
					return false
				}
			}
			return true
		}
		return check(train) && check(test)
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
