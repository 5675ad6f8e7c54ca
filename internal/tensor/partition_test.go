package tensor

import "testing"

func TestAppendRow(t *testing.T) {
	m := NewMatrix(0, 3)
	m.AppendRow([]float64{1, 2, 3})
	m.AppendRow([]float64{4, 5, 6})
	if m.Rows != 2 || m.At(1, 2) != 6 {
		t.Fatalf("append built %dx%d with %v", m.Rows, m.Cols, m.Data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged AppendRow did not panic")
		}
	}()
	m.AppendRow([]float64{7})
}

func TestGatherRowsInto(t *testing.T) {
	src := FromRows([][]float64{{0, 1}, {10, 11}, {20, 21}, {30, 31}})
	got := GatherRowsInto(nil, src, []int{3, 1})
	want := FromRows([][]float64{{30, 31}, {10, 11}})
	if !Equal(got, want, 0) {
		t.Fatalf("gather got %v", got.Data)
	}
	// Reuse path: a larger previous buffer must reshape, not reallocate.
	buf := NewMatrix(4, 2)
	data := &buf.Data[0]
	out := GatherRowsInto(buf, src, []int{0})
	if out.Rows != 1 || out.At(0, 1) != 1 {
		t.Fatalf("reused gather wrong: %v", out.Data)
	}
	if &out.Data[0] != data {
		t.Fatal("gather into smaller shape reallocated")
	}
	// Empty index set yields a 0-row matrix.
	if e := GatherRowsInto(nil, src, nil); e.Rows != 0 || e.Cols != 2 {
		t.Fatalf("empty gather %dx%d", e.Rows, e.Cols)
	}
	// One column: a value an index.
	col := FromRows([][]float64{{5}, {6}, {7}})
	if got := GatherRowsInto(nil, col, []int{2, 2, 0}); got.Rows != 3 || got.Cols != 1 || got.Data[0] != 7 || got.Data[1] != 7 || got.Data[2] != 5 {
		t.Fatalf("one-column gather got %dx%d %v", got.Rows, got.Cols, got.Data)
	}
	// Rows wider than the element-by-element copy takes.
	wide := NewMatrix(3, 11)
	for i := range wide.Data {
		wide.Data[i] = float64(i)
	}
	if got := GatherRowsInto(nil, wide, []int{2, 0}); got.At(0, 10) != 32 || got.At(1, 0) != 0 || got.At(1, 10) != 10 {
		t.Fatalf("wide gather got %v", got.Data)
	}
}
