package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// onePanelMC is the pass-stacked MC path with every pass of a chunk in one
// tall panel — passes·rows rows, sized per call — kept as the reference the
// grouped path must match bit for bit: the same prefix, the same masks
// (mcThin by each row's key at each dropout step for every pass), one
// matmul per dense step over all passes and the row-wise shifted-data
// reduction.
func onePanelMC(c *Compiled, xs *tensor.Matrix, passes int) (mean, std *tensor.Matrix) {
	mean, std = tensor.NewMatrix(xs.Rows, c.out), tensor.NewMatrix(xs.Rows, c.out)
	ctx := c.getBatchCtx()
	for lo := 0; lo < xs.Rows; lo += c.maxBatch {
		b := min(c.maxBatch, xs.Rows-lo)
		tall := tensor.RepeatRowsInto(nil, c.forwardBatchPrefix(ctx, xs, lo, b, c.fs), passes)
		for si := c.fs; si < len(c.steps); si++ {
			st := &c.steps[si]
			switch {
			case st.kind == stepDense:
				out := tensor.MatMulBiasInto(nil, tall, &st.wm, st.b)
				st.act.applyAll(out.Data)
				tall = out
			case st.p > 0:
				for t := 0; t < passes; t++ {
					for r := 0; r < b; r++ {
						mcThin(tall.Row(t*b+r), mcPassKey(mcRowKey(c.seedBase, xs.Row(lo+r)), si, t), mcLimit(1-st.p), 1/(1-st.p))
					}
				}
			}
		}
		out := c.out
		invP := 1 / float64(passes)
		for r := 0; r < b; r++ {
			for j := 0; j < out; j++ {
				ref := tall.Data[r*out+j]
				sum, ssq := 0.0, 0.0
				for t := 1; t < passes; t++ {
					d := tall.Data[(t*b+r)*out+j] - ref
					sum += d
					ssq += d * d
				}
				d := sum * invP
				mean.Data[(lo+r)*out+j] = ref + d
				v := ssq*invP - d*d
				if v < 0 {
					v = 0
				}
				std.Data[(lo+r)*out+j] = math.Sqrt(v)
			}
		}
	}
	return mean, std
}

// TestPassGroupsMatchOnePanel: running a chunk's passes in groups over a
// fixed panel gives the bits one tall panel over all passes gives, across
// deep shapes, pass counts that do and do not fit one group, and inputs
// wider than a chunk.
func TestPassGroupsMatchOnePanel(t *testing.T) {
	rng := xrand.New(41)
	grouped := 0
	for _, widths := range [][]int{{8, 128, 128, 4}, {6, 30, 48, 3}, {8, 64, 64, 64, 1}, {3, 13, 9, 7, 2}} {
		net := NewMLP(rng.Split(), Tanh, 0.15, widths...)
		for _, maxBatch := range []int{DefaultMaxBatch, 256} {
			c := net.CompileBatch(maxBatch)
			for _, rows := range []int{1, 7, 64, 65, 200} {
				x := batchProbe(rng, rows, widths[0])
				for _, passes := range []int{1, 2, 5, 16, 30} {
					if c.mcPanel()/(min(rows, maxBatch)*c.maxW) < passes {
						grouped++
					}
					mean, std := c.PredictMCBatch(x, passes, nil, nil)
					wantMean, wantStd := onePanelMC(c, x, passes)
					for i := range mean.Data {
						if math.Float64bits(mean.Data[i]) != math.Float64bits(wantMean.Data[i]) ||
							math.Float64bits(std.Data[i]) != math.Float64bits(wantStd.Data[i]) {
							t.Fatalf("%v maxBatch %d, %d rows, %d passes: element %d is mean %v std %v, one panel gives %v %v",
								widths, maxBatch, rows, passes, i, mean.Data[i], std.Data[i], wantMean.Data[i], wantStd.Data[i])
						}
					}
				}
			}
		}
	}
	if grouped == 0 {
		t.Fatal("no case ran its passes in more than one group")
	}
}

// TestMCAnswerIsPure: a row's MC-dropout mean and std are a function of the
// program and the row alone. On a one-step stochastic suffix (2-24-1), two
// and three dropouts (6-30-48-3, 8-64-64-64-1) and the int8 program of
// each, the row gives the same bits over 20 calls, at the first, a middle and the
// last position of 64-row batches of two compositions, on both sides of a
// chunk boundary, from 8 goroutines at once, and from the programs an
// artifact round trip decodes. A mask drawn per context, or in the order
// calls arrive, fails here.
func TestMCAnswerIsPure(t *testing.T) {
	const passes, rows = 10, DefaultMaxBatch
	rng := xrand.New(47)
	for _, tc := range []struct {
		widths []int
		drop   float64
	}{{[]int{2, 24, 1}, 0.1}, {[]int{6, 30, 48, 3}, 0.1}, {[]int{8, 64, 64, 64, 1}, 0.15}} {
		c := NewMLP(rng.Split(), Tanh, tc.drop, tc.widths...).CompileBatch(rows)
		q := c.Quantize(nil)
		data, err := EncodeArtifact(&Artifact{Compiled: c, Quant: q})
		if err != nil {
			t.Fatal(err)
		}
		art, err := DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		in := tc.widths[0]
		x := batchProbe(rng, 1, in)
		fillers := []*tensor.Matrix{batchProbe(rng, 2*rows+2, in), batchProbe(rng, 2*rows+2, in)}
		// at copies fillers[f]'s first n rows with x placed at row r.
		at := func(f, n, r int) *tensor.Matrix {
			xs := fillers[f].SliceRows(0, n).Clone()
			copy(xs.Row(r), x.Data)
			return xs
		}
		floatMC := func(c *Compiled) func(xs *tensor.Matrix) (m, s *tensor.Matrix) {
			return func(xs *tensor.Matrix) (m, s *tensor.Matrix) { return c.PredictMCBatch(xs, passes, nil, nil) }
		}
		int8MC := func(q *QuantCompiled) func(xs *tensor.Matrix) (m, s *tensor.Matrix) {
			return func(xs *tensor.Matrix) (m, s *tensor.Matrix) { return q.PredictMCBatch(xs, passes, nil, nil, nil) }
		}
		for _, p := range []struct {
			name        string
			mc, decoded func(xs *tensor.Matrix) (m, s *tensor.Matrix)
		}{{"float", floatMC(c), floatMC(art.Compiled)}, {"int8", int8MC(q), int8MC(art.Quant)}} {
			wantMean, wantStd := p.mc(x)
			if wantStd.Data[0] == 0 {
				t.Fatalf("%v %s: zero std, the masks thin nothing", tc.widths, p.name)
			}
			// check runs xs through mc and compares its row r with the row alone.
			check := func(what string, mc func(xs *tensor.Matrix) (m, s *tensor.Matrix), xs *tensor.Matrix, r int) {
				mean, std := mc(xs)
				for j := range wantMean.Data {
					if math.Float64bits(mean.At(r, j)) != math.Float64bits(wantMean.Data[j]) ||
						math.Float64bits(std.At(r, j)) != math.Float64bits(wantStd.Data[j]) {
						t.Errorf("%v %s, %s: output %d is mean %v std %v, the row alone gives %v %v",
							tc.widths, p.name, what, j, mean.At(r, j), std.At(r, j), wantMean.Data[j], wantStd.Data[j])
					}
				}
			}
			for i := 0; i < 20; i++ {
				check(fmt.Sprintf("call %d", i), p.mc, x, 0)
			}
			check("decoded artifact", p.decoded, x, 0)
			for f := range fillers {
				for _, r := range []int{0, rows / 2, rows - 1} {
					check(fmt.Sprintf("row %d of %d, batch %d", r, rows, f), p.mc, at(f, rows, r), r)
				}
				for _, r := range []int{rows - 1, rows, 2*rows + 1} {
					check(fmt.Sprintf("row %d of %d in chunks of %d, batch %d", r, 2*rows+2, rows, f), p.mc, at(f, 2*rows+2, r), r)
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						r := (g*7 + i*13) % rows
						check(fmt.Sprintf("goroutine %d, row %d", g, r), p.mc, at(g%2, rows, r), r)
					}
				}(g)
			}
			wg.Wait()
		}
	}
}

// TestMCMasksAreIndependentDraws: the mask rule keeps each unit with
// probability 1−p, and the keep decisions of two passes of one row, or of
// one pass of two rows, are independent: each row draws its own masks, as
// MC dropout over independent inputs does, so no mask is shared across a
// batch or a generation. mcThin, the float paths' form of the rule,
// thins exactly the units mcKeep, the int8 path's form, keeps.
func TestMCMasksAreIndependentDraws(t *testing.T) {
	const rows, units = 4000, 33
	thin := make([]float64, units)
	for _, p := range []float64{0.1, 0.3} {
		keep := 1 - p
		lim := mcLimit(keep)
		var kept, bothPasses, bothRows, n float64
		for r := 0; r < rows; r++ {
			row := mcRowKey(7, []float64{float64(r), 0.5})
			next := mcRowKey(7, []float64{float64(r + 1), 0.5})
			k0, k1, kn := mcPassKey(row, 1, 0), mcPassKey(row, 1, 1), mcPassKey(next, 1, 0)
			for j := range thin {
				thin[j] = keep
			}
			mcThin(thin, k0, lim, 1/keep)
			for j := 0; j < units; j++ {
				a := mcKeep(k0, j, lim)
				if (thin[j] != 0) != a {
					t.Fatalf("p %v, row %d unit %d: mcThin left %v, mcKeep says kept=%v", p, r, j, thin[j], a)
				}
				if a {
					kept++
				}
				if a && mcKeep(k1, j, lim) {
					bothPasses++
				}
				if a && mcKeep(kn, j, lim) {
					bothRows++
				}
				n++
			}
		}
		for _, c := range []struct {
			what      string
			got, want float64
		}{{"kept", kept / n, keep}, {"kept in two passes", bothPasses / n, keep * keep}, {"kept in two rows", bothRows / n, keep * keep}} {
			if sd := math.Sqrt(c.want * (1 - c.want) / n); math.Abs(c.got-c.want) > 5*sd {
				t.Errorf("p %v: %s %.4f of units, want %.4f ± %.4f", p, c.what, c.got, c.want, 5*sd)
			}
		}
	}
}
