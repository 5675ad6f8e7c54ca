package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// onePanelMC is the pass-stacked MC path with every pass of a chunk in one
// tall panel — passes·rows rows, sized per call — kept as the reference the
// grouped path must match bit for bit: the same prefix, the same mask draws
// in the same order, one matmul per dense step over all passes and the
// row-wise shifted-data reduction.
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
				masks := make([]float64, passes*tall.Cols)
				keep := 1 - st.p
				for i := range masks {
					if ctx.rng.Float64() < keep {
						masks[i] = 1 / keep
					}
				}
				tensor.ScaleColumnsBlocks(tall, tall, masks, b)
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

// restartStreams drops c's idle batch contexts and rewinds its seed
// counter, so the next context c mints draws the stream the first one did.
func restartStreams(c *Compiled) {
	c.bpool.idle = nil
	c.seedCtr.Store(0)
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
					restartStreams(c)
					mean, std := c.PredictMCBatch(x, passes, nil, nil)
					restartStreams(c)
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
