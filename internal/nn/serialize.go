package nn

import (
	"fmt"

	"repro/internal/xrand"
)

// layerSpec is the decoded form of one layer of an artifact's network
// section.
type layerSpec struct {
	Kind    string // "dense" | "dropout"
	In, Out int
	Act     Activation
	W, B    []float64
	P       float64
}

// buildNetwork validates a layer-spec list decoded from the binary
// artifact format and constructs the network. Nothing in specs is
// trusted: dimensions must be positive and consistent along the layer
// chain, weight/bias lengths must match the declared geometry, the
// activation must be a known one and dropout P must be in [0, 1).
func buildNetwork(specs []layerSpec, rng *xrand.Rand) (*Network, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("nn: load: network has no layers")
	}
	var layers []Layer
	width := -1 // activation width flowing into the next layer; -1 until the first dense
	for i, ls := range specs {
		switch ls.Kind {
		case "dense":
			if ls.In <= 0 || ls.Out <= 0 {
				return nil, fmt.Errorf("nn: load: layer %d has non-positive dims %dx%d", i, ls.In, ls.Out)
			}
			if ls.Act < Identity || ls.Act > Sigmoid {
				return nil, fmt.Errorf("nn: load: layer %d has unknown activation %d", i, ls.Act)
			}
			if len(ls.W) != ls.In*ls.Out || len(ls.B) != ls.Out {
				return nil, fmt.Errorf("nn: load: layer %d weight size mismatch (W %d want %d, B %d want %d)",
					i, len(ls.W), ls.In*ls.Out, len(ls.B), ls.Out)
			}
			if width >= 0 && width != ls.In {
				return nil, fmt.Errorf("nn: load: layer %d fan-in %d breaks width chain %d", i, ls.In, width)
			}
			d := NewDense(ls.In, ls.Out, ls.Act, rng)
			copy(d.W.Data, ls.W)
			copy(d.B.Data, ls.B)
			layers = append(layers, d)
			width = ls.Out
		case "dropout":
			if !(ls.P >= 0 && ls.P < 1) {
				return nil, fmt.Errorf("nn: load: layer %d dropout P %v out of range [0, 1)", i, ls.P)
			}
			layers = append(layers, NewDropout(ls.P))
		default:
			return nil, fmt.Errorf("nn: load: unknown layer kind %q", ls.Kind)
		}
	}
	return NewNetwork(rng, layers...), nil
}

// CloneArchitecture builds a freshly initialized network with the same
// architecture as n, using rng for the new weights. Used by active
// learning retraining.
func (n *Network) CloneArchitecture(rng *xrand.Rand) *Network {
	var layers []Layer
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			layers = append(layers, NewDense(layer.In, layer.Out, layer.Act, rng))
		case *Dropout:
			layers = append(layers, NewDropout(layer.P))
		default:
			panic(fmt.Sprintf("nn: cannot clone layer type %T", l))
		}
	}
	return NewNetwork(rng, layers...)
}

// Snapshot returns an independent deep copy of the network: the same
// architecture and current weights, fresh workspaces, and its own
// deterministic dropout-rng stream derived from the parent. The copy
// shares no mutable state with the original, so one side can train (or be
// discarded) while the other serves — the publication primitive behind
// double-buffered surrogate serving. Like all inference entry points it
// must not race with concurrent training on the source network.
func (n *Network) Snapshot() *Network {
	c := n.CloneArchitecture(xrand.New(n.deriveSeed()))
	if err := c.CopyWeightsFrom(n); err != nil {
		panic(fmt.Sprintf("nn: snapshot of own architecture failed: %v", err))
	}
	return c
}

// CopyWeightsFrom copies parameter values from src into n; architectures
// must match exactly.
func (n *Network) CopyWeightsFrom(src *Network) error {
	dst := n.Params()
	s := src.Params()
	if len(dst) != len(s) {
		return fmt.Errorf("nn: parameter group count mismatch %d vs %d", len(dst), len(s))
	}
	for i := range dst {
		if dst[i].Value.Rows != s[i].Value.Rows || dst[i].Value.Cols != s[i].Value.Cols {
			return fmt.Errorf("nn: parameter %d shape mismatch", i)
		}
		copy(dst[i].Value.Data, s[i].Value.Data)
	}
	return nil
}
