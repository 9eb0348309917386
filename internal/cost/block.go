package cost

import "fmt"

// Block is a contiguous group of layers treated as one distillation unit:
// a teacher block Ti or a student block Si in the paper's terminology.
type Block struct {
	Name   string
	Layers []Layer
}

// MACs returns the per-sample multiply-accumulate count of the block.
func (b Block) MACs() float64 {
	var s float64
	for _, l := range b.Layers {
		s += l.MACs()
	}
	return s
}

// FwdFLOPs returns the forward FLOPs of the block for a batch.
func (b Block) FwdFLOPs(batch int) float64 {
	var s float64
	for _, l := range b.Layers {
		s += l.FwdFLOPs(batch)
	}
	return s
}

// ParamCount returns the trainable parameter count of the block.
func (b Block) ParamCount() int64 {
	var s int64
	for _, l := range b.Layers {
		s += l.ParamCount()
	}
	return s
}

// ParamBytes returns the float32 byte size of the block's parameters.
func (b Block) ParamBytes() int64 { return 4 * b.ParamCount() }

// InBytes returns the block's input activation size for a batch.
func (b Block) InBytes(batch int) int64 {
	if len(b.Layers) == 0 {
		return 0
	}
	return b.Layers[0].InBytes(batch)
}

// OutBytes returns the block's output activation size for a batch.
func (b Block) OutBytes(batch int) int64 {
	if len(b.Layers) == 0 {
		return 0
	}
	return b.Layers[len(b.Layers)-1].OutBytes(batch)
}

// MaxActBytes returns the largest single activation produced inside the
// block for a batch (governs inference working-set size).
func (b Block) MaxActBytes(batch int) int64 {
	var m int64
	for _, l := range b.Layers {
		if v := l.OutBytes(batch); v > m {
			m = v
		}
	}
	if in := b.InBytes(batch); in > m {
		m = in
	}
	return m
}

// StoredActBytes returns the total activation bytes retained for a
// backward pass through the block (training working set).
func (b Block) StoredActBytes(batch int) int64 {
	var s int64
	for _, l := range b.Layers {
		s += l.StoredBytes(batch)
	}
	return s
}

// Validate checks intra-block shape consistency: each layer's input
// geometry must match the previous layer's output geometry.
func (b Block) Validate() error {
	for i := 1; i < len(b.Layers); i++ {
		prev, cur := b.Layers[i-1], b.Layers[i]
		if cur.BranchStart {
			continue // branch head: input comes from an earlier activation
		}
		if prev.Kind == Flatten || cur.Kind == Linear {
			continue // rank change; channel bookkeeping handled by builder
		}
		if prev.Kind == Linear {
			continue
		}
		if cur.InC != prev.OutC || cur.InH != prev.OutH() || cur.InW != prev.OutW() {
			return fmt.Errorf("cost: block %q layer %d (%s %q) input [%d,%d,%d] does not match previous output [%d,%d,%d]",
				b.Name, i, cur.Kind, cur.Name, cur.InC, cur.InH, cur.InW, prev.OutC, prev.OutH(), prev.OutW())
		}
	}
	return nil
}

// Network is an ordered list of blocks forming a full model.
type Network struct {
	Name   string
	Blocks []Block
}

// MACs returns the per-sample MAC count of the whole network.
func (n Network) MACs() float64 {
	var s float64
	for _, b := range n.Blocks {
		s += b.MACs()
	}
	return s
}

// ParamCount returns the trainable parameter count of the whole network.
func (n Network) ParamCount() int64 {
	var s int64
	for _, b := range n.Blocks {
		s += b.ParamCount()
	}
	return s
}

// Validate checks every block and inter-block shape continuity.
func (n Network) Validate() error {
	for i, b := range n.Blocks {
		if len(b.Layers) == 0 {
			return fmt.Errorf("cost: network %q block %d (%q) is empty", n.Name, i, b.Name)
		}
		if err := b.Validate(); err != nil {
			return err
		}
	}
	return nil
}
