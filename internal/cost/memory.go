package cost

// Device memory estimation for Fig. 7. All sizes are float32 bytes. The
// buffers at a stage's boundaries are sched.Memory's to add.
//
// A teacher block runs inference only: it needs its parameters plus a
// small working set (the two largest adjacent activations), because
// activations can be freed as the forward pass proceeds.
//
// A student block under training needs parameters, gradients, optimizer
// state (one momentum buffer), and every stored intermediate activation
// for the backward pass.

// TeacherBlockMemory returns the inference memory of a teacher block at
// the given batch.
func TeacherBlockMemory(b Block, batch int) int64 {
	return b.ParamBytes() + 2*b.MaxActBytes(batch)
}

// StudentBlockMemory returns the training memory of a student block at
// the given batch: 3× parameters (value, gradient, momentum) plus stored
// activations plus the input retained for the first layer's backward.
func StudentBlockMemory(b Block, batch int) int64 {
	return 3*b.ParamBytes() + b.StoredActBytes(batch) + b.InBytes(batch)
}
