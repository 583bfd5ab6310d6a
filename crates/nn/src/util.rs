//! Workspace helpers shared by the layers.

use litho_tensor::Tensor;

/// A zero-element placeholder tensor for workspace slots whose buffers are
/// currently lent out (or not yet grown).
pub(crate) fn empty() -> Tensor {
    Tensor::zeros(&[0])
}

/// Reshapes `t` to `dims`, reusing its buffer when the element count
/// matches and reallocating only on growth/shrink — the grow-on-demand
/// primitive behind every layer workspace. Contents are unspecified
/// afterwards; callers must fully overwrite.
pub(crate) fn ensure_shape(t: &mut Tensor, dims: &[usize]) {
    if t.dims() == dims {
        return;
    }
    let volume: usize = dims.iter().product();
    litho_tensor::note_workspace_bytes((volume * 4) as u64);
    if t.len() == volume {
        t.reshape_in_place(dims).expect("volume was checked");
    } else {
        *t = Tensor::zeros(dims);
    }
}

/// The reused buffers of a convolution layer, grown on demand so the hot
/// loop stops allocating. The saved input cycles between the workspace
/// and the train cache: forward copies the input into it and lends it to
/// the cache ([`ConvWorkspace::lend_input`]), backward hands it back.
#[derive(Debug)]
pub(crate) struct ConvWorkspace {
    /// The saved input, while it is not lent to the train cache.
    pub(crate) input: Tensor,
    /// One backward's weight gradient, before it joins the parameter's.
    pub(crate) dw: Tensor,
}

impl Default for ConvWorkspace {
    fn default() -> Self {
        ConvWorkspace {
            input: empty(),
            dw: empty(),
        }
    }
}

impl ConvWorkspace {
    /// Copies `input` into the saved-input buffer and lends that buffer
    /// out for the train cache; the copy allocates only when the input's
    /// size changes.
    pub(crate) fn lend_input(&mut self, input: &Tensor) -> Tensor {
        let mut saved = std::mem::replace(&mut self.input, empty());
        ensure_shape(&mut saved, input.dims());
        saved.as_mut_slice().copy_from_slice(input.as_slice());
        saved
    }
}
