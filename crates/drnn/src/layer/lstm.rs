//! Long Short-Term Memory layer with fused gate matrices.
//!
//! Gates are stored fused as `[i | f | g | o]` blocks of width `H` so one
//! GEMM per step computes all pre-activations:
//!
//! ```text
//! a_t = x_t · Wx + h_{t-1} · Wh + b          (B × 4H)
//! i = σ(a_i)   f = σ(a_f)   g = tanh(a_g)   o = σ(a_o)
//! c_t = f ∘ c_{t-1} + i ∘ g
//! h_t = o ∘ tanh(c_t)
//! ```
//!
//! The forget-gate bias initializes to 1.0 (Jozefowicz et al., 2015), which
//! materially speeds up learning of long temporal dependencies.
//!
//! Hot-path structure: forward activates gates **in place** on the
//! preactivation buffer (the cache stores activated gates, which is all
//! backward needs), and every per-step buffer lives in the reusable
//! [`LstmCache`] / layer scratch so steady-state training allocates
//! nothing.  Everything after a step's two GEMMs — bias, activations, `c_t`,
//! `tanh(c_t)`, `h_t` — is one pass over each row.  Backward transposes `Wx`
//! and `Wh` once per call into scratch (they are constant across the steps)
//! so `dx = da·Wᵀ` is a plain product, uses `matmul_at_b_into` for
//! `gW += xᵀ·da`, and skips `dx` altogether when the caller has no use for
//! it (the bottom layer of a stack).

use rand::rngs::StdRng;

use crate::activation::{dsigmoid_from_output, dtanh_from_output, sigmoid_slice, tanh_slice};
use crate::init::xavier_uniform;
use crate::matrix::Matrix;

/// Resizes a per-step matrix buffer to exactly `n` entries, keeping the
/// allocations of the entries that survive (each step then reshapes its
/// matrix in place via `resize_uninit`).
fn ensure_seq(v: &mut Vec<Matrix>, n: usize) {
    v.resize_with(n, Matrix::default);
}

/// Reusable forward cache consumed by [`LstmLayer::backward`].  Holds, per
/// step, the **activated** fused gate block `[i|f|g|o]` (`B × 4H`), the
/// cell state and its tanh (`B × H` each).  Inputs and hidden outputs are
/// not duplicated here — backward receives them from the caller.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    gates: Vec<Matrix>,
    c: Vec<Matrix>,
    tanh_c: Vec<Matrix>,
    len: usize,
    batch: usize,
}

impl LstmCache {
    /// Number of cached steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no steps are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Reusable backward scratch (gradient flow buffers).  Lives in the layer
/// so repeated BPTT passes are allocation-free.
#[derive(Debug, Clone, Default)]
struct LstmScratch {
    dh: Matrix,
    dc: Matrix,
    dh_next: Matrix,
    dc_next: Matrix,
    da: Matrix,
    wxt: Matrix,
    wht: Matrix,
}

/// Everything a step does after its GEMMs, as one pass over a batch row
/// while it is in L1: bias, then σ on `[i|f]`, tanh on `g`, σ on `o` in place
/// on the pre-activation row `a` (the cache keeps activated gates), then
/// `c = f ∘ c_prev + i ∘ g` (`c_prev = 0` at the first step),
/// `tc = tanh(c)` and `h = o ∘ tc`.
fn cell_row(
    a: &mut [f64],
    bias: &[f64],
    c_prev: Option<&[f64]>,
    c: &mut [f64],
    tc: &mut [f64],
    h: &mut [f64],
) {
    let h_dim = h.len();
    for (v, b) in a.iter_mut().zip(bias) {
        *v += b;
    }
    let (i_f, g_o) = a.split_at_mut(2 * h_dim);
    let (g, o) = g_o.split_at_mut(h_dim);
    sigmoid_slice(i_f);
    tanh_slice(g);
    sigmoid_slice(o);
    let (i, f) = i_f.split_at(h_dim);
    match c_prev {
        Some(c_prev) => {
            for ((((c, f), cp), i), g) in c.iter_mut().zip(f).zip(c_prev).zip(i).zip(&*g) {
                *c = f * cp + i * g;
            }
        }
        None => {
            for ((c, i), g) in c.iter_mut().zip(i).zip(&*g) {
                *c = i * g;
            }
        }
    }
    tc.copy_from_slice(c);
    tanh_slice(tc);
    for ((h, o), tc) in h.iter_mut().zip(&*o).zip(&*tc) {
        *h = o * tc;
    }
}

/// An LSTM layer.
#[derive(Debug, Clone)]
pub struct LstmLayer {
    input: usize,
    hidden: usize,
    wx: Matrix,
    wh: Matrix,
    b: Matrix,
    gwx: Option<Matrix>,
    gwh: Option<Matrix>,
    gb: Option<Matrix>,
    scratch: LstmScratch,
}

impl LstmLayer {
    /// New layer with Xavier-initialized weights and forget bias 1.0.
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for h in 0..hidden {
            b.set(0, hidden + h, 1.0); // forget gate block
        }
        LstmLayer {
            input,
            hidden,
            wx: xavier_uniform(input, 4 * hidden, rng),
            wh: xavier_uniform(hidden, 4 * hidden, rng),
            b,
            gwx: None,
            gwh: None,
            gb: None,
            scratch: LstmScratch::default(),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        (self.input + self.hidden + 1) * 4 * self.hidden
    }

    fn ensure_grads(&mut self) {
        if self.gwx.is_none() {
            self.gwx = Some(Matrix::zeros(self.input, 4 * self.hidden));
            self.gwh = Some(Matrix::zeros(self.hidden, 4 * self.hidden));
            self.gb = Some(Matrix::zeros(1, 4 * self.hidden));
        }
    }

    /// Visits `(param, grad)` pairs in a stable order.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.ensure_grads();
        f(&mut self.wx, self.gwx.as_mut().unwrap());
        f(&mut self.wh, self.gwh.as_mut().unwrap());
        f(&mut self.b, self.gb.as_mut().unwrap());
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.ensure_grads();
        self.gwx.as_mut().unwrap().zero_in_place();
        self.gwh.as_mut().unwrap().zero_in_place();
        self.gb.as_mut().unwrap().zero_in_place();
    }

    /// Runs the layer over a sequence of inputs (each `B × input`), starting
    /// from zero state.  Returns the hidden state at every step and a cache
    /// for backward.  Allocating wrapper over
    /// [`forward_into`](Self::forward_into).
    pub fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, LstmCache) {
        let mut hs = Vec::new();
        let mut cache = LstmCache::default();
        self.forward_into(xs, &mut hs, &mut cache);
        (hs, cache)
    }

    /// Forward pass into caller-owned buffers.  `hs` and `cache` are
    /// resized in place, reusing prior allocations — calling this in a
    /// training loop with the same buffers makes the steady state
    /// allocation-free.
    pub fn forward_into(&self, xs: &[Matrix], hs: &mut Vec<Matrix>, cache: &mut LstmCache) {
        assert!(!xs.is_empty(), "empty sequence");
        let batch = xs[0].rows();
        let h_dim = self.hidden;
        let steps = xs.len();
        ensure_seq(hs, steps);
        ensure_seq(&mut cache.gates, steps);
        ensure_seq(&mut cache.c, steps);
        ensure_seq(&mut cache.tanh_c, steps);
        cache.len = steps;
        cache.batch = batch;

        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.cols(), self.input, "input width mismatch");
            assert_eq!(x.rows(), batch, "batch size changed mid-sequence");

            // a = x·Wx ⊕ h_prev·Wh (the bias joins in the row pass below).
            let a = &mut cache.gates[t];
            x.matmul_into(&self.wx, a);
            let (h_head, h_tail) = hs.split_at_mut(t);
            if t > 0 {
                // h_0 is the zero matrix: its GEMM is skipped entirely.
                h_head[t - 1].matmul_add_into(&self.wh, a);
            }

            let (c_head, c_tail) = cache.c.split_at_mut(t);
            let c_prev = c_head.last();
            let c_t = &mut c_tail[0];
            c_t.resize_uninit(batch, h_dim);
            let tc = &mut cache.tanh_c[t];
            tc.resize_uninit(batch, h_dim);
            let h_t = &mut h_tail[0];
            h_t.resize_uninit(batch, h_dim);
            for r in 0..batch {
                let c_prev = c_prev.map(|c| c.row(r));
                let (c, tc, h) = (c_t.row_mut(r), tc.row_mut(r), h_t.row_mut(r));
                cell_row(a.row_mut(r), self.b.row(0), c_prev, c, tc, h);
            }
        }
    }

    /// Backpropagation through time.  `xs`/`hs` are the forward inputs and
    /// outputs (the cache does not duplicate them), `dhs[t]` is `∂L/∂h_t`
    /// from above.  Accumulates parameter gradients and returns `∂L/∂x_t`
    /// per step.  Allocating wrapper over
    /// [`backward_into`](Self::backward_into).
    pub fn backward(
        &mut self,
        xs: &[Matrix],
        hs: &[Matrix],
        cache: &LstmCache,
        dhs: &[Matrix],
    ) -> Vec<Matrix> {
        let mut dxs = Vec::new();
        self.backward_into(xs, hs, cache, dhs, Some(&mut dxs));
        dxs
    }

    /// BPTT with all gradient-flow scratch reused across calls.  `∂L/∂x_t`
    /// goes into the caller-owned `dxs` buffer; a caller with no use for it
    /// (nothing below this layer) passes `None` and its products are not
    /// computed.
    pub fn backward_into(
        &mut self,
        xs: &[Matrix],
        hs: &[Matrix],
        cache: &LstmCache,
        dhs: &[Matrix],
        mut dxs: Option<&mut Vec<Matrix>>,
    ) {
        assert_eq!(cache.len, dhs.len(), "cache/grad length mismatch");
        assert_eq!(cache.len, xs.len(), "cache/input length mismatch");
        assert_eq!(cache.len, hs.len(), "cache/output length mismatch");
        self.ensure_grads();
        let h_dim = self.hidden;
        let batch = cache.batch;

        let s = &mut self.scratch;
        s.dh_next.resize_zeroed(batch, h_dim);
        s.dc_next.resize_zeroed(batch, h_dim);
        // d· = da · Wᵀ at every step: transpose the weights once.
        self.wh.transpose_into(&mut s.wht);
        if let Some(dxs) = dxs.as_deref_mut() {
            ensure_seq(dxs, cache.len);
            self.wx.transpose_into(&mut s.wxt);
        }

        for t in (0..cache.len).rev() {
            let gates = &cache.gates[t];
            let tanh_c = &cache.tanh_c[t];

            // dh = dhs[t] + dh_next
            s.dh.copy_from(&dhs[t]);
            s.dh.add_in_place(&s.dh_next);

            // dc = dh ∘ o ∘ (1 − tanh(c)²) + dc_next
            s.dc.resize_uninit(batch, h_dim);
            for r in 0..batch {
                let arow = gates.row(r);
                let tcrow = tanh_c.row(r);
                let dhrow = s.dh.row(r);
                let dcnrow = s.dc_next.row(r);
                let dcrow = s.dc.row_mut(r);
                for j in 0..h_dim {
                    dcrow[j] =
                        dhrow[j] * arow[3 * h_dim + j] * dtanh_from_output(tcrow[j]) + dcnrow[j];
                }
            }

            // Fused gate pre-activation gradients, written block-wise into
            // one B × 4H buffer (no per-gate temporaries).
            s.da.resize_uninit(batch, 4 * h_dim);
            for r in 0..batch {
                let arow = gates.row(r);
                let tcrow = tanh_c.row(r);
                let dhrow = s.dh.row(r);
                let dcrow = s.dc.row(r);
                let darow = s.da.row_mut(r);
                if t > 0 {
                    let cprev = cache.c[t - 1].row(r);
                    for j in 0..h_dim {
                        darow[h_dim + j] =
                            dcrow[j] * cprev[j] * dsigmoid_from_output(arow[h_dim + j]);
                    }
                } else {
                    darow[h_dim..2 * h_dim].fill(0.0); // c_prev = 0
                }
                for j in 0..h_dim {
                    let (i, g, o) = (arow[j], arow[2 * h_dim + j], arow[3 * h_dim + j]);
                    darow[j] = dcrow[j] * g * dsigmoid_from_output(i);
                    darow[2 * h_dim + j] = dcrow[j] * i * dtanh_from_output(g);
                    darow[3 * h_dim + j] = dhrow[j] * tcrow[j] * dsigmoid_from_output(o);
                }
            }

            // Transpose-free parameter gradients: gW += inputᵀ · da.
            xs[t].matmul_at_b_into(&s.da, self.gwx.as_mut().unwrap());
            s.da.col_sums_add_into(self.gb.as_mut().unwrap());
            if let Some(dxs) = dxs.as_deref_mut() {
                s.da.matmul_into(&s.wxt, &mut dxs[t]);
            }
            if t == 0 {
                break; // h_0 = c_0 = 0: nothing flows further back.
            }
            hs[t - 1].matmul_at_b_into(&s.da, self.gwh.as_mut().unwrap());
            s.da.matmul_into(&s.wht, &mut s.dh_next);

            // dc_next = dc ∘ f
            s.dc_next.resize_uninit(batch, h_dim);
            for r in 0..batch {
                let arow = gates.row(r);
                let dcrow = s.dc.row(r);
                let out = s.dc_next.row_mut(r);
                for j in 0..h_dim {
                    out[j] = dcrow[j] * arow[h_dim + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn make(input: usize, hidden: usize, seed: u64) -> LstmLayer {
        LstmLayer::new(input, hidden, &mut StdRng::seed_from_u64(seed))
    }

    fn seq(t: usize, b: usize, i: usize, scale: f64) -> Vec<Matrix> {
        (0..t)
            .map(|step| {
                Matrix::from_vec(
                    b,
                    i,
                    (0..b * i)
                        .map(|k| ((step * 7 + k * 3) % 11) as f64 / 11.0 * scale - scale / 2.0)
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let layer = make(3, 5, 1);
        let xs = seq(4, 2, 3, 2.0);
        let (hs, cache) = layer.forward(&xs);
        assert_eq!(hs.len(), 4);
        assert_eq!(hs[0].shape(), (2, 5));
        assert_eq!(cache.len(), 4);
        // h = o * tanh(c) is bounded by (-1, 1).
        for h in &hs {
            assert!(h.as_slice().iter().all(|v| v.abs() < 1.0));
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let layer = make(2, 3, 1);
        for h in 0..3 {
            assert_eq!(layer.b.get(0, 3 + h), 1.0);
            assert_eq!(layer.b.get(0, h), 0.0);
        }
    }

    #[test]
    fn state_carries_information_forward() {
        // Same input at t=1 but different input at t=0 must change h_1.
        let layer = make(2, 4, 3);
        let x_same = Matrix::from_rows(&[vec![0.5, -0.5]]);
        let a = vec![Matrix::from_rows(&[vec![1.0, 1.0]]), x_same.clone()];
        let b = vec![Matrix::from_rows(&[vec![-1.0, 0.2]]), x_same];
        let (ha, _) = layer.forward(&a);
        let (hb, _) = layer.forward(&b);
        let diff: f64 = ha[1]
            .as_slice()
            .iter()
            .zip(hb[1].as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-4, "hidden state ignored history (diff {diff})");
    }

    /// The forward pass one public matrix/slice operation at a time, in the
    /// fused pass's operation order — the reference for [`cell_row`].
    fn unfused_forward(layer: &LstmLayer, xs: &[Matrix]) -> Vec<Matrix> {
        use crate::activation::{sigmoid_slice, tanh_slice};
        let (batch, h) = (xs[0].rows(), layer.hidden);
        let mut hs: Vec<Matrix> = Vec::new();
        let mut c_prev: Option<Matrix> = None;
        for x in xs {
            let mut a = x.matmul(&layer.wx);
            if let Some(h_prev) = hs.last() {
                h_prev.matmul_add_into(&layer.wh, &mut a);
            }
            a.add_row_in_place(layer.b.row(0));
            let mut c = Matrix::zeros(batch, h);
            for r in 0..batch {
                let row = a.row_mut(r);
                sigmoid_slice(&mut row[..2 * h]);
                tanh_slice(&mut row[2 * h..3 * h]);
                sigmoid_slice(&mut row[3 * h..]);
                for j in 0..h {
                    let ig = row[j] * row[2 * h + j];
                    let v = match &c_prev {
                        Some(cp) => row[h + j] * cp.get(r, j) + ig,
                        None => ig,
                    };
                    c.set(r, j, v);
                }
            }
            let mut tc = c.clone();
            tanh_slice(tc.as_mut_slice());
            hs.push(a.cols_slice(3 * h, 4 * h).hadamard(&tc));
            c_prev = Some(c);
        }
        hs
    }

    #[test]
    fn reused_buffers_match_fresh_and_unfused_forward() {
        // Same layer, shrinking then growing batch/sequence: reused cache
        // buffers must give bit-identical results to a fresh forward, and
        // the fused row pass to the unfused reference.  Hidden 5 and 32
        // leave and fill the vector lanes; batch 1 is the inference shape.
        for hidden in [5, 32] {
            let layer = make(3, hidden, 7);
            let mut hs = Vec::new();
            let mut cache = LstmCache::default();
            for (t, b) in [(4usize, 3usize), (2, 1), (5, 4), (3, 33), (1, 2)] {
                let xs = seq(t, b, 3, 1.0);
                layer.forward_into(&xs, &mut hs, &mut cache);
                let (fresh, _) = layer.forward(&xs);
                assert_eq!(hs, fresh, "hidden {hidden} seq {t} batch {b}");
                assert_eq!(
                    hs,
                    unfused_forward(&layer, &xs),
                    "hidden {hidden} seq {t} batch {b}"
                );
            }
        }
    }

    /// Full finite-difference gradient check of every parameter.
    #[test]
    fn bptt_gradients_match_finite_differences() {
        let mut layer = make(3, 4, 5);
        let xs = seq(5, 2, 3, 1.0);
        // Loss = sum of all h_t elements  →  dL/dh_t = ones.
        let loss = |l: &LstmLayer| -> f64 {
            let (hs, _) = l.forward(&xs);
            hs.iter().map(Matrix::sum).sum()
        };
        let (hs, cache) = layer.forward(&xs);
        let dhs: Vec<Matrix> = hs
            .iter()
            .map(|h| Matrix::full(h.rows(), h.cols(), 1.0))
            .collect();
        layer.zero_grads();
        layer.backward(&xs, &hs, &cache, &dhs);

        let eps = 1e-5;
        // Snapshot analytic grads, then perturb each param.
        let grads: Vec<Matrix> = {
            let mut out = Vec::new();
            layer.for_each_param(&mut |_p, g| out.push(g.clone()));
            out
        };
        for (pi, analytic) in grads.iter().enumerate() {
            // Sample a handful of coordinates per matrix to keep runtime low.
            let len = analytic.as_slice().len();
            for k in [0usize, len / 3, len / 2, len - 1] {
                let base = {
                    let mut params = Vec::new();
                    layer.for_each_param(&mut |p, _| params.push(p as *mut Matrix));
                    params[pi]
                };
                // SAFETY: raw pointer used only to perturb a single param
                // while no other borrow is live.
                let orig = unsafe { (*base).as_slice()[k] };
                unsafe { (*base).as_mut_slice()[k] = orig + eps };
                let lp = loss(&layer);
                unsafe { (*base).as_mut_slice()[k] = orig - eps };
                let lm = loss(&layer);
                unsafe { (*base).as_mut_slice()[k] = orig };
                let numeric = (lp - lm) / (2.0 * eps);
                let ana = analytic.as_slice()[k];
                assert!(
                    (numeric - ana).abs() < 1e-4 * (1.0 + numeric.abs().max(ana.abs())),
                    "param {pi} coord {k}: numeric {numeric} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn dx_gradient_matches_finite_differences() {
        let mut layer = make(2, 3, 9);
        let mut xs = seq(3, 1, 2, 1.0);
        let (hs, cache) = layer.forward(&xs);
        let dhs: Vec<Matrix> = hs
            .iter()
            .map(|h| Matrix::full(h.rows(), h.cols(), 1.0))
            .collect();
        layer.zero_grads();
        let dxs = layer.backward(&xs, &hs, &cache, &dhs);

        let eps = 1e-5;
        for t in 0..3 {
            for k in 0..2 {
                let orig = xs[t].as_slice()[k];
                xs[t].as_mut_slice()[k] = orig + eps;
                let lp: f64 = layer.forward(&xs).0.iter().map(Matrix::sum).sum();
                xs[t].as_mut_slice()[k] = orig - eps;
                let lm: f64 = layer.forward(&xs).0.iter().map(Matrix::sum).sum();
                xs[t].as_mut_slice()[k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let ana = dxs[t].as_slice()[k];
                assert!(
                    (numeric - ana).abs() < 1e-6 + 1e-4 * numeric.abs(),
                    "dx[{t}][{k}]: {numeric} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn zero_grads_resets_accumulation() {
        let mut layer = make(2, 2, 11);
        let xs = seq(2, 1, 2, 1.0);
        let (hs, cache) = layer.forward(&xs);
        let dhs: Vec<Matrix> = hs.iter().map(|_| Matrix::full(1, 2, 1.0)).collect();
        layer.zero_grads();
        layer.backward(&xs, &hs, &cache, &dhs);
        let norm_once = {
            let mut n = 0.0;
            layer.for_each_param(&mut |_p, g| n += g.frobenius_norm());
            n
        };
        assert!(norm_once > 0.0);
        layer.zero_grads();
        let mut n = 0.0;
        layer.for_each_param(&mut |_p, g| n += g.frobenius_norm());
        assert_eq!(n, 0.0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_input_width() {
        let layer = make(3, 4, 1);
        let xs = vec![Matrix::zeros(1, 2)];
        layer.forward(&xs);
    }
}
