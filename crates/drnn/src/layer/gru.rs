//! Gated Recurrent Unit layer.
//!
//! ```text
//! z = σ(x·Wxz + h·Whz + bz)          update gate
//! r = σ(x·Wxr + h·Whr + br)          reset gate
//! n = tanh(x·Wxn + (r ∘ h)·Whn + bn) candidate
//! h' = (1 - z) ∘ n + z ∘ h
//! ```
//!
//! `Wx` is fused as `[z | r | n]` (I × 3H); the hidden weights are split
//! into `Whzr` (H × 2H) and `Whn` (H × H) because the candidate gate mixes
//! the reset gate in before its GEMM.
//!
//! Like the LSTM, the hot path activates gates in place on the fused
//! preactivation buffer, reuses every per-step buffer across batches, and
//! backpropagates on weights transposed once per call (`d· = da·Wᵀ` is then
//! a plain product) — the only copies left are the cheap block moves that
//! assemble the fused `[z|r|n]` / `[z|r]` gradient buffers for the fused
//! weight GEMMs.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::{dsigmoid_from_output, dtanh_from_output, sigmoid_slice, tanh_slice};
use crate::init::xavier_uniform;
use crate::layer::ensure_seq;
use crate::matrix::Matrix;

/// Reusable forward cache consumed by [`GruLayer::backward`].  Per step:
/// the **activated** fused gate block `[z|r|n]` (`B × 3H`) and the reset
/// hidden product `r ∘ h_prev` (`B × H`).  `hzr`/`hn` are forward scratch
/// (hidden-side GEMM outputs) that ride along so `forward(&self)` stays
/// allocation-free on reuse.
#[derive(Debug, Clone, Default)]
pub struct GruCache {
    gates: Vec<Matrix>,
    rh: Vec<Matrix>,
    hzr: Matrix,
    hn: Matrix,
    len: usize,
    batch: usize,
}

impl GruCache {
    /// Number of cached steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no steps are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Reusable backward scratch.
#[derive(Debug, Clone, Default)]
struct GruScratch {
    dh: Matrix,
    dh_next: Matrix,
    da: Matrix,
    da_n: Matrix,
    da_zr: Matrix,
    drh: Matrix,
    wxt: Matrix,
    whzrt: Matrix,
    whnt: Matrix,
}

/// A GRU layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruLayer {
    input: usize,
    hidden: usize,
    wx: Matrix,
    whzr: Matrix,
    whn: Matrix,
    b: Matrix,
    #[serde(skip)]
    gwx: Option<Matrix>,
    #[serde(skip)]
    gwhzr: Option<Matrix>,
    #[serde(skip)]
    gwhn: Option<Matrix>,
    #[serde(skip)]
    gb: Option<Matrix>,
    #[serde(skip, default)]
    scratch: GruScratch,
}

impl GruLayer {
    /// New layer with Xavier-initialized weights.
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        GruLayer {
            input,
            hidden,
            wx: xavier_uniform(input, 3 * hidden, rng),
            whzr: xavier_uniform(hidden, 2 * hidden, rng),
            whn: xavier_uniform(hidden, hidden, rng),
            b: Matrix::zeros(1, 3 * hidden),
            gwx: None,
            gwhzr: None,
            gwhn: None,
            gb: None,
            scratch: GruScratch::default(),
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
        self.input * 3 * self.hidden + self.hidden * 3 * self.hidden + 3 * self.hidden
    }

    fn ensure_grads(&mut self) {
        if self.gwx.is_none() {
            self.gwx = Some(Matrix::zeros(self.input, 3 * self.hidden));
            self.gwhzr = Some(Matrix::zeros(self.hidden, 2 * self.hidden));
            self.gwhn = Some(Matrix::zeros(self.hidden, self.hidden));
            self.gb = Some(Matrix::zeros(1, 3 * self.hidden));
        }
    }

    /// Visits `(param, grad)` pairs in a stable order.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.ensure_grads();
        f(&mut self.wx, self.gwx.as_mut().unwrap());
        f(&mut self.whzr, self.gwhzr.as_mut().unwrap());
        f(&mut self.whn, self.gwhn.as_mut().unwrap());
        f(&mut self.b, self.gb.as_mut().unwrap());
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.ensure_grads();
        self.gwx.as_mut().unwrap().zero_in_place();
        self.gwhzr.as_mut().unwrap().zero_in_place();
        self.gwhn.as_mut().unwrap().zero_in_place();
        self.gb.as_mut().unwrap().zero_in_place();
    }

    /// Runs the layer over a sequence from zero state; returns hidden states
    /// and the backward cache.  Allocating wrapper over
    /// [`forward_into`](Self::forward_into).
    pub fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, GruCache) {
        let mut hs = Vec::new();
        let mut cache = GruCache::default();
        self.forward_into(xs, &mut hs, &mut cache);
        (hs, cache)
    }

    /// Forward pass into caller-owned, reusable buffers.
    pub fn forward_into(&self, xs: &[Matrix], hs: &mut Vec<Matrix>, cache: &mut GruCache) {
        assert!(!xs.is_empty(), "empty sequence");
        let batch = xs[0].rows();
        let h_dim = self.hidden;
        let steps = xs.len();
        ensure_seq(hs, steps);
        ensure_seq(&mut cache.gates, steps);
        ensure_seq(&mut cache.rh, steps);
        cache.len = steps;
        cache.batch = batch;

        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.cols(), self.input, "input width mismatch");
            assert_eq!(x.rows(), batch, "batch size changed mid-sequence");

            // a = bias ⊕ x·Wx, then the hidden-side contributions land on
            // the [z|r] and n column blocks separately.
            let a = &mut cache.gates[t];
            a.resize_uninit(batch, 3 * h_dim);
            for r in 0..batch {
                a.row_mut(r).copy_from_slice(self.b.row(0));
            }
            x.matmul_add_into(&self.wx, a);

            if t > 0 {
                // h_0 = 0: both hidden-side GEMMs vanish at t = 0.
                let h_prev = &hs[t - 1];
                self.hzr_add(h_prev, a, &mut cache.hzr, batch, h_dim);
            }

            // Activate z and r in place: σ on the [z|r] block.
            for r in 0..batch {
                sigmoid_slice(&mut a.row_mut(r)[..2 * h_dim]);
            }

            // rh = r ∘ h_prev, then its GEMM lands on the n block.
            let rh_t = &mut cache.rh[t];
            rh_t.resize_uninit(batch, h_dim);
            if t > 0 {
                let h_prev = &hs[t - 1];
                for r in 0..batch {
                    let arow = a.row(r);
                    let hrow = h_prev.row(r);
                    let rhrow = rh_t.row_mut(r);
                    for j in 0..h_dim {
                        rhrow[j] = arow[h_dim + j] * hrow[j];
                    }
                }
                rh_t.matmul_into(&self.whn, &mut cache.hn);
                for r in 0..batch {
                    let hnrow = cache.hn.row(r);
                    let arow = &mut a.row_mut(r)[2 * h_dim..];
                    for j in 0..h_dim {
                        arow[j] += hnrow[j];
                    }
                }
            } else {
                rh_t.zero_in_place();
            }

            // Activate the candidate: tanh on the n block.
            for r in 0..batch {
                tanh_slice(&mut a.row_mut(r)[2 * h_dim..]);
            }

            // h' = (1-z) ∘ n + z ∘ h_prev
            let (prev_hs, cur_hs) = hs.split_at_mut(t);
            let h_t = &mut cur_hs[0];
            h_t.resize_uninit(batch, h_dim);
            for r in 0..batch {
                let arow = a.row(r);
                let hrow = h_t.row_mut(r);
                if t > 0 {
                    let hprev = prev_hs[t - 1].row(r);
                    for j in 0..h_dim {
                        let z = arow[j];
                        hrow[j] = (1.0 - z) * arow[2 * h_dim + j] + z * hprev[j];
                    }
                } else {
                    for j in 0..h_dim {
                        hrow[j] = (1.0 - arow[j]) * arow[2 * h_dim + j];
                    }
                }
            }
        }
    }

    /// `a[:, 0..2H] += h_prev · Whzr`, staged through the `hzr` scratch
    /// (GEMMs write whole rows; the fused gate buffer is 3H wide).
    fn hzr_add(&self, h_prev: &Matrix, a: &mut Matrix, hzr: &mut Matrix, batch: usize, h: usize) {
        h_prev.matmul_into(&self.whzr, hzr);
        for r in 0..batch {
            let src = hzr.row(r);
            let dst = &mut a.row_mut(r)[..2 * h];
            for j in 0..2 * h {
                dst[j] += src[j];
            }
        }
    }

    /// Backpropagation through time; returns `∂L/∂x_t` per step.  `xs`/`hs`
    /// are the forward inputs/outputs.  Allocating wrapper over
    /// [`backward_into`](Self::backward_into).
    pub fn backward(
        &mut self,
        xs: &[Matrix],
        hs: &[Matrix],
        cache: &GruCache,
        dhs: &[Matrix],
    ) -> Vec<Matrix> {
        let mut dxs = Vec::new();
        self.backward_into(xs, hs, cache, dhs, Some(&mut dxs));
        dxs
    }

    /// BPTT with scratch reused across calls.  `∂L/∂x_t` goes into the
    /// caller-owned `dxs` buffer; a caller with no use for it passes `None`
    /// and its products are not computed.
    pub fn backward_into(
        &mut self,
        xs: &[Matrix],
        hs: &[Matrix],
        cache: &GruCache,
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
        // d· = da · Wᵀ at every step: transpose the weights once.
        self.whn.transpose_into(&mut s.whnt);
        self.whzr.transpose_into(&mut s.whzrt);
        if let Some(dxs) = dxs.as_deref_mut() {
            ensure_seq(dxs, cache.len);
            self.wx.transpose_into(&mut s.wxt);
        }

        for t in (0..cache.len).rev() {
            let gates = &cache.gates[t];

            // dh = dhs[t] + dh_next
            s.dh.copy_from(&dhs[t]);
            s.dh.add_in_place(&s.dh_next);

            // h' = (1-z)∘n + z∘h_prev:
            //   dz = dh ∘ (h_prev − n),  dn = dh ∘ (1 − z),
            //   dh_prev ← dh ∘ z  (more contributions accumulate below).
            s.da.resize_uninit(batch, 3 * h_dim);
            s.da_n.resize_uninit(batch, h_dim);
            for r in 0..batch {
                let arow = gates.row(r);
                let dhrow = s.dh.row(r);
                let darow = s.da.row_mut(r);
                let danrow = s.da_n.row_mut(r);
                let hprev = if t > 0 { Some(hs[t - 1].row(r)) } else { None };
                let dhnrow = s.dh_next.row_mut(r);
                for j in 0..h_dim {
                    let (z, n) = (arow[j], arow[2 * h_dim + j]);
                    let hp = hprev.map_or(0.0, |h| h[j]);
                    darow[j] = dhrow[j] * (hp - n) * dsigmoid_from_output(z);
                    danrow[j] = dhrow[j] * (1.0 - z) * dtanh_from_output(n);
                    dhnrow[j] = dhrow[j] * z;
                }
                darow[2 * h_dim..].copy_from_slice(danrow);
            }

            if t > 0 {
                // Candidate gate: drh = da_n·Whnᵀ; gWhn += rhᵀ·da_n.
                s.da_n.matmul_into(&s.whnt, &mut s.drh);
                cache.rh[t].matmul_at_b_into(&s.da_n, self.gwhn.as_mut().unwrap());

                // rh = r ∘ h_prev: dr = drh ∘ h_prev, dh_prev += drh ∘ r.
                s.da_zr.resize_uninit(batch, 2 * h_dim);
                for r in 0..batch {
                    let arow = gates.row(r);
                    let drhrow = s.drh.row(r);
                    let hprev = hs[t - 1].row(r);
                    let darow = s.da.row_mut(r);
                    let dhnrow = s.dh_next.row_mut(r);
                    for j in 0..h_dim {
                        let rg = arow[h_dim + j];
                        darow[h_dim + j] = drhrow[j] * hprev[j] * dsigmoid_from_output(rg);
                        dhnrow[j] += drhrow[j] * rg;
                    }
                    s.da_zr.row_mut(r).copy_from_slice(&darow[..2 * h_dim]);
                }

                // h-side z/r parameters and state gradient.
                hs[t - 1].matmul_at_b_into(&s.da_zr, self.gwhzr.as_mut().unwrap());
                s.da_zr.matmul_add_into(&s.whzrt, &mut s.dh_next);
            } else {
                // h_prev = 0: dr ≡ 0 and every h-side product vanishes.
                for r in 0..batch {
                    s.da.row_mut(r)[h_dim..2 * h_dim].fill(0.0);
                }
            }

            // x-side parameters and input gradient from the fused block.
            xs[t].matmul_at_b_into(&s.da, self.gwx.as_mut().unwrap());
            s.da.col_sums_add_into(self.gb.as_mut().unwrap());
            if let Some(dxs) = dxs.as_deref_mut() {
                s.da.matmul_into(&s.wxt, &mut dxs[t]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn make(input: usize, hidden: usize, seed: u64) -> GruLayer {
        GruLayer::new(input, hidden, &mut StdRng::seed_from_u64(seed))
    }

    fn seq(t: usize, b: usize, i: usize) -> Vec<Matrix> {
        (0..t)
            .map(|step| {
                Matrix::from_vec(
                    b,
                    i,
                    (0..b * i)
                        .map(|k| ((step * 5 + k * 7) % 13) as f64 / 13.0 - 0.5)
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn forward_shapes() {
        let layer = make(4, 6, 1);
        let xs = seq(3, 2, 4);
        let (hs, cache) = layer.forward(&xs);
        assert_eq!(hs.len(), 3);
        assert_eq!(hs[2].shape(), (2, 6));
        assert_eq!(cache.len(), 3);
        assert_eq!(layer.param_count(), 4 * 18 + 6 * 18 + 18);
    }

    #[test]
    fn hidden_state_interpolates_between_prev_and_candidate() {
        // With z forced toward 1 (huge update-gate bias), h' ≈ h_prev = 0.
        let mut layer = make(2, 3, 2);
        for c in 0..3 {
            layer.b.set(0, c, 50.0); // z-block bias → z ≈ 1
        }
        let xs = seq(1, 1, 2);
        let (hs, _) = layer.forward(&xs);
        assert!(hs[0].as_slice().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn reused_buffers_match_fresh_forward() {
        let layer = make(3, 4, 8);
        let mut hs = Vec::new();
        let mut cache = GruCache::default();
        for (t, b) in [(3usize, 2usize), (1, 1), (4, 3)] {
            let xs = seq(t, b, 3);
            layer.forward_into(&xs, &mut hs, &mut cache);
            let (fresh, _) = layer.forward(&xs);
            assert_eq!(hs.len(), fresh.len());
            for (a, b) in hs.iter().zip(&fresh) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn bptt_gradients_match_finite_differences() {
        let mut layer = make(3, 4, 5);
        let xs = seq(4, 2, 3);
        let loss = |l: &GruLayer| -> f64 {
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

        let grads: Vec<Matrix> = {
            let mut out = Vec::new();
            layer.for_each_param(&mut |_p, g| out.push(g.clone()));
            out
        };
        let eps = 1e-5;
        for (pi, analytic) in grads.iter().enumerate() {
            let len = analytic.as_slice().len();
            for k in [0usize, len / 2, len - 1] {
                let base = {
                    let mut params = Vec::new();
                    layer.for_each_param(&mut |p, _| params.push(p as *mut Matrix));
                    params[pi]
                };
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
    fn dx_matches_finite_differences() {
        let mut layer = make(2, 3, 7);
        let mut xs = seq(3, 1, 2);
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
    fn serde_round_trip() {
        let layer = make(3, 4, 9);
        let json = serde_json::to_string(&layer).unwrap();
        let back: GruLayer = serde_json::from_str(&json).unwrap();
        let xs = seq(2, 1, 3);
        assert_eq!(layer.forward(&xs).0.last(), back.forward(&xs).0.last());
    }
}
