//! Network layers: LSTM, GRU and dense.

pub mod dense;
pub mod gru;
pub mod lstm;

pub use dense::{DenseActivation, DenseCache, DenseLayer};
pub use gru::{GruCache, GruLayer};
pub use lstm::{LstmCache, LstmLayer};

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Resizes a per-step matrix buffer to exactly `n` entries, keeping the
/// allocations of the entries that survive (each step then reshapes its
/// matrix in place via `resize_uninit`).
pub(crate) fn ensure_seq(v: &mut Vec<Matrix>, n: usize) {
    v.resize_with(n, Matrix::default);
}

/// Which recurrent cell a stacked layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellKind {
    /// Long Short-Term Memory.
    Lstm,
    /// Gated Recurrent Unit.
    Gru,
}

/// A recurrent layer of either cell kind, presenting one interface to the
/// stacked model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Recurrent {
    /// LSTM variant.
    Lstm(LstmLayer),
    /// GRU variant.
    Gru(GruLayer),
}

/// Forward cache of a [`Recurrent`] layer.
#[derive(Debug, Clone)]
pub enum RecurrentCache {
    /// LSTM cache.
    Lstm(LstmCache),
    /// GRU cache.
    Gru(GruCache),
}

impl Recurrent {
    /// Builds a recurrent layer of the requested kind.
    pub fn new(kind: CellKind, input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        match kind {
            CellKind::Lstm => Recurrent::Lstm(LstmLayer::new(input, hidden, rng)),
            CellKind::Gru => Recurrent::Gru(GruLayer::new(input, hidden, rng)),
        }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        match self {
            Recurrent::Lstm(l) => l.hidden_size(),
            Recurrent::Gru(l) => l.hidden_size(),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        match self {
            Recurrent::Lstm(l) => l.input_size(),
            Recurrent::Gru(l) => l.input_size(),
        }
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        match self {
            Recurrent::Lstm(l) => l.param_count(),
            Recurrent::Gru(l) => l.param_count(),
        }
    }

    /// Sequence forward pass.  Allocating wrapper over
    /// [`forward_into`](Self::forward_into).
    pub fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, RecurrentCache) {
        match self {
            Recurrent::Lstm(l) => {
                let (hs, c) = l.forward(xs);
                (hs, RecurrentCache::Lstm(c))
            }
            Recurrent::Gru(l) => {
                let (hs, c) = l.forward(xs);
                (hs, RecurrentCache::Gru(c))
            }
        }
    }

    /// Sequence forward pass into caller-owned, reusable buffers.  `cache`
    /// is re-seeded to the matching variant if its kind differs.
    pub fn forward_into(&self, xs: &[Matrix], hs: &mut Vec<Matrix>, cache: &mut RecurrentCache) {
        match self {
            Recurrent::Lstm(l) => {
                if !matches!(cache, RecurrentCache::Lstm(_)) {
                    *cache = RecurrentCache::Lstm(LstmCache::default());
                }
                let RecurrentCache::Lstm(c) = cache else {
                    unreachable!()
                };
                l.forward_into(xs, hs, c);
            }
            Recurrent::Gru(l) => {
                if !matches!(cache, RecurrentCache::Gru(_)) {
                    *cache = RecurrentCache::Gru(GruCache::default());
                }
                let RecurrentCache::Gru(c) = cache else {
                    unreachable!()
                };
                l.forward_into(xs, hs, c);
            }
        }
    }

    /// BPTT backward pass.  `xs`/`hs` are the forward inputs and outputs
    /// (caches no longer duplicate them).
    pub fn backward(
        &mut self,
        xs: &[Matrix],
        hs: &[Matrix],
        cache: &RecurrentCache,
        dhs: &[Matrix],
    ) -> Vec<Matrix> {
        let mut dxs = Vec::new();
        self.backward_into(xs, hs, cache, dhs, Some(&mut dxs));
        dxs
    }

    /// BPTT backward pass; `∂L/∂x_t` goes into the caller-owned `dxs`
    /// buffer, or is not computed when the caller passes `None`.
    pub fn backward_into(
        &mut self,
        xs: &[Matrix],
        hs: &[Matrix],
        cache: &RecurrentCache,
        dhs: &[Matrix],
        dxs: Option<&mut Vec<Matrix>>,
    ) {
        match (self, cache) {
            (Recurrent::Lstm(l), RecurrentCache::Lstm(c)) => l.backward_into(xs, hs, c, dhs, dxs),
            (Recurrent::Gru(l), RecurrentCache::Gru(c)) => l.backward_into(xs, hs, c, dhs, dxs),
            _ => panic!("cache kind does not match layer kind"),
        }
    }

    /// Visits `(param, grad)` pairs.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        match self {
            Recurrent::Lstm(l) => l.for_each_param(f),
            Recurrent::Gru(l) => l.for_each_param(f),
        }
    }

    /// Zeroes gradients.
    pub fn zero_grads(&mut self) {
        match self {
            Recurrent::Lstm(l) => l.zero_grads(),
            Recurrent::Gru(l) => l.zero_grads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn wrapper_dispatches_both_kinds() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [CellKind::Lstm, CellKind::Gru] {
            let mut layer = Recurrent::new(kind, 3, 4, &mut rng);
            assert_eq!(layer.input_size(), 3);
            assert_eq!(layer.hidden_size(), 4);
            assert!(layer.param_count() > 0);
            let xs = vec![Matrix::zeros(2, 3), Matrix::zeros(2, 3)];
            let (hs, cache) = layer.forward(&xs);
            assert_eq!(hs.len(), 2);
            layer.zero_grads();
            let dhs = vec![Matrix::zeros(2, 4), Matrix::zeros(2, 4)];
            let dxs = layer.backward(&xs, &hs, &cache, &dhs);
            assert_eq!(dxs[0].shape(), (2, 3));
        }
    }

    #[test]
    fn forward_into_reseeds_mismatched_cache_kind() {
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Recurrent::new(CellKind::Lstm, 2, 3, &mut rng);
        let gru = Recurrent::new(CellKind::Gru, 2, 3, &mut rng);
        let xs = vec![Matrix::zeros(1, 2)];
        let mut hs = Vec::new();
        let mut cache = RecurrentCache::Gru(GruCache::default());
        lstm.forward_into(&xs, &mut hs, &mut cache);
        assert!(matches!(cache, RecurrentCache::Lstm(_)));
        gru.forward_into(&xs, &mut hs, &mut cache);
        assert!(matches!(cache, RecurrentCache::Gru(_)));
    }

    #[test]
    #[should_panic(expected = "cache kind does not match")]
    fn mismatched_cache_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lstm = Recurrent::new(CellKind::Lstm, 2, 2, &mut rng);
        let gru = Recurrent::new(CellKind::Gru, 2, 2, &mut rng);
        let xs = vec![Matrix::zeros(1, 2)];
        let (hs, gru_cache) = gru.forward(&xs);
        let dhs = vec![Matrix::zeros(1, 2)];
        lstm.backward(&xs, &hs, &gru_cache, &dhs);
    }
}
