//! Scatter values and pair contributions.
//!
//! The two irregular reductions in the paper are structurally identical:
//!
//! * electron densities — `rho[i] += f(r); rho[j] += f(r)` (its Fig. 1/7);
//! * forces — `force[i] += f⃗; force[j] -= f⃗` (its Fig. 2/8);
//!
//! i.e. a per-pair kernel produces one contribution for each endpoint, and
//! the strategy decides *how* those contributions reach the shared array.
//! [`ScatterValue`] abstracts over the accumulated type (`f64` for
//! densities, [`Vec3`] for forces) so every strategy is written once.

use md_geometry::Vec3;

/// A value that pair kernels accumulate into a shared per-atom array.
pub trait ScatterValue: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// The additive identity.
    fn zero() -> Self;

    /// In-place addition.
    fn add(&mut self, rhs: Self);
}

impl ScatterValue for f64 {
    #[inline]
    fn zero() -> f64 {
        0.0
    }

    #[inline]
    fn add(&mut self, rhs: f64) {
        *self += rhs;
    }
}

impl ScatterValue for Vec3 {
    #[inline]
    fn zero() -> Vec3 {
        Vec3::ZERO
    }

    #[inline]
    fn add(&mut self, rhs: Vec3) {
        *self += rhs;
    }
}

/// The two endpoint contributions a pair kernel produces for a stored pair
/// `(i, j)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTerm<V> {
    /// Added to `out[i]`.
    pub to_i: V,
    /// Added to `out[j]`.
    pub to_j: V,
}

impl<V: ScatterValue> PairTerm<V> {
    /// A symmetric contribution (densities of a single species:
    /// `f(r)` flows both ways).
    #[inline]
    pub fn symmetric(v: V) -> PairTerm<V> {
        PairTerm { to_i: v, to_j: v }
    }
}

impl PairTerm<Vec3> {
    /// A Newton's-third-law contribution: `+f⃗` to `i`, `−f⃗` to `j`.
    #[inline]
    pub fn newton(f: Vec3) -> PairTerm<Vec3> {
        PairTerm { to_i: f, to_j: -f }
    }
}

/// A pair kernel: given a stored pair `(i, j)`, produce the endpoint
/// contributions, or `None` when the pair is currently outside the true
/// cutoff (Verlet skin pairs).
///
/// **Contract for gather-based strategies** (`Redundant`): the kernel must
/// be *endpoint-symmetric*, i.e. `kernel(j, i).to_i == kernel(i, j).to_j`.
/// Both MD kernels satisfy this (densities symmetric, forces antisymmetric).
pub trait PairKernel<V: ScatterValue>: Fn(usize, usize) -> Option<PairTerm<V>> + Sync {}
impl<V: ScatterValue, K: Fn(usize, usize) -> Option<PairTerm<V>> + Sync> PairKernel<V> for K {}

/// Slot sentinel handed to slot-aware kernels by strategies whose sweep
/// carries no usable per-pair storage index (the CS, SAP and RC baselines,
/// which may visit a pair from both endpoints or without a stable half-list
/// position). On seeing `NO_SLOT` a kernel must fall back to
/// recomputing the pair instead of touching per-pair scratch.
pub const NO_SLOT: usize = usize::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_add() {
        let mut x = f64::zero();
        x.add(2.5);
        x.add(-1.0);
        assert_eq!(x, 1.5);
        let mut v = Vec3::zero();
        v.add(Vec3::new(1.0, 2.0, 3.0));
        v.add(Vec3::new(0.5, 0.0, -3.0));
        assert_eq!(v, Vec3::new(1.5, 2.0, 0.0));
    }

    #[test]
    fn pair_term_constructors() {
        let s = PairTerm::symmetric(2.0);
        assert_eq!(s.to_i, 2.0);
        assert_eq!(s.to_j, 2.0);
        let n = PairTerm::newton(Vec3::new(1.0, -2.0, 0.5));
        assert_eq!(n.to_i, Vec3::new(1.0, -2.0, 0.5));
        assert_eq!(n.to_j, Vec3::new(-1.0, 2.0, -0.5));
    }
}
