//! The shared mutable output array for color-parallel scatters.
//!
//! The SDC strategy hands every same-color subdomain task a view of *the
//! same* output array; Rust's `&mut` aliasing rules cannot express "these
//! tasks write to statically unknown but provably disjoint index sets", so
//! the view is a raw-pointer wrapper with an explicit safety contract.
//!
//! The disjointness proof is geometric (paper §II.B): a task processing
//! subdomain `S` writes only to atoms of `S` and their neighbors, all within
//! `S` expanded by the interaction range; same-color subdomains are
//! separated by at least one subdomain of edge ≥ 2·range, so their expanded
//! footprints cannot meet. [`crate::plan::SdcPlan::validate_footprints`] checks both
//! the geometric property and, in tests, the *actual* footprints from the
//! neighbor list.

use std::marker::PhantomData;

/// An unsynchronized shared view of a `&mut [T]` for provably-disjoint
/// concurrent writes.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper itself only carries a pointer and length; all access
// is through `unsafe` methods whose contracts push the disjointness
// obligation to the caller.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps an exclusive slice.
    pub fn new(slice: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a mutable reference to element `i`.
    ///
    /// # Safety
    /// For the lifetime of the returned reference no other thread may access
    /// element `i` (reads included). The SDC engine guarantees this by the
    /// color-footprint disjointness invariant.
    ///
    /// # Panics
    /// Panics on out-of-bounds `i` (always checked: the branch is trivially
    /// predicted and the force kernels are memory-bound anyway).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        assert!(i < self.len, "SharedSlice index {i} out of bounds ({})", self.len);
        // SAFETY: bounds checked above; aliasing discipline is the caller's
        // contract.
        unsafe { &mut *self.ptr.add(i) }
    }

    /// Raw base pointer (for callers that carve provably disjoint
    /// sub-slices, such as the batched embedding pass).
    #[inline]
    pub fn as_ptr(&self) -> *mut T {
        self.ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_writes_land() {
        let mut data = vec![0u64; 64];
        let shared = SharedSlice::new(&mut data);
        std::thread::scope(|s| {
            let sh = &shared;
            for t in 0..4 {
                s.spawn(move || {
                    // Thread t owns indices with i % 4 == t — disjoint.
                    for i in (t..64).step_by(4) {
                        // SAFETY: index sets are disjoint across threads.
                        unsafe { *sh.get_mut(i) = i as u64 + 1 };
                    }
                });
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }

    #[test]
    fn len_reports_slice_length() {
        let mut data = [0.0f64; 5];
        let s = SharedSlice::new(&mut data);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut data = [0i32; 3];
        let s = SharedSlice::new(&mut data);
        // SAFETY: single-threaded; the call panics before any aliasing.
        let _ = unsafe { s.get_mut(3) };
    }
}
