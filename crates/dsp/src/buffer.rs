//! Reusable-buffer primitives for the zero-allocation hot paths.
//!
//! The DSP and AP pipelines run the same transform chain millions of
//! times per sweep, so the `_into` variants across the workspace write
//! into caller-owned buffers instead of allocating: a warmed-up hot loop
//! allocates nothing, which the counting allocator of
//! `tests/zero_alloc.rs` checks (DESIGN.md §12).

use crate::num::Cpx;

/// Overwrites `out` with a copy of `src`, reusing `out`'s capacity.
/// Allocation-free once `out` has grown to `src.len()`.
#[inline]
pub fn copy_into(src: &[Cpx], out: &mut Vec<Cpx>) {
    out.clear();
    out.extend_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::ZERO;

    #[test]
    fn copy_into_reuses_capacity() {
        let src = vec![ZERO; 64];
        let mut out = Vec::new();
        copy_into(&src, &mut out);
        assert_eq!(out, src);
        let cap = out.capacity();
        copy_into(&src, &mut out);
        assert_eq!(out.capacity(), cap, "warmed copy must not reallocate");
    }

    #[test]
    fn copy_into_shrinks_logical_length() {
        let mut out = vec![ZERO; 100];
        let src = vec![Cpx::new(1.0, 0.0); 3];
        copy_into(&src, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.capacity() >= 100);
    }
}
