//! Reusable scratch buffers for the zero-realloc decode hot path.
//!
//! Every fused decode step needs a handful of short-lived buffers: the
//! quantized query, one score row, one probability row, its INT8
//! re-quantization, the integer `P·V` accumulator, a transposed copy of
//! the open buffer's value codes, and the unnormalized output row. The
//! original kernels allocated each of these per call (and some per
//! *tile*); a [`Scratch`] owns them all so a steady-state decode loop
//! performs **zero** heap allocations — buffers are `clear()`ed and
//! refilled, which keeps their capacity.
//!
//! Lifetime rules: a `Scratch` is a plain bag of `Vec`s with no
//! invariants between calls — it can be shared across caches, heads, and
//! SAS configurations, grown on demand, dropped at any time. Nothing in
//! it affects numerics; kernels write every element they read.

use turbo_kvcache::HeadKvCache;

/// Reusable buffer arena for
/// [`turbo_attend_cache_into`](crate::decode::turbo_attend_cache_into)
/// and friends.
///
/// Construct once (optionally pre-sized with [`Scratch::for_cache`]) and
/// pass to every decode step; after the first call at a given cache
/// shape, subsequent calls allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Quantized query row (`d` codes).
    pub(crate) q8: Vec<i8>,
    /// Raw integer score row for the current tile (`bc` i32 sums) — the
    /// fused kernels keep QK^T scores in integer form until the SAS
    /// exponential consumes them.
    pub(crate) si: Vec<i32>,
    /// SAS probability row (`bc` floats).
    pub(crate) p: Vec<f32>,
    /// INT8 re-quantized probability row (`bc` codes).
    pub(crate) p8: Vec<i8>,
    /// Integer `P·V` accumulator (`d` lanes).
    pub(crate) pv: Vec<i32>,
    /// Channel-major transpose of the open buffer's value codes
    /// (`d × buffer_len`; resident blocks carry theirs pre-transposed in
    /// the tile cache).
    pub(crate) vt: Vec<i8>,
    /// Unnormalized output accumulator (`d` floats).
    pub(crate) o: Vec<f32>,
}

impl Scratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-sized for decoding against `cache`, so even the very
    /// first step allocates nothing: `d` comes from the head dimension
    /// and the widest tile is the larger of the biggest resident block
    /// and the buffer capacity.
    pub fn for_cache(cache: &HeadKvCache) -> Self {
        let d = cache.head_dim();
        // Cap the buffer-capacity contribution: configs that use a huge
        // capacity as a "never flush" sentinel would otherwise request an
        // absurd reservation. Such buffers grow on demand instead.
        const MAX_PRESIZE_ROWS: usize = 4096;
        let max_bc = cache
            .resident_blocks()
            .iter()
            .map(|b| b.rows())
            .max()
            .unwrap_or(0)
            .max(cache.config().buffer_capacity.min(MAX_PRESIZE_ROWS))
            .max(cache.buffer_len());
        let mut s = Self::new();
        s.reserve(d, max_bc);
        s
    }

    /// Ensures capacity for head dimension `d` and tile height `max_bc`.
    pub fn reserve(&mut self, d: usize, max_bc: usize) {
        ensure_cap(&mut self.q8, d);
        ensure_cap(&mut self.si, max_bc);
        ensure_cap(&mut self.p, max_bc);
        ensure_cap(&mut self.p8, max_bc);
        ensure_cap(&mut self.pv, d);
        ensure_cap(&mut self.vt, d * max_bc);
        ensure_cap(&mut self.o, d);
    }
}

fn ensure_cap<T>(v: &mut Vec<T>, want: usize) {
    if v.capacity() < want {
        v.reserve(want - v.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_kvcache::KvCacheConfig;
    use turbo_quant::BitWidth;

    #[test]
    fn for_cache_presizes_every_buffer() {
        let mut cache = HeadKvCache::new(
            8,
            KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 32,
                buffer_capacity: 16,
            },
        );
        for t in 0..20 {
            let row = [t as f32 * 0.1; 8];
            cache.append(&row, &row);
        }
        let s = Scratch::for_cache(&cache);
        assert!(s.q8.capacity() >= 8);
        assert!(s.si.capacity() >= 16);
        assert!(s.p.capacity() >= 16);
        assert!(s.p8.capacity() >= 16);
        assert!(s.pv.capacity() >= 8);
        assert!(s.vt.capacity() >= 8 * 16);
        assert!(s.o.capacity() >= 8);
    }
}
