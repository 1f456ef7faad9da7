//! Proof that the decode hot path is allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; the tests
//! warm a cache + scratch arena, then pin the exact number of heap
//! allocations performed by a run of decode steps to **zero**. The
//! assertions are active in debug builds (the default `cargo test`
//! profile); release builds still execute the loops as a smoke test.
//!
//! The counter is process-global on purpose, so allocations made on
//! pool threads count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use turbo_attention::{turbo_attend_cache_into, turbo_decode_head_into, Scratch};
use turbo_kvcache::persist::{deserialize_head_cache, serialize_head_cache};
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_quant::BitWidth;
use turbo_softmax::Sas;
use turbo_tensor::TensorRng;

/// Counts every allocation routed through the global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The scenarios share a process-global counter, so they run one after
/// the other inside this binary's only test: the harness has no sibling
/// test to start or finish during a counted window, and allocations made
/// on pool threads still count.
#[test]
fn decode_hot_path_is_allocation_free() {
    assert_no_allocations("warm attend loop", warm_attend_window());
    assert_no_allocations("steady-state decode", decode_window(false));
    assert_no_allocations("decode over a recovered cache", decode_window(true));
}

fn assert_no_allocations(what: &str, allocated: u64) {
    #[cfg(debug_assertions)]
    assert_eq!(
        allocated, 0,
        "{what} must not allocate ({allocated} allocations over 32 steps)"
    );
    #[cfg(not(debug_assertions))]
    let _ = (what, allocated);
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Waits until no thread has allocated for 10 ms. Called before each
/// counted window, so the harness main thread's bookkeeping right after
/// it spawns the test (a few allocations, which can land in the first
/// window on a loaded host) is over before the window opens. Anything the
/// measured code allocates, on any thread, still falls inside the window.
fn quiesce() {
    let mut last = allocations();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = allocations();
        if now == last {
            return;
        }
        last = now;
    }
}

fn populated_cache(seed: u64, n: usize, d: usize, buffer_capacity: usize) -> HeadKvCache {
    let mut rng = TensorRng::new(seed);
    let k = rng.normal(n, d, 0.0, 1.0);
    let v = rng.normal(n, d, 0.0, 1.0);
    let mut cache = HeadKvCache::new(
        d,
        KvCacheConfig {
            bits: BitWidth::Int4,
            group_size: 32,
            buffer_capacity,
        },
    );
    for t in 0..n {
        cache.append(k.row(t), v.row(t));
    }
    cache
}

/// Attend-only loop (read path of Algorithm 2): after one warmup call
/// fills the tile cache and sizes the arena, further queries over an
/// unchanged cache must not touch the allocator at all.
fn warm_attend_window() -> u64 {
    let d = 32;
    let cache = populated_cache(11, 200, d, 64);
    let sas = Sas::paper_default();
    let mut rng = TensorRng::new(12);
    let queries: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..d).map(|_| rng.standard_normal()).collect())
        .collect();

    let mut scratch = Scratch::for_cache(&cache);
    let mut out = Vec::with_capacity(d);
    // Warmup: builds the resident dequant tiles and grows every buffer
    // to its working size.
    turbo_attend_cache_into(&queries[0], &cache, &sas, &mut scratch, &mut out);

    quiesce();
    let before = allocations();
    for q in &queries {
        turbo_attend_cache_into(q, &cache, &sas, &mut scratch, &mut out);
    }
    let allocated = allocations() - before;
    assert_eq!(out.len(), d);
    allocated
}

/// Full decode steps (append + attend): between buffer flush boundaries,
/// with reserved buffers and a warm tile cache, a steady-state decode
/// step performs zero heap allocations. With `recovered`, the cache is
/// rebuilt from a snapshot whose open buffer is partly filled; its first
/// append (the warmup step) reserves the buffers, as `new` does for a
/// live cache.
fn decode_window(recovered: bool) -> u64 {
    let d = 32;
    let buffer_capacity = 64;
    // 200 tokens: 3×64 resident blocks + 8 buffered rows, leaving 56
    // appends of headroom before the next flush boundary.
    let mut cache = populated_cache(21, 200, d, buffer_capacity);
    if recovered {
        cache = deserialize_head_cache(&serialize_head_cache(&cache)).expect("clean snapshot");
    }
    let sas = Sas::paper_default();
    let mut rng = TensorRng::new(22);
    let steps: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = (0..33)
        .map(|_| {
            let row = |rng: &mut TensorRng| (0..d).map(|_| rng.standard_normal()).collect();
            (row(&mut rng), row(&mut rng), row(&mut rng))
        })
        .collect();

    let mut scratch = Scratch::for_cache(&cache);
    let mut out = Vec::with_capacity(d);
    // Warmup decode step: fills the tile cache.
    let (q, k, v) = &steps[0];
    turbo_decode_head_into(q, k, v, &mut cache, &sas, &mut scratch, &mut out);

    quiesce();
    let before = allocations();
    for (q, k, v) in &steps[1..] {
        turbo_decode_head_into(q, k, v, &mut cache, &sas, &mut scratch, &mut out);
    }
    let allocated = allocations() - before;
    assert_eq!(out.len(), d);
    assert_eq!(cache.len(), 233);
    assert!(
        cache.buffer_len() < buffer_capacity,
        "test must stay between flush boundaries"
    );
    allocated
}
