//! Decoding untrusted bytes never asks the allocator for more than the
//! bytes could justify.
//!
//! A snapshot header names the head dimension and the buffer capacity,
//! and an empty cache proves neither: reserving from them eagerly turned
//! one flipped high byte of `d` into a multi-gigabyte request that
//! aborted the process. This binary records the largest single
//! allocation request while every durable decoder (head snapshots, the
//! layer checkpoint and the layer WAL) reads damaged bytes, and asserts
//! a fixed cap. It is its own binary so no other test's allocations
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use turbo_kvcache::persist::{deserialize_head_cache, serialize_head_cache};
use turbo_kvcache::{
    recover_head_cache, DurableLayerSet, HeadKvCache, KvCacheConfig, NeverCheckpoint,
};
use turbo_quant::BitWidth;
use turbo_robust::FaultInjector;
use turbo_tensor::TensorRng;

/// Records the largest single allocation request routed through the
/// global allocator.
struct MaxRequestAlloc;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for MaxRequestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: MaxRequestAlloc = MaxRequestAlloc;

/// Every input below is a few hundred bytes to a few KiB; a decoder that
/// sizes its allocations by the bytes present stays far under this.
const MAX_SINGLE_ALLOCATION: usize = 1 << 20;

fn cfg() -> KvCacheConfig {
    KvCacheConfig {
        bits: BitWidth::Int4,
        group_size: 8,
        buffer_capacity: 8,
    }
}

/// One seeded mutation: byte corruption, truncation, or both.
fn mutate(inj: &mut FaultInjector, bytes: &mut Vec<u8>, round: usize) {
    match round % 4 {
        0 | 1 => {
            let n = 1 + inj.pick(8);
            inj.corrupt_bytes(bytes, n);
        }
        2 => {
            inj.truncate_bytes(bytes);
        }
        _ => {
            inj.truncate_bytes(bytes);
            if !bytes.is_empty() {
                let n = 1 + inj.pick(4);
                inj.corrupt_bytes(bytes, n);
            }
        }
    }
}

#[test]
fn untrusted_durable_bytes_never_request_a_huge_allocation() {
    const D: usize = 6;
    let data = TensorRng::new(0xA110C).normal(37, D, 0.0, 1.0);
    let mut cache = HeadKvCache::new(D, cfg());
    for t in 0..37 {
        cache.append(data.row(t), data.row(t));
    }
    let snapshot = serialize_head_cache(&cache);
    let empty_snapshot = serialize_head_cache(&HeadKvCache::new(D, cfg()));

    let (layers, heads) = (2usize, 3usize);
    let mut set = DurableLayerSet::new(layers, heads, D, cfg(), Box::new(NeverCheckpoint));
    for t in 0..37 {
        if t == 16 {
            set.checkpoint(None);
        }
        let rows = vec![data.row(t); layers * heads];
        set.try_append_token(&rows, &rows, None).unwrap();
    }
    let (checkpoint, wal) = set.durable_state();

    LARGEST_REQUEST.store(0, Ordering::SeqCst);

    // Directed: the head dimension (bytes 6..10) and the buffer capacity
    // (bytes 15..19) of a snapshot header set to their maximum.
    for payload in [&snapshot, &empty_snapshot] {
        for field in [6..10, 15..19] {
            let mut bad = payload.clone();
            bad[field].fill(0xFF);
            if let Ok((mut salvaged, report)) = recover_head_cache(&bad, None) {
                assert_eq!(salvaged.len(), report.valid_tokens);
                // A row of the real width cannot satisfy a forged `d`,
                // and with the real `d` the capacity reserve is bounded.
                let _ = salvaged.try_append(data.row(0), data.row(0));
            }
            let _ = deserialize_head_cache(&bad);
        }
    }

    // Seeded: the same 512-round mutation mix the persist fuzz runs, over
    // a head snapshot, a layer checkpoint blob and a layer WAL.
    let mut inj = FaultInjector::new(0xA110D);
    for round in 0..512 {
        let mut payload = snapshot.clone();
        mutate(&mut inj, &mut payload, round);
        let _ = deserialize_head_cache(&payload);
        if let Ok((salvaged, report)) = recover_head_cache(&payload, None) {
            assert_eq!(salvaged.len(), report.valid_tokens);
        }

        let (mut c, mut w) = (checkpoint.clone(), wal.clone());
        if round % 2 == 0 {
            mutate(&mut inj, &mut c, round / 2);
        } else {
            mutate(&mut inj, &mut w, round / 2);
        }
        let (back, outcome) = DurableLayerSet::recover_or_empty(
            layers,
            heads,
            D,
            cfg(),
            Box::new(NeverCheckpoint),
            &c,
            &w,
            None,
        );
        assert_eq!(back.tokens(), outcome.tokens, "round {round}");
    }

    let largest = LARGEST_REQUEST.load(Ordering::SeqCst);
    assert!(
        largest <= MAX_SINGLE_ALLOCATION,
        "a decoder of untrusted bytes requested {largest} bytes in one allocation"
    );
}
