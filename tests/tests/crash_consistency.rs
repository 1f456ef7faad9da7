//! Crash-consistency acceptance tests for the durable KV path, a
//! [`DurableLayerSet`] behind one group-commit write-ahead log.
//!
//! The contract under test: recovery from *any* torn combination of
//! checkpoint and write-ahead log yields caches bit-identical to some
//! valid prefix of the original token stream — K and V never desync, no
//! cell runs ahead of another, no token is half-applied, and the result
//! is deterministic. The first two tests enumerate every crash point
//! (every WAL record boundary plus eight intra-record byte offsets per
//! record) of a 288-token single-head episode and of a 2 × 3 multi-layer
//! one; the third drives head-snapshot salvage across both snapshot
//! format versions at every framing boundary.

use turbo_attention::{multilayer_episode_pipelined_on, multilayer_episode_serialized};
use turbo_kvcache::{
    frame_boundaries, recover_head_cache, serialize_head_cache_v1, DurableLayerSet, HeadKvCache,
    KvCacheConfig, LayerWriteAheadLog, NeverCheckpoint,
};
use turbo_quant::BitWidth;
use turbo_robust::FaultInjector;
use turbo_runtime::Runtime;
use turbo_softmax::Sas;
use turbo_tensor::{Matrix, TensorRng};

fn cfg() -> KvCacheConfig {
    KvCacheConfig {
        bits: BitWidth::Int4,
        group_size: 8,
        buffer_capacity: 8,
    }
}

/// One op of the canonical episode, as it lands in the WAL.
#[derive(Clone, Copy)]
enum Op {
    Append(usize),
    Flush,
}

const FLUSH_EVERY: usize = 13;

/// Token `t`'s rows, one per cell: cell c (layer-major) reads columns
/// `[c*d, (c+1)*d)` of `m`, so every cell sees a distinct stream and any
/// cross-cell mixup breaks bit-identity.
fn cell_rows(m: &Matrix, t: usize, d: usize) -> Vec<&[f32]> {
    m.row(t).chunks_exact(d).collect()
}

/// Drives a `layers × heads` episode of `tokens` tokens (a checkpoint at
/// `checkpoint_at`, a flush-all every [`FLUSH_EVERY`] tokens), then cuts
/// the WAL at every record boundary and at eight intra-record offsets per
/// record. Every cut must recover all cells to the *same* token-count
/// prefix, each bit-identical to an uninterrupted cache over it.
fn crash_every_wal_point(
    layers: usize,
    heads: usize,
    d: usize,
    tokens: usize,
    checkpoint_at: usize,
    seed: u64,
) {
    let cells = layers * heads;
    let mut rng = TensorRng::new(seed);
    let kd = rng.normal(tokens, d * cells, 0.0, 1.0);
    let vd = rng.normal(tokens, d * cells, 0.0, 1.0);

    // Drive the episode, logging the ops the WAL holds past the
    // checkpoint.
    let mut set = DurableLayerSet::new(layers, heads, d, cfg(), Box::new(NeverCheckpoint));
    let mut post_ops: Vec<Op> = Vec::new();
    for t in 0..tokens {
        if t == checkpoint_at {
            set.checkpoint(None);
        }
        set.try_append_token(&cell_rows(&kd, t, d), &cell_rows(&vd, t, d), None)
            .unwrap();
        if t >= checkpoint_at {
            post_ops.push(Op::Append(t));
        }
        if (t + 1) % FLUSH_EVERY == 0 {
            let logged = set.layer(0).head(0).buffer_len() > 0;
            set.try_flush_all(None).unwrap();
            if t >= checkpoint_at && logged {
                post_ops.push(Op::Flush);
            }
        }
    }
    let (snap, wal) = set.durable_state();
    assert_eq!(
        set.wal().records(),
        post_ops.len(),
        "the op log must mirror the WAL exactly"
    );

    let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
    assert_eq!(boundaries.len(), post_ops.len() + 1);
    assert_eq!(*boundaries.last().unwrap(), wal.len());

    // Reference: one independent head cache per cell, advanced in
    // lockstep with the boundaries.
    let mut reference: Vec<HeadKvCache> = (0..cells).map(|_| HeadKvCache::new(d, cfg())).collect();
    let apply = |reference: &mut Vec<HeadKvCache>, op: Op| match op {
        Op::Append(t) => {
            let (ks, vs) = (cell_rows(&kd, t, d), cell_rows(&vd, t, d));
            for (c, r) in reference.iter_mut().enumerate() {
                r.try_append(ks[c], vs[c]).unwrap();
            }
        }
        Op::Flush => reference.iter_mut().for_each(|r| r.try_flush().unwrap()),
    };
    for t in 0..checkpoint_at {
        apply(&mut reference, Op::Append(t));
        if (t + 1) % FLUSH_EVERY == 0 {
            apply(&mut reference, Op::Flush);
        }
    }

    let check = |cut: usize, reference: &[HeadKvCache], expect_tokens: usize| {
        let (back, outcome) = DurableLayerSet::recover(
            layers,
            heads,
            d,
            cfg(),
            Box::new(NeverCheckpoint),
            &snap,
            &wal[..cut],
            None,
        )
        .expect("a clean checkpoint anchors recovery at any WAL cut");
        assert_eq!(outcome.tokens, expect_tokens, "cut {cut}");
        for l in 0..layers {
            for h in 0..heads {
                let head = back.layer(l).head(h);
                let (k, v) = head.dequantize_all();
                assert_eq!(
                    k.rows(),
                    v.rows(),
                    "cell ({l},{h}): K/V desynced at cut {cut}"
                );
                assert_eq!(
                    head.len(),
                    expect_tokens,
                    "cell ({l},{h}) desynced from the group prefix at cut {cut}"
                );
                assert_eq!(
                    head.to_bytes(),
                    reference[l * heads + h].to_bytes(),
                    "cell ({l},{h}) not bit-identical to the stream prefix at cut {cut}"
                );
            }
        }
    };

    // Cuts inside the WAL header drop the whole log; the checkpoint
    // alone survives.
    for cut in 0..boundaries[0] {
        check(cut, &reference, checkpoint_at);
    }

    let mut replayed = checkpoint_at;
    for (n, (op, &boundary)) in std::iter::once(None)
        .chain(post_ops.iter().copied().map(Some))
        .zip(boundaries.iter())
        .enumerate()
    {
        if let Some(op) = op {
            apply(&mut reference, op);
            if let Op::Append(_) = op {
                replayed += 1;
            }
        }
        // The clean frame boundary itself...
        check(boundary, &reference, replayed);
        // ...and eight torn cuts inside the *next* record, all of which
        // must fall back to exactly this boundary's state.
        if n + 1 < boundaries.len() {
            let next = boundaries[n + 1];
            for j in 1..=8usize {
                let cut = boundary + j * (next - boundary) / 9;
                if cut > boundary && cut < next {
                    check(cut, &reference, replayed);
                }
            }
        }
    }
    assert_eq!(replayed, tokens, "the full episode must replay at the end");
}

/// Crash-point exhaustiveness on a single head (1 × 1, d = 8) carrying
/// 256 of its 288 tokens through the WAL.
#[test]
fn every_wal_crash_point_recovers_a_bit_identical_prefix() {
    const TOKENS: usize = 288;
    const CHECKPOINT_AT: usize = 32;
    // The acceptance bar: at least 256 tokens flow through the WAL.
    const { assert!(TOKENS - CHECKPOINT_AT >= 256) };
    crash_every_wal_point(1, 1, 8, TOKENS, CHECKPOINT_AT, 0xC0A5);
}

/// Crash-point exhaustiveness on a multi-layer set (2 layers × 3 heads,
/// d = 4, distinct K/V per cell).
#[test]
fn every_layer_wal_crash_point_recovers_a_common_prefix() {
    crash_every_wal_point(2, 3, 4, 64, 24, 0x1A7E);
}

/// Truncating or corrupting a head snapshot at (and around) every
/// framing boundary, in both format versions, must never panic and must
/// always salvage a valid prefix.
#[test]
fn snapshot_framing_boundaries_recover_cleanly_across_versions() {
    let d = 6;
    let mut rng = TensorRng::new(0xF2A2);
    let data = rng.normal(44, d, 0.0, 1.0);
    let mut cache = HeadKvCache::new(d, cfg());
    for t in 0..44 {
        // 44 = 5 sealed blocks of 8 plus a 4-row partial buffer.
        cache.try_append(data.row(t), data.row(t)).unwrap();
    }

    let v2 = cache.to_bytes();
    let v1 = serialize_head_cache_v1(&cache);
    for (version, payload) in [("v2", &v2), ("v1", &v1)] {
        let boundaries = frame_boundaries(payload).expect("clean payload frames");
        assert_eq!(*boundaries.last().unwrap(), payload.len());
        for &b in &boundaries {
            // Truncate exactly on the boundary and one byte to each side.
            for cut in [b.saturating_sub(1), b, (b + 1).min(payload.len())] {
                let torn = &payload[..cut];
                if let Ok((salvaged, report)) = recover_head_cache(torn, None) {
                    assert_eq!(salvaged.len(), report.valid_tokens, "{version} cut {cut}");
                    let (k, v) = salvaged.dequantize_all();
                    assert_eq!(k.rows(), v.rows(), "{version} cut {cut}");
                    assert!(report.valid_tokens <= 44);
                }
            }
            // Corrupt one byte just past the boundary (inside the next
            // frame) and recover: never a panic, always a valid prefix.
            if b < payload.len() {
                let mut bad = payload.clone();
                bad[b] ^= 0x5A;
                if let Ok((salvaged, report)) = recover_head_cache(&bad, None) {
                    assert_eq!(salvaged.len(), report.valid_tokens, "{version} corrupt @{b}");
                    let (k, v) = salvaged.dequantize_all();
                    assert_eq!(k.rows(), v.rows());
                }
            }
        }
    }

    // Sanity: the undamaged payloads recover everything.
    let (full, report) = recover_head_cache(&v2, None).unwrap();
    assert!(report.complete);
    assert_eq!(full.len(), 44);
    let (full1, report1) = recover_head_cache(&v1, None).unwrap();
    assert!(report1.complete);
    assert_eq!(full1.len(), 44);
}

/// The fsync-style batched WAL flush: with `flush_every_n_tokens = n`, a
/// crash recovers exactly the last synced prefix — `⌊t/n⌋·n` tokens, so
/// at most `n − 1` are lost — and tearing the durable bytes at any
/// record boundary still lands every cell on one common, bit-identical
/// prefix of the stream.
#[test]
fn batched_wal_flush_bounds_loss_and_survives_tears() {
    const LAYERS: usize = 2;
    const HEADS: usize = 2;
    const CELLS: usize = LAYERS * HEADS;
    let d = 4;
    let interval = 4usize;
    let tokens = 27usize; // deliberately not a multiple of the interval
    let mut rng = TensorRng::new(0xBA7C);
    let kd = rng.normal(tokens, d * CELLS, 0.0, 1.0);
    let vd = rng.normal(tokens, d * CELLS, 0.0, 1.0);

    let mut set = DurableLayerSet::new(LAYERS, HEADS, d, cfg(), Box::new(NeverCheckpoint));
    set.set_flush_every_n_tokens(interval);
    for t in 0..tokens {
        set.try_append_token(&cell_rows(&kd, t, d), &cell_rows(&vd, t, d), None)
            .unwrap();
    }
    assert_eq!(set.tokens(), tokens, "in-memory set holds every token");

    let (snap, wal) = set.durable_state();
    let durable_tokens = (tokens / interval) * interval;

    // The staleness bound, untorn: the durable WAL ends at the last sync.
    let (_, outcome) = DurableLayerSet::recover(
        LAYERS,
        HEADS,
        d,
        cfg(),
        Box::new(NeverCheckpoint),
        &snap,
        &wal,
        None,
    )
    .unwrap();
    assert_eq!(outcome.tokens, durable_tokens);
    assert!(
        tokens - outcome.tokens < interval,
        "batched flush lost more than n − 1 tokens"
    );

    // Tears at record boundaries: boundary i holds exactly i appends (no
    // flush records in this episode), and every recovered cell must be
    // bit-identical to that prefix streamed into an independent cache.
    let mut reference: Vec<HeadKvCache> = (0..CELLS).map(|_| HeadKvCache::new(d, cfg())).collect();
    let mut applied = 0usize;
    for (i, &cut) in LayerWriteAheadLog::record_boundaries(&wal).iter().enumerate() {
        while applied < i {
            let (ks, vs) = (cell_rows(&kd, applied, d), cell_rows(&vd, applied, d));
            for (c, r) in reference.iter_mut().enumerate() {
                r.try_append(ks[c], vs[c]).unwrap();
            }
            applied += 1;
        }
        let (back, outcome) = DurableLayerSet::recover(
            LAYERS,
            HEADS,
            d,
            cfg(),
            Box::new(NeverCheckpoint),
            &snap,
            &wal[..cut],
            None,
        )
        .unwrap();
        assert_eq!(outcome.tokens, i, "boundary {i}");
        for l in 0..LAYERS {
            for h in 0..HEADS {
                let head = back.layer(l).head(h);
                let oracle = &reference[l * HEADS + h];
                assert_eq!(head.len(), oracle.len(), "cell ({l},{h}) at cut {cut}");
                assert_eq!(head.key_buffer(), oracle.key_buffer());
                assert_eq!(head.value_buffer(), oracle.value_buffer());
                assert_eq!(head.dequantize_all(), oracle.dequantize_all());
            }
        }
    }
}

/// Seeded chaos over the layer WAL's durable state: arbitrary
/// truncations and byte corruptions of checkpoint and log must never
/// panic, and whatever `recover_or_empty` salvages must keep every cell
/// at one common token count.
#[test]
fn layer_wal_chaos_smoke() {
    const LAYERS: usize = 2;
    const HEADS: usize = 3;
    const CELLS: usize = LAYERS * HEADS;
    let d = 4;
    let mut rng = TensorRng::new(0x50AC);
    let data = rng.normal(40, d * CELLS, 0.0, 1.0);
    let mut set = DurableLayerSet::new(LAYERS, HEADS, d, cfg(), Box::new(NeverCheckpoint));
    for t in 0..40 {
        if t == 16 {
            set.checkpoint(None);
        }
        let rows = cell_rows(&data, t, d);
        set.try_append_token(&rows, &rows, None).unwrap();
    }
    let (snap, wal) = set.durable_state();

    let mut inj = FaultInjector::new(0xC4A05);
    for round in 0..128 {
        let mut s = snap.clone();
        let mut w = wal.clone();
        match round % 4 {
            0 => {
                inj.truncate_bytes(&mut w);
            }
            1 => {
                inj.corrupt_bytes(&mut w, 1 + round % 3);
            }
            2 => {
                inj.truncate_bytes(&mut s);
            }
            _ => {
                inj.corrupt_bytes(&mut s, 1 + round % 3);
                inj.truncate_bytes(&mut w);
            }
        }
        let (back, outcome) = DurableLayerSet::recover_or_empty(
            LAYERS,
            HEADS,
            d,
            cfg(),
            Box::new(NeverCheckpoint),
            &s,
            &w,
            None,
        );
        assert!(outcome.tokens <= 40, "round {round}");
        for l in 0..LAYERS {
            for h in 0..HEADS {
                let head = back.layer(l).head(h);
                assert_eq!(
                    head.len(),
                    outcome.tokens,
                    "round {round}: cell ({l},{h}) desynced"
                );
                let (k, v) = head.dequantize_all();
                assert_eq!(k.rows(), v.rows(), "round {round}");
            }
        }
    }
}

/// Killing the pipelined multi-layer engine mid-episode loses nothing
/// the serialized engine would have kept: both engines emit
/// byte-identical durable state, and at *every* WAL cut — each record
/// boundary plus eight torn offsets inside the following record —
/// recovery from the pipelined WAL lands on exactly the same token
/// prefix, with every cell bit-identical to recovery from the serialized
/// WAL at the same cut. The pipeline's commit chain joins at the token
/// boundary, so a kill can never expose a half-token.
#[test]
fn pipelined_crash_cut_replays_same_wal_prefix_as_serialized() {
    const ML_LAYERS: usize = 3;
    const ML_HEADS: usize = 2;
    const PROMPT: usize = 14;
    const DECODE: usize = 6;
    let d = 4;
    let mut rng = TensorRng::new(0xD1A6);
    let prompt = rng.normal(PROMPT, ML_HEADS * d, 0.0, 1.0);
    let decode_in = rng.normal(DECODE, ML_HEADS * d, 0.0, 1.0);
    let sas = Sas::paper_default();
    let fresh = || {
        let mut set =
            DurableLayerSet::new(ML_LAYERS, ML_HEADS, d, cfg(), Box::new(NeverCheckpoint));
        set.set_flush_every_n_tokens(1);
        set
    };

    let mut ser = fresh();
    multilayer_episode_serialized(&mut ser, &prompt, &decode_in, &sas, 4, None);
    let rt = Runtime::with_workers(8);
    let mut pip = fresh();
    multilayer_episode_pipelined_on(&rt, &mut pip, &prompt, &decode_in, &sas, 4, None);

    let (snap_s, wal_s) = ser.durable_state();
    let (snap_p, wal_p) = pip.durable_state();
    assert_eq!(snap_s, snap_p, "engines must checkpoint identically");
    assert_eq!(wal_s, wal_p, "engines must emit byte-identical WALs");

    let boundaries = LayerWriteAheadLog::record_boundaries(&wal_p);
    let recover = |snap: &[u8], wal: &[u8]| {
        DurableLayerSet::recover(
            ML_LAYERS,
            ML_HEADS,
            d,
            cfg(),
            Box::new(NeverCheckpoint),
            snap,
            wal,
            None,
        )
        .expect("a clean checkpoint anchors recovery at any WAL cut")
    };

    let mut prev_tokens = 0usize;
    for (n, &boundary) in boundaries.iter().enumerate() {
        let mut cuts = vec![boundary];
        if n + 1 < boundaries.len() {
            let next = boundaries[n + 1];
            for j in 1..=8usize {
                let cut = boundary + j * (next - boundary) / 9;
                if cut > boundary && cut < next {
                    cuts.push(cut);
                }
            }
        }
        for cut in cuts {
            let (back_p, out_p) = recover(&snap_p, &wal_p[..cut]);
            let (back_s, out_s) = recover(&snap_s, &wal_s[..cut]);
            assert_eq!(
                out_p.tokens, out_s.tokens,
                "pipelined kill at cut {cut} replays a different prefix"
            );
            for l in 0..ML_LAYERS {
                for h in 0..ML_HEADS {
                    assert_eq!(
                        back_p.layer(l).head(h).to_bytes(),
                        back_s.layer(l).head(h).to_bytes(),
                        "cell ({l},{h}) diverged at cut {cut}"
                    );
                }
            }
            // A torn cut falls back to the boundary before it: token
            // counts never run ahead of the clean-boundary prefix.
            assert_eq!(out_p.tokens, prev_tokens, "cut {cut}");
        }
        // Advance the expected prefix for the *next* boundary: each
        // group-commit record carries exactly one token.
        if n + 1 < boundaries.len() {
            let (_, out_next) = recover(&snap_p, &wal_p[..boundaries[n + 1]]);
            assert!(
                out_next.tokens == prev_tokens || out_next.tokens == prev_tokens + 1,
                "a single WAL record must carry at most one token"
            );
            prev_tokens = out_next.tokens;
        }
    }
    assert_eq!(
        prev_tokens,
        PROMPT + DECODE,
        "the full episode must replay from the undamaged WAL"
    );
}

/// The recovered prefix is usable, not just structurally coherent: a
/// rebuilt single-head set accepts further appends and dequantizes to
/// the same values as an uninterrupted cache over the same stream.
#[test]
fn recovered_prefix_resumes_the_stream_seamlessly() {
    let d = 4;
    let mut rng = TensorRng::new(0xBEEF);
    let data: Matrix = rng.normal(64, d, 0.0, 1.0);
    let mut durable = DurableLayerSet::new(1, 1, d, cfg(), Box::new(NeverCheckpoint));
    for t in 0..40 {
        if t == 24 {
            durable.checkpoint(None);
        }
        durable
            .try_append_token(&[data.row(t)], &[data.row(t)], None)
            .unwrap();
    }
    let (snap, wal) = durable.durable_state();
    // Tear mid-record, recover, and finish the stream on the survivor.
    let boundaries = LayerWriteAheadLog::record_boundaries(&wal);
    let cut = (boundaries[7] + boundaries[8]) / 2;
    let (mut back, outcome) = DurableLayerSet::recover(
        1,
        1,
        d,
        cfg(),
        Box::new(NeverCheckpoint),
        &snap,
        &wal[..cut],
        None,
    )
    .unwrap();
    let resumed_from = outcome.tokens;
    assert_eq!(resumed_from, 24 + 7, "seven WAL records survive the tear");
    for t in resumed_from..64 {
        back.try_append_token(&[data.row(t)], &[data.row(t)], None)
            .unwrap();
    }
    let mut uninterrupted = HeadKvCache::new(d, cfg());
    for t in 0..64 {
        uninterrupted.try_append(data.row(t), data.row(t)).unwrap();
    }
    assert_eq!(back.tokens(), 64);
    assert_eq!(
        back.layer(0).head(0).dequantize_all(),
        uninterrupted.dequantize_all(),
        "the resumed stream must be value-identical to an uninterrupted one"
    );
}
