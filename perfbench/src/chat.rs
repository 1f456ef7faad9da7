//! `durable_chat`: a durable multi-layer episode, then a crash.
//!
//! One closed-loop client. Each request creates a fresh 8-layer ×
//! 4-head × d = 64 `DurableLayerSet` (INT4, n_b = 64, `NeverCheckpoint`,
//! WAL sync every token), runs a 128-token prompt through the episode
//! (TTFT), checkpoints, decodes 128 tokens in a second call, cuts the
//! durable WAL at a seeded offset inside the decode records and recovers.
//! Timed requests run the serialized episode on the calling thread; the
//! pipelined episode on a pool must match it bit for bit. The traced run
//! replays each request serially through the public calls the engine
//! makes, in the serialized engine's task order, and checks that the
//! replay's outputs and WAL bytes are bit-identical to the pipelined
//! engine's.

use crate::counters::{pool_workers, set_cache_stats, PoolMeter};
use crate::trace::{ms, percentile, Tracer};
use crate::{kernels, Report, RunConfig, Workload};
use std::time::{Duration, Instant};
use turbo_attention::{
    multilayer_episode_pipelined_on, multilayer_episode_serialized, turbo_attend_cache,
};
use turbo_kvcache::{
    DurableLayerSet, KvCacheConfig, LayerKvCache, LayerWriteAheadLog, NeverCheckpoint,
};
use turbo_quant::BitWidth;
use turbo_runtime::Runtime;
use turbo_softmax::Sas;
use turbo_tensor::{Matrix, TensorRng};

const LAYERS: usize = 8;
const HEADS: usize = 4;
const D: usize = 64;
const WIDTH: usize = HEADS * D;
const PROMPT: usize = 128;
const DECODE: usize = 128;
const TOKENS: usize = PROMPT + DECODE;
const CHUNK: usize = 16;
/// Distinct seeded inputs; requests cycle through them.
const INPUT_SETS: usize = 2;
const WARMUP_REQUESTS: usize = 2;
const MIN_REQUESTS: usize = 5;

/// Traced stages, in the order the replay calls them.
const STAGES: &[&str] = &[
    "new_set",
    "take_layers",
    "project",
    "append",
    "attend",
    "commit",
    "sync",
    "restore",
    "checkpoint",
    "durable_state",
    "recover",
];
const NEW_SET: usize = 0;
const TAKE: usize = 1;
const PROJECT: usize = 2;
const APPEND: usize = 3;
const ATTEND: usize = 4;
const COMMIT: usize = 5;
const SYNC: usize = 6;
const RESTORE: usize = 7;
const CHECKPOINT: usize = 8;
const DURABLE: usize = 9;
const RECOVER: usize = 10;

/// The paper-default resident cache: INT4, channel groups of 64, n_b = 64.
fn config() -> KvCacheConfig {
    KvCacheConfig {
        bits: BitWidth::Int4,
        group_size: 64,
        buffer_capacity: 64,
    }
}

fn fresh_set() -> DurableLayerSet {
    let mut set = DurableLayerSet::new(LAYERS, HEADS, D, config(), Box::new(NeverCheckpoint));
    set.set_flush_every_n_tokens(1);
    set
}

fn recover(checkpoint: &[u8], wal: &[u8]) -> Result<(DurableLayerSet, usize), String> {
    DurableLayerSet::recover(
        LAYERS,
        HEADS,
        D,
        config(),
        Box::new(NeverCheckpoint),
        checkpoint,
        wal,
        None,
    )
    .map(|(set, outcome)| (set, outcome.wal.map_or(0, |r| r.appends)))
    .map_err(|e| format!("recover failed: {e}"))
}

/// The benchmark's copy of the episode's private per-head projection
/// (`attention::multilayer`): a rotation of the head's segment plus a
/// layer/head/role gain. The bit-identity check of the traced replay
/// pins it to the engine's.
fn project(x: &[f32], h: usize, l: usize, role: usize) -> Vec<f32> {
    let seg = &x[h * D..(h + 1) * D];
    let rot = (l * 3 + role) % D;
    let gain = 0.9 + 0.01 * l as f32 + 0.003 * h as f32 + 0.02 * role as f32;
    (0..D).map(|i| seg[(i + rot) % D] * gain).collect()
}

struct Input {
    prompt: Matrix,
    /// First decode row, sent as the decode call's 1-token prompt.
    first: Matrix,
    /// Remaining decode rows.
    rest: Matrix,
    /// Single-call serialized episode outputs (prompt, then decode).
    reference: Vec<Vec<f32>>,
}

/// What one untraced request measured and left behind.
struct EngineRun {
    ttft: Duration,
    checkpoint: Duration,
    decode: Duration,
    recover: Duration,
    total: Duration,
    outputs: Vec<Vec<f32>>,
    set: DurableLayerSet,
    checkpoint_bytes: usize,
    cut: usize,
    recovered_tokens: usize,
    peak_in_flight: usize,
}

/// The K and V rows one layer appended for one token, per head.
type HeadRows = (Vec<Vec<f32>>, Vec<Vec<f32>>);

/// Whole WAL decode records before byte offset `cut`.
fn records_before(wal: &[u8], cut: usize) -> usize {
    LayerWriteAheadLog::record_boundaries(wal)[1..]
        .iter()
        .filter(|&&b| b <= cut)
        .count()
}

pub struct DurableChat {
    inputs: Vec<Input>,
    sas: Sas,
    /// Seeded stream of WAL cut points.
    cuts: TensorRng,
}

impl DurableChat {
    /// One request on input set `index`: the serialized episode on the
    /// calling thread when `rt` is `None`, else the pipelined episode on
    /// `rt`.
    fn engine_request(&mut self, index: usize, rt: Option<&Runtime>) -> Result<EngineRun, String> {
        let input = &self.inputs[index % INPUT_SETS];
        let sas = &self.sas;
        let episode = |set: &mut DurableLayerSet, prompt: &Matrix, decode: &Matrix| match rt {
            None => multilayer_episode_serialized(set, prompt, decode, sas, CHUNK, None),
            Some(rt) => multilayer_episode_pipelined_on(rt, set, prompt, decode, sas, CHUNK, None),
        };
        let empty = Matrix::zeros(0, WIDTH);
        let start = Instant::now();
        let mut set = fresh_set();
        let t = Instant::now();
        let prefill = episode(&mut set, &input.prompt, &empty);
        let ttft = t.elapsed();
        let t = Instant::now();
        let checkpoint_bytes = set.checkpoint(None);
        let checkpoint = t.elapsed();
        let t = Instant::now();
        let decode = episode(&mut set, &input.first, &input.rest);
        let decode_time = t.elapsed();
        let (ckpt, wal) = set.durable_state();
        let header = LayerWriteAheadLog::record_boundaries(&wal)[0];
        let cut = header + self.cuts.index(wal.len() - header);
        let t = Instant::now();
        let (recovered, replayed_records) = recover(&ckpt, &wal[..cut])?;
        let recover_time = t.elapsed();
        let total = start.elapsed();

        let mut outputs = prefill.outputs;
        outputs.extend(decode.outputs);
        if outputs != input.reference {
            return Err(
                "two-call episode diverged from the single-call serialized reference".into(),
            );
        }
        let expected = PROMPT + records_before(&wal, cut);
        if recovered.tokens() != expected || replayed_records != expected - PROMPT {
            return Err(format!(
                "recovered {} tokens ({replayed_records} records) from a cut at byte {cut}, expected {expected}",
                recovered.tokens()
            ));
        }
        Ok(EngineRun {
            ttft,
            checkpoint,
            decode: decode_time,
            recover: recover_time,
            total,
            outputs,
            set,
            checkpoint_bytes,
            cut,
            recovered_tokens: expected,
            peak_in_flight: prefill
                .stats
                .peak_in_flight
                .max(decode.stats.peak_in_flight),
        })
    }

    /// Serial replay of one request through the public calls the engine
    /// makes. Returns the outputs, the set after decode, and the
    /// recovered token count.
    fn replay(
        &self,
        tr: &mut Tracer,
        input: &Input,
        cut: usize,
        flushes: &mut usize,
    ) -> Result<(Vec<Vec<f32>>, DurableLayerSet, usize), String> {
        let sas = &self.sas;
        tr.section(|tr| {
            let mut set = tr.span(NEW_SET, fresh_set);
            // Prompt call: every prefill chunk of layer 0, then layer 1, …
            // (the DAG's task order), then one commit per token.
            let mut cells = tr.span(TAKE, || set.take_layers_for_pipeline());
            let mut xs: Vec<Vec<f32>> = (0..PROMPT).map(|t| input.prompt.row(t).to_vec()).collect();
            let mut rows: Vec<Vec<HeadRows>> = vec![Vec::new(); PROMPT];
            for (l, cell) in cells.iter_mut().enumerate() {
                for (x, r) in xs.iter_mut().zip(&mut rows) {
                    let (y, kv) = layer_step(tr, cell, sas, x, l, flushes);
                    *x = y;
                    r.push(kv);
                }
            }
            for r in &rows {
                commit(tr, &mut set, r)?;
            }
            tr.span(SYNC, || set.sync_wal());
            tr.span(RESTORE, || set.restore_layers_from_pipeline(cells, None));
            tr.span(CHECKPOINT, || set.checkpoint(None));

            // Decode call: per token, every layer, then its commit.
            let mut outputs = xs;
            let mut cells = tr.span(TAKE, || set.take_layers_for_pipeline());
            for i in 0..DECODE {
                let mut x = if i == 0 {
                    input.first.row(0).to_vec()
                } else {
                    input.rest.row(i - 1).to_vec()
                };
                let mut r = Vec::with_capacity(LAYERS);
                for (l, cell) in cells.iter_mut().enumerate() {
                    let (y, kv) = layer_step(tr, cell, sas, &x, l, flushes);
                    x = y;
                    r.push(kv);
                }
                commit(tr, &mut set, &r)?;
                outputs.push(x);
            }
            tr.span(SYNC, || set.sync_wal());
            tr.span(RESTORE, || set.restore_layers_from_pipeline(cells, None));
            let (ckpt, wal) = tr.span(DURABLE, || set.durable_state());
            let (recovered, _) = tr.span(RECOVER, || recover(&ckpt, &wal[..cut]))?;
            Ok((outputs, set, recovered.tokens()))
        })
    }
}

/// One token through one layer, as the episode's layer step: per head,
/// project, append, attend. Returns the layer output and appended rows.
fn layer_step(
    tr: &mut Tracer,
    cell: &mut LayerKvCache,
    sas: &Sas,
    x: &[f32],
    l: usize,
    flushes: &mut usize,
) -> (Vec<f32>, HeadRows) {
    let mut y = Vec::with_capacity(WIDTH);
    let mut ks = Vec::with_capacity(HEADS);
    let mut vs = Vec::with_capacity(HEADS);
    for h in 0..HEADS {
        let (q, k, v) = tr.span(PROJECT, || {
            (
                project(x, h, l, 0),
                project(x, h, l, 1),
                project(x, h, l, 2),
            )
        });
        let head = cell.head_mut(h);
        let blocks = head.resident_blocks().len();
        tr.span(APPEND, || head.append(&k, &v));
        *flushes += usize::from(head.resident_blocks().len() > blocks);
        y.extend_from_slice(&tr.span(ATTEND, || turbo_attend_cache(&q, head, sas)));
        ks.push(k);
        vs.push(v);
    }
    (y, (ks, vs))
}

/// Commits one token's rows, layer-major, as the episode's WAL task does.
fn commit(tr: &mut Tracer, set: &mut DurableLayerSet, rows: &[HeadRows]) -> Result<(), String> {
    let ks: Vec<&[f32]> = rows
        .iter()
        .flat_map(|(k, _)| k.iter().map(Vec::as_slice))
        .collect();
    let vs: Vec<&[f32]> = rows
        .iter()
        .flat_map(|(_, v)| v.iter().map(Vec::as_slice))
        .collect();
    tr.span(COMMIT, || set.commit_pipelined_token(&ks, &vs, None))
        .map_err(|e| format!("commit rejected engine rows: {e}"))
}

impl Workload for DurableChat {
    const BYPASSED: &'static [&'static str] = &[
        "sim_req_s",
        "attn_rel_err",
        "attention.prefill_head_ms_p50",
        "attention.decode_head_us_p50",
        "gpusim.",
    ];

    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = TensorRng::new(seed);
        let sas = Sas::paper_default();
        let inputs = (0..INPUT_SETS)
            .map(|_| {
                let prompt = rng.normal(PROMPT, WIDTH, 0.0, 1.0);
                let decode = rng.normal(DECODE, WIDTH, 0.0, 1.0);
                let reference = multilayer_episode_serialized(
                    &mut fresh_set(),
                    &prompt,
                    &decode,
                    &sas,
                    CHUNK,
                    None,
                )
                .outputs;
                Input {
                    first: decode.row_block(0, 1),
                    rest: decode.row_block(1, DECODE - 1),
                    prompt,
                    reference,
                }
            })
            .collect();
        let mut w = Self {
            inputs,
            sas,
            cuts: TensorRng::new(seed ^ 0x6375_7473),
        };
        for i in 0..WARMUP_REQUESTS {
            w.engine_request(i, None)?;
        }
        // The pipelined episode on a pool must equal the serialized one.
        w.engine_request(0, Some(&Runtime::with_workers(pool_workers())))?;
        Ok(w)
    }

    fn run(&mut self, cfg: &RunConfig, report: &mut Report) {
        let (mut ttft, mut tpot, mut req, mut rec) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut tok_s = Vec::new();
        let mut tr = Tracer::new(STAGES);
        let (mut flushes, mut replayed, mut recovered_bytes, mut ckpt_bytes) =
            (0usize, 0usize, 0usize, 0usize);
        let mut peak_in_flight = 0;
        let mut traced = 0usize;
        let mut last_set = None;
        let mut meter = cfg.trace.then(PoolMeter::new);
        let mut metered = 0usize;
        let mut serial_wall = Duration::ZERO;
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        for index in 0.. {
            if Instant::now() >= deadline && report.attempted >= MIN_REQUESTS {
                break;
            }
            let run = match self.engine_request(index, None) {
                Ok(run) => run,
                Err(e) => {
                    report.request(Err(e));
                    continue;
                }
            };
            ttft.push(ms(run.ttft));
            tpot.push(ms(run.decode) / DECODE as f64);
            req.push(ms(run.total));
            rec.push(ms(run.recover));
            tok_s.push(TOKENS as f64 / (run.ttft + run.checkpoint + run.decode).as_secs_f64());
            replayed += run.recovered_tokens - PROMPT;
            recovered_bytes += run.cut;
            ckpt_bytes = run.checkpoint_bytes;
            let Some(meter) = meter.as_mut() else {
                report.request(Ok(()));
                continue;
            };
            // The same input through the pipelined episode on the metered
            // pool; it must write the serialized episode's bytes.
            let serial = run;
            let run = match meter.measure(|rt| self.engine_request(index, Some(rt))) {
                Ok(run) => run,
                Err(e) => {
                    report.request(Err(e));
                    continue;
                }
            };
            metered += 1;
            peak_in_flight = peak_in_flight.max(run.peak_in_flight);
            if run.set.wal().as_bytes() != serial.set.wal().as_bytes()
                || run.set.checkpoint_bytes() != serial.set.checkpoint_bytes()
            {
                report.request(Err(
                    "pipelined episode WAL or checkpoint bytes differ from the serialized episode's"
                        .into(),
                ));
                continue;
            }
            serial_wall += serial.total;
            let input = &self.inputs[index % INPUT_SETS];
            let check = self.replay(&mut tr, input, run.cut, &mut flushes).and_then(
                |(outputs, set, tokens)| {
                    if outputs != run.outputs {
                        return Err("traced replay outputs differ from the engine's".into());
                    }
                    if set.wal().as_bytes() != run.set.wal().as_bytes()
                        || set.checkpoint_bytes() != run.set.checkpoint_bytes()
                    {
                        return Err(
                            "traced replay WAL or checkpoint bytes differ from the engine's".into(),
                        );
                    }
                    if tokens != run.recovered_tokens {
                        return Err("traced replay recovered a different token count".into());
                    }
                    Ok(())
                },
            );
            traced += 1;
            last_set = Some(run.set);
            report.request(check);
        }
        let n = ttft.len().max(1) as f64;
        report.requests(cfg.trace, &ttft, &tpot, &req, &tok_s);
        let Some(meter) = meter else {
            return;
        };
        report.set("recover_ms_p50", percentile(&rec, 50.0));
        report.set("recover_ms_p90", percentile(&rec, 90.0));
        meter.report(report, metered.max(1) as f64, Some(peak_in_flight));

        let t = traced.max(1) as f64;
        report.set("attention.attend_us_p50", tr.us("attend", 50.0));
        report.set("attention.attend_calls", tr.calls("attend") as f64 / t);
        report.set("attention.project_us_p50", tr.us("project", 50.0));
        report.set("kvcache.append_us_p50", tr.us("append", 50.0));
        report.set("kvcache.append_us_p99", tr.us("append", 99.0));
        report.set("kvcache.flushes", flushes as f64 / t);
        if let Some(set) = &last_set {
            let layers: Vec<&LayerKvCache> = (0..LAYERS).map(|l| set.layer(l)).collect();
            set_cache_stats(report, &layers, TOKENS);
            report.set(
                "layer_wal.record_bytes",
                set.wal().record_bytes() as f64 / set.wal().records() as f64,
            );
            report.set("layer_wal.syncs", set.stats().wal_syncs as f64);
        }
        report.set("layer_wal.commit_us_p50", tr.us("commit", 50.0));
        report.set(
            "layer_wal.checkpoint_ms_p50",
            tr.us("checkpoint", 50.0) / 1e3,
        );
        report.set("layer_wal.checkpoint_bytes", ckpt_bytes as f64);
        report.set("layer_wal.replayed_records", replayed as f64 / n);
        report.set(
            "layer_wal.replay_mb_s",
            recovered_bytes as f64 / 1e6 / (rec.iter().sum::<f64>() / 1e3),
        );

        // Computed from tensor shapes: per attend over `c` cached tokens,
        // q·Kᵀ and p·V each take c·d i8 MACs; their i8 operands are the
        // K and V codes (2·c·d bytes) plus q (d) and p (c).
        let (mut macs, mut bytes, mut exps) = (0u64, 0u64, 0u64);
        for c in 1..=TOKENS as u64 {
            let cells = (LAYERS * HEADS) as u64;
            macs += cells * 2 * c * D as u64;
            bytes += cells * (2 * c * D as u64 + D as u64 + c);
            exps += cells * c;
        }
        report.set("tensor.i8_macs", macs as f64);
        report.set("tensor.bytes_moved", bytes as f64);
        report.set("softmax.exp_evals", exps as f64);
        kernels::measure(report);

        report.set("trace.unattributed_frac", tr.unattributed_frac());
        report.set(
            "trace.overhead_frac",
            tr.wall_s() / serial_wall.as_secs_f64() - 1.0,
        );
    }
}
