//! `fin1_store` and `fin2_store`: one closed-loop client replaying a
//! seeded trace against a plain `EdcPipeline` through its public API.

use crate::common::{build_store, Pool, Rep, Shadow};
use crate::tracer::{Layer, Mirror, Tracer};
use edc_core::{EdcError, EdcPipeline, PipelineConfig, ReadError, ScrubReport, BLOCK_BYTES};
use edc_datagen::Rng64;
use edc_trace::{OpType, Trace, TracePreset};

/// One client op. `at` is the trace timestamp handed to the store as
/// `now_ns`; the wall clock never reaches the store.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Write {
        at: u64,
        block: u64,
        blocks: u32,
        src: u32,
    },
    Read {
        at: u64,
        block: u64,
        blocks: u32,
    },
}

/// The run cache's decompressed capacity: `cache_runs` (64) runs of at
/// most `max_merge_blocks` (16) blocks = 4 MiB.
pub const CACHE_BLOCKS: u64 = 64 * 16;

pub struct StoreWorkload {
    pub volume_blocks: u64,
    pub capacity: u64,
    /// Set-up writes (timed as set-up, not as ops).
    pub prefill: Vec<Op>,
    pub prefill_end_ns: u64,
    pub ops: Vec<Op>,
    pub close_ns: u64,
    pub pool: Pool,
}

/// `fin1_store`: `TracePreset::Fin1` (77 % writes of 2–16 KiB, bursty
/// ON/OFF) with `DataMix::oltp()` content, offsets folded onto a 32 MiB
/// volume (8× the 4 MiB run cache), no prefill. ON bursts run at ~2 200
/// calculated IOPS (Lzf band) with batch peaks past 4 000 (write-through);
/// OFF periods fall under 1 200 (Deflate). Sealing writes carry
/// SD → estimator → compress → allocate → journal, so the write path and
/// the codec encoders do most of the work here.
pub fn fin1(seed: u64, pool: Pool) -> StoreWorkload {
    const VOLUME_BLOCKS: u64 = 8192;
    const TRACE_S: f64 = 150.0;
    let trace = TracePreset::Fin1.generate(TRACE_S, seed);
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0005_7C0E);
    let ops = fold(&trace, VOLUME_BLOCKS, &mut rng, pool.blocks(), 0);
    let close_ns = trace.duration_ns() + 1_000_000;
    StoreWorkload {
        volume_blocks: VOLUME_BLOCKS,
        capacity: 4 * VOLUME_BLOCKS * BLOCK_BYTES,
        prefill: Vec::new(),
        prefill_end_ns: 0,
        ops,
        close_ns,
        pool,
    }
}

/// `fin2_store`: `TracePreset::Fin2` (82 % reads of 2–8 KiB) over a
/// 48 MiB volume prefilled in full — 12× the run cache's 4 MiB
/// decompressed capacity, so most reads miss the cache and decode. The
/// prefill writes 64 KiB runs at 150 writes/s of trace time (2 400
/// calculated IOPS, inside the ladder's 1 200–4 000 Lzf band after the
/// monitor's first window second, which lands in Deflate). This is the
/// decoder / checksum / segment-read workload; the encoders do little.
pub fn fin2(seed: u64, pool: Pool) -> StoreWorkload {
    const VOLUME_BLOCKS: u64 = 12 * CACHE_BLOCKS;
    const TRACE_S: f64 = 60.0;
    const RUN_BLOCKS: u32 = 16;
    const PREFILL_GAP_NS: u64 = 1_000_000_000 / 150;
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0005_7C0F);
    let mut prefill = Vec::new();
    let mut at = 0;
    for block in (0..VOLUME_BLOCKS).step_by(RUN_BLOCKS as usize) {
        let src = rng.below(u64::from(pool.blocks() - RUN_BLOCKS)) as u32;
        prefill.push(Op::Write {
            at,
            block,
            blocks: RUN_BLOCKS,
            src,
        });
        at += PREFILL_GAP_NS;
    }
    // Two idle seconds let the monitor's window empty before the trace.
    let start = at + 2_000_000_000;
    let trace = TracePreset::Fin2.generate(TRACE_S, seed);
    let ops = fold(&trace, VOLUME_BLOCKS, &mut rng, pool.blocks(), start);
    StoreWorkload {
        volume_blocks: VOLUME_BLOCKS,
        capacity: 4 * VOLUME_BLOCKS * BLOCK_BYTES,
        prefill,
        prefill_end_ns: at,
        ops,
        close_ns: start + trace.duration_ns() + 1_000_000,
        pool,
    }
}

/// Fold a trace's offsets onto a `volume_blocks` volume (whole 4 KiB
/// blocks; a 2 KiB request touches one block) and shift it by `t0`.
fn fold(trace: &Trace, volume_blocks: u64, rng: &mut Rng64, pool_blocks: u32, t0: u64) -> Vec<Op> {
    trace
        .requests
        .iter()
        .map(|r| {
            let blocks = r.page_units();
            let block =
                (r.offset / BLOCK_BYTES % volume_blocks).min(volume_blocks - u64::from(blocks));
            let at = t0 + r.arrival_ns;
            match r.op {
                OpType::Write => {
                    let src = rng.below(u64::from(pool_blocks - blocks)) as u32;
                    Op::Write {
                        at,
                        block,
                        blocks,
                        src,
                    }
                }
                OpType::Read => Op::Read { at, block, blocks },
            }
        })
        .collect()
}

impl StoreWorkload {
    pub fn writes(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Write { .. }))
            .count()
    }

    /// One repetition: build the store (+ prefill), replay every op, flush,
    /// then audit the whole volume. With a tracer, every op is mirrored
    /// layer by layer and the mirror must agree with the store.
    pub fn rep(&self, tracer: Option<&mut Tracer>) -> Rep {
        let traced = tracer.is_some();
        let mut idle = Tracer::new(false, false);
        let tr = tracer.unwrap_or(&mut idle);
        let cfg = PipelineConfig::default();
        let mut mirror = traced.then(|| Mirror::new(self.capacity, &cfg));
        let mut rep = Rep::default();
        let mut shadow = Shadow::new(self.volume_blocks);

        let (mut store, build_ns) = build_store(|| EdcPipeline::new(self.capacity, cfg.clone()));
        let t0 = std::time::Instant::now();
        let active = tr.active;
        tr.active = false;
        for op in &self.prefill {
            self.apply(
                &mut store,
                &mut mirror,
                tr,
                &mut shadow,
                &mut rep,
                u32::MAX,
                op,
            );
        }
        if !self.prefill.is_empty() {
            self.flush(
                &mut store,
                &mut mirror,
                tr,
                &mut rep,
                u32::MAX,
                self.prefill_end_ns,
            );
        }
        rep.setup_ns = build_ns + t0.elapsed().as_nanos() as u64;
        tr.active = active;
        let before = store.stats().cache;

        let t1 = std::time::Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            self.apply(
                &mut store,
                &mut mirror,
                tr,
                &mut shadow,
                &mut rep,
                i as u32,
                op,
            );
        }
        rep.loop_ns = t1.elapsed().as_nanos() as u64;
        self.flush(
            &mut store,
            &mut mirror,
            tr,
            &mut rep,
            self.ops.len() as u32,
            self.close_ns,
        );

        let stats = store.stats();
        rep.counts.cache_hits = stats.cache.hits - before.hits;
        rep.counts.cache_misses = stats.cache.misses - before.misses;
        rep.counts.cache_evictions = stats.cache.evictions - before.evictions;
        rep.counts.cache_invalidations = stats.cache.invalidations - before.invalidations;
        rep.counts.live_stored_bytes = store.live_stored_bytes();
        rep.counts.live_user_bytes = stats.mapped_blocks * BLOCK_BYTES;
        rep.counts.alloc = store.alloc_stats();
        if let Some(m) = mirror {
            rep.mirror_check(&[m], &rep.counts.alloc.clone(), &stats.cache);
        }
        let verify = store.verify();
        let at = self.close_ns;
        audit(
            verify,
            |o, l| store.read(at, o, l),
            &shadow,
            &self.pool,
            self.volume_blocks,
            &mut rep,
        );
        rep
    }

    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        store: &mut EdcPipeline,
        mirror: &mut Option<Mirror>,
        tr: &mut Tracer,
        shadow: &mut Shadow,
        rep: &mut Rep,
        op_id: u32,
        op: &Op,
    ) {
        let measured = op_id != u32::MAX;
        rep.attempted += 1;
        match *op {
            Op::Write {
                at,
                block,
                blocks,
                src,
            } => {
                let data = self.pool.slice(src, blocks);
                let offset = block * BLOCK_BYTES;
                let s = tr.now();
                let r = store.write(at, offset, data);
                let e = tr.now();
                tr.record(Layer::OpWrite, op_id, s, e, data.len() as u64);
                if measured {
                    rep.ops += 1;
                    rep.writes.push(e - s);
                    rep.measured_writes += 1;
                }
                match r {
                    Ok(res) => {
                        if measured && res.is_some() {
                            rep.sealing_writes += 1;
                        }
                        if let Some(m) = mirror {
                            let want = m.write(tr, op_id, at, offset, data);
                            rep.compare("write", &want, res.as_slice());
                        }
                    }
                    Err(err) => rep.fail(format!("write at block {block}: {err}")),
                }
                shadow.write(block, blocks, src);
            }
            Op::Read { at, block, blocks } => {
                let offset = block * BLOCK_BYTES;
                let len = u64::from(blocks) * BLOCK_BYTES;
                let s = tr.now();
                let r = store.read(at, offset, len);
                let e = tr.now();
                tr.record(Layer::OpRead, op_id, s, e, len);
                if measured {
                    rep.ops += 1;
                    rep.reads.push(e - s);
                }
                match r {
                    Ok(bytes) if shadow.matches(&self.pool, block, &bytes) => {}
                    Ok(_) => rep.fail(format!("read at block {block} returned wrong bytes")),
                    Err(err) => rep.fail(format!("read at block {block}: {err}")),
                }
                if let Some(m) = mirror {
                    let stored = m.read(tr, op_id, at, offset, len);
                    rep.mirrored(&stored);
                }
            }
        }
    }

    fn flush(
        &self,
        store: &mut EdcPipeline,
        mirror: &mut Option<Mirror>,
        tr: &mut Tracer,
        rep: &mut Rep,
        op_id: u32,
        at: u64,
    ) {
        rep.attempted += 1;
        let s = tr.now();
        let r = store.flush_all(at);
        let e = tr.now();
        tr.record(Layer::OpFlush, op_id, s, e, 0);
        match r {
            Ok(res) => {
                if let Some(m) = mirror {
                    let want = m.flush_all(tr, op_id, at);
                    rep.compare("flush", &want, &res);
                }
            }
            Err(err) => rep.fail(format!("flush: {err}")),
        }
    }
}

/// After the run: `verify()` must come back clean, and every block of the
/// volume must read back (through `read(offset, len)`) its last written
/// bytes.
pub fn audit(
    verify: Result<ScrubReport, EdcError>,
    mut read: impl FnMut(u64, u64) -> Result<Vec<u8>, ReadError>,
    shadow: &Shadow,
    pool: &Pool,
    volume_blocks: u64,
    rep: &mut Rep,
) {
    rep.attempted += 1;
    match verify {
        Ok(r) if r.clean == r.scanned && r.unrecoverable == 0 => {}
        Ok(r) => rep.fail(format!("verify: {r:?}")),
        Err(err) => rep.fail(format!("verify: {err}")),
    }
    const CHUNK: u64 = 16;
    for block in (0..volume_blocks).step_by(CHUNK as usize) {
        rep.attempted += 1;
        let len = CHUNK.min(volume_blocks - block) * BLOCK_BYTES;
        match read(block * BLOCK_BYTES, len) {
            Ok(bytes) if shadow.matches(pool, block, &bytes) => {}
            Ok(_) => rep.fail(format!("read-back at block {block} returned wrong bytes")),
            Err(err) => rep.fail(format!("read-back at block {block}: {err}")),
        }
    }
}
