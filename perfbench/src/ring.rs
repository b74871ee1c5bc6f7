//! `zipf_ring`: a read-majority Zipf mix through `Ring::serve` on a
//! 2-shard `ShardedPipeline`, closed loop at a fixed queue depth from one
//! submitter thread per shard.

use crate::common::{build_store, Pool, Rep, Shadow};
use crate::store::audit;
use crate::tracer::{Layer, Mirror, Tracer};
use edc_compress::checksum64;
use edc_core::{
    Op, OpOutput, PipelineConfig, Ring, RingConfig, ShardConfig, ShardedPipeline, Ticket,
    WriteResult, BLOCK_BYTES,
};
use edc_datagen::{Rng64, Zipfian};
use std::collections::VecDeque;
use std::time::Instant;

const SHARDS: usize = 2;
const EXTENT_BLOCKS: u64 = 64;
/// A key is one 64 KiB run (16 blocks); four keys share an extent.
const KEY_BLOCKS: u32 = 16;
/// 96 keys = 6 MiB of live data, under the two shards' run caches
/// (2 × 64 runs × 64 KiB = 8 MiB): the hot set fits, so reads hit.
const KEYS: u64 = 96;
const VOLUME_BLOCKS: u64 = KEYS * KEY_BLOCKS as u64;
const OPS: usize = 16_000;
const WRITE_SHARE: f64 = 0.10;
/// Ops in flight per submitter (one per shard: QD 8 in all), and the
/// per-shard ring depth (≥ it, so never full).
const QD: usize = 4;
const RING_DEPTH: usize = 16;
/// One op every 500 µs of trace time: ~2 900 calculated IOPS per shard,
/// inside the ladder's Lzf band. The prefill runs at the same pace
/// straight into the op stream.
const GAP_NS: u64 = 500_000;

#[derive(Debug, Clone, Copy)]
enum ZOp {
    Write { at: u64, block: u64, src: u32 },
    Read { at: u64, block: u64, blocks: u32 },
}

/// `zipf_ring`: Zipf(θ = 0.99) over 96 keys whose 6 MiB fit the shards'
/// run caches, 90 % reads of 4–8 KiB inside a key and 10 % whole-key
/// 64 KiB rewrites, prefilled so every read finds data. Arrivals are
/// spaced in trace time, never by the wall clock. The only workload
/// on the shard/ring front-end: reads mostly hit the cache (the
/// decode-bypassed control for `fin2_store`) and writes still coalesce.
pub struct RingWorkload {
    pool: Pool,
    prefill: Vec<ZOp>,
    ops: Vec<ZOp>,
    close_ns: u64,
}

pub fn zipf(seed: u64, pool: Pool) -> RingWorkload {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x21FF_0002);
    // Ranks map to shuffled keys, dealt hottest first to whichever shard
    // holds less Zipf mass so far: both shards carry half the load.
    let zipf = Zipfian::new(KEYS as usize, 0.99);
    let mut per_shard: Vec<Vec<u64>> = (0..SHARDS)
        .map(|s| {
            let key_shard = |k: &u64| shard_of(k * u64::from(KEY_BLOCKS)) == s;
            (0..KEYS).filter(key_shard).collect()
        })
        .collect();
    for keys in &mut per_shard {
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below_usize(i + 1));
        }
    }
    let mut mass = [0.0f64; SHARDS];
    let keys: Vec<u64> = (0..KEYS as usize)
        .map(|rank| {
            let s = (0..SHARDS)
                .filter(|&s| !per_shard[s].is_empty())
                .min_by(|&a, &b| mass[a].total_cmp(&mass[b]))
                .expect("a shard with keys left");
            mass[s] += zipf.head_mass(rank + 1) - zipf.head_mass(rank);
            per_shard[s].pop().expect("a shard with keys left")
        })
        .collect();
    let mut at = 0;
    let src = |rng: &mut Rng64| rng.below(u64::from(pool.blocks() - KEY_BLOCKS)) as u32;
    // Two passes over the keys: the second lifts each shard's monitor
    // window past the Deflate band (1 536 > 1 200 pages), so the op stream
    // starts in the Lzf band instead of ramping through Deflate.
    let mut prefill = Vec::new();
    for k in (0..KEYS).chain(0..KEYS) {
        prefill.push(ZOp::Write {
            at,
            block: k * u64::from(KEY_BLOCKS),
            src: src(&mut rng),
        });
        at += GAP_NS;
    }
    let mut ops = Vec::with_capacity(OPS);
    for _ in 0..OPS {
        let base = keys[zipf.sample(&mut rng)] * u64::from(KEY_BLOCKS);
        if rng.chance(WRITE_SHARE) {
            ops.push(ZOp::Write {
                at,
                block: base,
                src: src(&mut rng),
            });
        } else {
            let blocks = 1 + rng.below(2) as u32;
            let block = base + rng.below(u64::from(KEY_BLOCKS - blocks + 1));
            ops.push(ZOp::Read { at, block, blocks });
        }
        at += GAP_NS;
    }
    RingWorkload {
        pool,
        prefill,
        ops,
        close_ns: at + 1_000_000,
    }
}

fn config() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        extent_blocks: EXTENT_BLOCKS,
        pipeline: PipelineConfig::default(),
    }
}

fn shard_of(block: u64) -> usize {
    ((block / EXTENT_BLOCKS) % SHARDS as u64) as usize
}

/// What one op's completion must be: a read's length and checksum, taken
/// from the shadow when the op was submitted.
#[derive(Clone, Copy)]
enum Expect {
    Write,
    Read { len: u64, checksum: u64 },
}

impl ZOp {
    fn block(&self) -> u64 {
        match *self {
            ZOp::Write { block, .. } | ZOp::Read { block, .. } => block,
        }
    }
}

impl RingWorkload {
    pub fn writes(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, ZOp::Write { .. }))
            .count()
    }

    pub fn ops_len(&self) -> usize {
        self.ops.len()
    }

    pub fn rep(&self, tracer: Option<&mut Tracer>) -> Rep {
        let traced = tracer.is_some();
        let mut idle = Tracer::new(false, false);
        let tr = tracer.unwrap_or(&mut idle);
        let capacity = 4 * VOLUME_BLOCKS * BLOCK_BYTES * SHARDS as u64;
        let mut rep = Rep::default();
        let mut shadow = Shadow::new(VOLUME_BLOCKS);

        let (store, build_ns) = build_store(|| ShardedPipeline::new(capacity, config()));
        let t0 = Instant::now();
        let mut prefill_out = Vec::new();
        for op in &self.prefill {
            let ZOp::Write { at, block, src } = *op else {
                unreachable!("prefill writes only")
            };
            rep.attempted += 1;
            match store.write(at, block * BLOCK_BYTES, self.pool.slice(src, KEY_BLOCKS)) {
                Ok(r) => prefill_out.push(r),
                Err(e) => rep.fail(format!("prefill write at block {block}: {e}")),
            }
            shadow.write(block, KEY_BLOCKS, src);
        }
        rep.setup_ns = build_ns + t0.elapsed().as_nanos() as u64;
        let before = store.stats().cache;

        // What each completion must be — a read's bytes as the shadow holds
        // them at its submission — worked out before the timed loop, so the
        // submitter only submits and reaps.
        let mut shard_ops = [0u64; SHARDS];
        let expect: Vec<Expect> = self
            .ops
            .iter()
            .map(|op| match *op {
                ZOp::Write { block, src, .. } => {
                    shard_ops[shard_of(block)] += 1;
                    shadow.write(block, KEY_BLOCKS, src);
                    Expect::Write
                }
                ZOp::Read { block, blocks, .. } => {
                    shard_ops[shard_of(block)] += 1;
                    let want = shadow.expected(&self.pool, block, blocks);
                    let len = want.len() as u64;
                    Expect::Read {
                        len,
                        checksum: checksum64(&want, len),
                    }
                }
            })
            .collect();

        // One submitter per shard, each over its own shard's ops in stream
        // order (a key's blocks live on one shard, so each read still sees
        // every earlier write to them).
        let lanes: Vec<Vec<usize>> = (0..SHARDS)
            .map(|s| {
                (0..self.ops.len())
                    .filter(|&i| shard_of(self.ops[i].block()) == s)
                    .collect()
            })
            .collect();
        let mut outs: Vec<Option<OpOutput>> = vec![None; self.ops.len()];
        let t1 = Instant::now();
        let forks: Vec<Tracer> = lanes.iter().map(|_| tr.fork()).collect();
        let (ring_stats, clients) = Ring::serve(
            &store,
            RingConfig {
                depth: RING_DEPTH,
                shards: SHARDS,
            },
            |ring| {
                let clients = std::thread::scope(|sc| {
                    let handles: Vec<_> = lanes
                        .iter()
                        .zip(forks)
                        .map(|(lane, mut ltr)| {
                            sc.spawn(move || {
                                let (rep, outs) = self.submitter(ring, lane, &mut ltr);
                                (rep, outs, ltr)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("submitter thread panicked"))
                        .collect::<Vec<_>>()
                });
                ((ring.stats(), ring.occupancy_series()), clients)
            },
        );
        rep.loop_ns = t1.elapsed().as_nanos() as u64;
        rep.ops = self.ops.len() as u64;
        for (client, reaped, ltr) in clients {
            rep.absorb_ops(client);
            tr.join(ltr);
            for (i, out) in reaped {
                outs[i] = Some(out);
            }
        }

        // Every completion against what the shadow said at submission.
        for (i, (out, want)) in outs.iter().zip(&expect).enumerate() {
            match (out, want) {
                (Some(OpOutput::Writes(_)), Expect::Write) => {}
                (
                    Some(OpOutput::Read { len, checksum }),
                    Expect::Read {
                        len: l,
                        checksum: c,
                    },
                ) if len == l && checksum == c => {}
                (Some(other), _) => rep.fail(format!("op {i} completed as {other:?}")),
                (None, _) => {}
            }
        }
        rep.attempted += 1;
        let closing = match store.flush_all(self.close_ns) {
            Ok(r) => r,
            Err(e) => {
                rep.fail(format!("flush: {e}"));
                Vec::new()
            }
        };

        let stats = store.stats();
        rep.counts.cache_hits = stats.cache.hits - before.hits;
        rep.counts.cache_misses = stats.cache.misses - before.misses;
        rep.counts.cache_evictions = stats.cache.evictions - before.evictions;
        rep.counts.cache_invalidations = stats.cache.invalidations - before.invalidations;
        rep.counts.live_stored_bytes = store.live_stored_bytes();
        rep.counts.live_user_bytes = stats.mapped_blocks * BLOCK_BYTES;
        for s in 0..SHARDS {
            let a = store.with_shard(s, |p| p.alloc_stats());
            let c = &mut rep.counts.alloc;
            c.placements += a.placements;
            c.allocated_bytes += a.allocated_bytes;
            c.payload_bytes += a.payload_bytes;
            c.internal_frag_bytes += a.internal_frag_bytes;
            c.write_through += a.write_through;
            c.quantum_changes += a.quantum_changes;
        }
        let (rs, occupancy) = ring_stats;
        let writes = self.writes() as f64;
        let total: u64 = shard_ops.iter().sum();
        rep.layer.push((
            "ring.mean_batch",
            rs.completed as f64 / rs.drained_batches.max(1) as f64,
        ));
        rep.layer.push((
            "ring.coalesced_share",
            rs.coalesced_writes as f64 / writes.max(1.0),
        ));
        let occ = occupancy.iter().map(|p| p.value).sum::<f64>() / occupancy.len().max(1) as f64;
        rep.layer.push(("ring.occupancy_mean", occ));
        rep.layer
            .push(("ring.rejected_full", rs.rejected_full as f64));
        rep.layer.push((
            "shard.max_op_share",
            *shard_ops.iter().max().expect("two shards") as f64 / total.max(1) as f64,
        ));

        if traced {
            self.re_execute(
                tr,
                &prefill_out,
                &outs,
                &closing,
                &stats.cache,
                &mut rep,
                capacity,
            );
        }
        let at = self.close_ns;
        audit(
            store.verify(),
            |o, l| store.read(at, o, l),
            &shadow,
            &self.pool,
            VOLUME_BLOCKS,
            &mut rep,
        );
        rep
    }

    /// The ring op for stream op `i`, with its trace time.
    fn ring_op(&self, i: usize) -> (u64, Op) {
        match self.ops[i] {
            ZOp::Write { at, block, src } => (
                at,
                Op::Write {
                    offset: block * BLOCK_BYTES,
                    data: self.pool.slice(src, KEY_BLOCKS).to_vec(),
                },
            ),
            ZOp::Read { at, block, blocks } => (
                at,
                Op::Read {
                    offset: block * BLOCK_BYTES,
                    len: u64::from(blocks) * BLOCK_BYTES,
                },
            ),
        }
    }

    /// One submitter's closed loop over one shard's ops (`lane`, stream
    /// indices): keep QD in flight, then block on the oldest. A shard
    /// posts its completions in submission order, so the oldest is the
    /// next to land and the wait never sits behind a completed op — which
    /// a single submitter over both shards would, whenever the other
    /// shard finished first. Returns the latencies, attempts and failures,
    /// and each reaped output by stream index.
    fn submitter(
        &self,
        ring: &Ring<'_>,
        lane: &[usize],
        tr: &mut Tracer,
    ) -> (Rep, Vec<(usize, OpOutput)>) {
        let mut rep = Rep::default();
        let mut outs = Vec::with_capacity(lane.len());
        let mut inflight: VecDeque<(Ticket, usize, u64)> = VecDeque::with_capacity(QD);
        let mut next = lane.iter();
        loop {
            while inflight.len() < QD {
                let Some(&i) = next.next() else { break };
                let (at, op) = self.ring_op(i);
                let s = tr.now();
                let r = ring.submit(at, op);
                tr.record(Layer::RingSubmit, i as u32, s, tr.now(), 0);
                rep.attempted += 1;
                match r {
                    Ok(t) => inflight.push_back((t, i, s)),
                    Err(e) => rep.fail(format!("submit of op {i}: {e}")),
                }
            }
            let Some((t, i, start)) = inflight.pop_front() else {
                break;
            };
            let s = tr.now();
            let r = ring.wait(t);
            let end = tr.now();
            tr.record(Layer::RingWait, i as u32, s, end, 0);
            match r {
                Ok(out) => {
                    if matches!(self.ops[i], ZOp::Write { .. }) {
                        tr.record(Layer::OpWrite, i as u32, start, end, 0);
                        rep.writes.push(end - start);
                    } else {
                        tr.record(Layer::OpRead, i as u32, start, end, 0);
                        rep.reads.push(end - start);
                    }
                    outs.push((i, out));
                }
                Err(e) => rep.fail(format!("wait on op {i}: {e}")),
            }
        }
        (rep, outs)
    }

    /// Replay every op through one mirror per shard, in submission order
    /// (each shard's execution order), timing each layer as a child of the
    /// op, and require the mirrors to reproduce every stored run.
    #[allow(clippy::too_many_arguments)]
    fn re_execute(
        &self,
        tr: &mut Tracer,
        prefill_out: &[Vec<WriteResult>],
        outs: &[Option<OpOutput>],
        closing: &[WriteResult],
        cache: &edc_core::CacheStats,
        rep: &mut Rep,
        capacity: u64,
    ) {
        let mut mirrors: Vec<Mirror> = (0..SHARDS)
            .map(|s| {
                let mut pc = config().pipeline;
                pc.journal_shard = s as u8;
                pc.heat.extent_blocks = EXTENT_BLOCKS;
                Mirror::new(capacity / SHARDS as u64, &pc)
            })
            .collect();
        let active = tr.active;
        tr.active = false;
        for (op, real) in self.prefill.iter().zip(prefill_out) {
            let ZOp::Write { at, block, src } = *op else {
                unreachable!("prefill writes only")
            };
            let m = &mut mirrors[shard_of(block)];
            let want = m.write(
                tr,
                u32::MAX,
                at,
                block * BLOCK_BYTES,
                self.pool.slice(src, KEY_BLOCKS),
            );
            rep.compare("prefill write", &want, real);
        }
        tr.active = active;
        for (i, (op, out)) in self.ops.iter().zip(outs).enumerate() {
            match *op {
                ZOp::Write { at, block, src } => {
                    let m = &mut mirrors[shard_of(block)];
                    let want = m.write(
                        tr,
                        i as u32,
                        at,
                        block * BLOCK_BYTES,
                        self.pool.slice(src, KEY_BLOCKS),
                    );
                    match out {
                        Some(OpOutput::Writes(real)) => rep.compare("write", &want, real),
                        _ => rep.mirrored(&want),
                    }
                }
                ZOp::Read { at, block, blocks } => {
                    let m = &mut mirrors[shard_of(block)];
                    let len = u64::from(blocks) * BLOCK_BYTES;
                    let stored = m.read(tr, i as u32, at, block * BLOCK_BYTES, len);
                    rep.mirrored(&stored);
                }
            }
        }
        let mut want = Vec::new();
        for m in &mut mirrors {
            want.extend(m.flush_all(tr, self.ops.len() as u32, self.close_ns));
        }
        rep.compare("flush", &want, closing);
        let alloc = rep.counts.alloc;
        rep.mirror_check(&mirrors, &alloc, cache);
    }
}
