//! Inputs, measurement helpers and the result record shared by every
//! workload.

use crate::tracer::Mirror;
use edc_compress::checksum64;
use edc_core::{AllocStats, CacheStats, WriteResult, BLOCK_BYTES};
use edc_datagen::{ContentGenerator, DataMix};
use std::time::Instant;

pub const BB: usize = BLOCK_BYTES as usize;

/// A seeded pool of 4 KiB content blocks. A write takes `blocks`
/// consecutive pool blocks, so inputs are generated once, outside every
/// timed region, and the shadow copy of a block is just its pool index.
pub struct Pool {
    bytes: Vec<u8>,
}

impl Pool {
    pub fn new(seed: u64, mix: DataMix, blocks: usize) -> Self {
        let mut g = ContentGenerator::new(seed, mix);
        let mut bytes = Vec::with_capacity(blocks * BB);
        for _ in 0..blocks {
            bytes.extend_from_slice(&g.block(BB).1);
        }
        Pool { bytes }
    }

    pub fn blocks(&self) -> u32 {
        (self.bytes.len() / BB) as u32
    }

    pub fn slice(&self, first: u32, blocks: u32) -> &[u8] {
        let lo = first as usize * BB;
        &self.bytes[lo..lo + blocks as usize * BB]
    }
}

/// Last content written to each volume block (`u32::MAX` = never
/// written, reads back as zeroes).
pub struct Shadow {
    src: Vec<u32>,
}

impl Shadow {
    pub fn new(blocks: u64) -> Self {
        Shadow {
            src: vec![u32::MAX; blocks as usize],
        }
    }

    pub fn write(&mut self, block: u64, blocks: u32, first_src: u32) {
        for j in 0..blocks {
            self.src[(block + u64::from(j)) as usize] = first_src + j;
        }
    }

    /// Do `got`'s bytes equal the shadow's for blocks starting at `block`?
    pub fn matches(&self, pool: &Pool, block: u64, got: &[u8]) -> bool {
        got.chunks(BB)
            .enumerate()
            .all(|(j, chunk)| match self.src[block as usize + j] {
                u32::MAX => chunk.iter().all(|&b| b == 0),
                s => chunk == pool.slice(s, 1),
            })
    }

    /// The shadow's bytes for `blocks` blocks starting at `block`.
    pub fn expected(&self, pool: &Pool, block: u64, blocks: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(blocks as usize * BB);
        for j in 0..blocks as usize {
            match self.src[block as usize + j] {
                u32::MAX => out.resize(out.len() + BB, 0),
                s => out.extend_from_slice(pool.slice(s, 1)),
            }
        }
        out
    }
}

/// Per-call latencies, ns, in a log-linear histogram: exact below 2 µs,
/// then 1 024 buckets per power of two (under 0.1 % relative error), so
/// memory stays fixed however many calls a run makes. Buckets are
/// allocated on the first sample.
#[derive(Default)]
pub struct Latencies {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (2 * SUB + (63 - SUB_BITS as u64) * SUB) as usize;

impl Latencies {
    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros(); // ≥ SUB_BITS + 1
        let sub = (ns >> (e - SUB_BITS)) - SUB;
        ((u64::from(e - SUB_BITS) + 1) * SUB + sub) as usize
    }

    /// Lower bound of bucket `i` (the inverse of `index`).
    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < 2 * SUB {
            return i;
        }
        let e = i / SUB - 1 + u64::from(SUB_BITS);
        (SUB + i % SUB) << (e - u64::from(SUB_BITS))
    }

    pub fn push(&mut self, ns: u64) {
        if self.buckets.is_empty() {
            self.buckets.resize(BUCKETS, 0);
        }
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Latencies) {
        if self.buckets.is_empty() && other.count > 0 {
            self.buckets.resize(BUCKETS, 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile (nearest rank), in µs; 0 without samples.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::value(i) as f64 / 1e3;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Build a store five times, keeping the last: returns it with the median
/// construction time. Construction alone takes tens of microseconds, so a
/// single sample would be mostly page-fault and syscall noise.
pub fn build_store<S>(mut new: impl FnMut() -> S) -> (S, u64) {
    const BUILDS: usize = 5;
    let mut ns = [0u64; BUILDS];
    let mut store = None;
    for n in &mut ns {
        drop(store.take());
        let t = Instant::now();
        store = Some(new());
        *n = t.elapsed().as_nanos() as u64;
    }
    ns.sort_unstable();
    (store.expect("built five times"), ns[BUILDS / 2])
}

/// Peak resident set of this process, MiB (`VmHWM`; 0 where unknown).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host fingerprint: CPUs available and the throughput of a fixed
/// reference kernel (`checksum64` over a fixed 1 MiB buffer), MiB/s.
pub fn host_fingerprint() -> (usize, f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let buf: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..16u64 {
            acc ^= checksum64(std::hint::black_box(&buf), i);
        }
        std::hint::black_box(acc);
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    (nproc, 16.0 / (best * 1e-9))
}

/// Counts that must repeat bit for bit when a stream is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counts {
    /// Stored runs by codec tag (`CodecId as usize`), from the mirror:
    /// traced repetitions only.
    pub runs: [u64; 5],
    /// The store's own allocator counters.
    pub alloc: AllocStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_invalidations: u64,
    pub live_stored_bytes: u64,
    pub live_user_bytes: u64,
    pub ftl_user_sectors: u64,
    pub ftl_migrated_sectors: u64,
    pub ftl_erases: u64,
    pub ftl_gc_runs: u64,
    pub sim_response_ns: u64,
}

/// What one repetition of a workload measured.
#[derive(Default)]
pub struct Rep {
    pub setup_ns: u64,
    /// Wall time of the measured op loop.
    pub loop_ns: u64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub writes: Latencies,
    pub reads: Latencies,
    pub counts: Counts,
    /// Raw and payload bytes over compressed runs; allocated bytes and
    /// payload bytes over every stored run.
    pub compressed_raw: u64,
    pub compressed_payload: u64,
    pub allocated: u64,
    pub payload: u64,
    /// Writes in the measured phase, and how many sealed a run.
    pub measured_writes: u64,
    pub sealing_writes: u64,
    /// Extra per-layer values this workload owns (ring, flash, sim).
    pub layer: Vec<(&'static str, f64)>,
    /// Why a run failed, for the report.
    pub errors: Vec<String>,
}

impl Rep {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Fold in another thread's share of the op loop: its attempts,
    /// failures and latencies.
    pub fn absorb_ops(&mut self, other: Rep) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
        self.writes.merge(&other.writes);
        self.reads.merge(&other.reads);
    }

    /// The mirror's whole-repetition totals must match the store's own
    /// allocator and cache counters.
    pub fn mirror_check(&mut self, mirrors: &[Mirror], alloc: &AllocStats, cache: &CacheStats) {
        let runs: u64 = self.counts.runs.iter().sum();
        let sealed: u64 = mirrors.iter().map(|m| m.sealed_runs).sum();
        let mut mirror_cache = CacheStats::default();
        for m in mirrors {
            mirror_cache.merge(&m.cache_stats());
        }
        if runs != alloc.placements
            || self.counts.runs[0] != alloc.write_through
            || self.allocated != alloc.allocated_bytes
            || self.payload != alloc.payload_bytes
            || sealed != runs
        {
            self.fail(format!(
                "re-execution diverged: mirror runs {:?} ({sealed} sealed), allocated {}, payload {} vs store {alloc:?}",
                self.counts.runs, self.allocated, self.payload
            ));
        }
        if mirror_cache != *cache {
            self.fail(format!(
                "re-execution diverged: mirror cache {mirror_cache:?} vs store {cache:?}"
            ));
        }
        let rejects: u64 = mirrors.iter().map(|m| m.estimator_rejects).sum();
        let merge = mirrors.iter().map(|m| m.merge_rate()).sum::<f64>() / mirrors.len() as f64;
        self.layer.push((
            "estimator.write_through_ratio",
            rejects as f64 / sealed.max(1) as f64,
        ));
        self.layer.push(("sd.merge_rate", merge));
    }

    /// The mirror's stored runs must equal the store's, field for field.
    pub fn compare(&mut self, what: &str, mirror: &[WriteResult], real: &[WriteResult]) {
        if mirror != real {
            self.fail(format!(
                "re-execution diverged on {what}: mirror {mirror:?} vs store {real:?}"
            ));
        }
        self.mirrored(mirror);
    }

    pub fn mirrored(&mut self, stored: &[WriteResult]) {
        for r in stored {
            self.stored(r);
        }
    }

    /// Account one stored run.
    pub fn stored(&mut self, r: &WriteResult) {
        self.counts.runs[r.tag as usize] += 1;
        let raw = u64::from(r.blocks) * BLOCK_BYTES;
        if r.tag != edc_compress::CodecId::None {
            self.compressed_raw += raw;
            self.compressed_payload += r.payload_bytes;
        }
        self.allocated += r.allocated_bytes;
        self.payload += r.payload_bytes;
    }
}
