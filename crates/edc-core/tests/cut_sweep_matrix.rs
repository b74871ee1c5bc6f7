//! The crash-consistency oracle over the feature cross-product.
//!
//! One shared workload — compressible and noise runs, duplicate slots, an
//! overwrite after a flush, a scrub and a cooled recompression pass — is
//! swept by [`cut_sweep`] on all 16 combinations of dedup × parity ×
//! heat × {plain, 8-shard} stores. Every spec must fire cuts and lose
//! nothing. The self-test proves the oracle can fail: a log that tears
//! its journal before cutting power must come back with lost blocks.

use edc_compress::CodecId;
use edc_core::{
    cut_sweep, cut_sweep_log, parse_edcrr, CutSweepError, Op, OpOutput, Recorder, Replayer,
    StoreSpec,
};
use edc_datagen::{BlockClass, ContentGenerator};

const BB: u64 = 4096;
const STEP_NS: u64 = 2_000_000;
/// Far enough past the writes that every extent has cooled.
const COLD_NS: u64 = 400 * 1_000_000_000;

/// Four-symbol content unique to `seed`: Lzf keeps it near raw, Deflate
/// quarters it, so a cooled pass has whole pages to reclaim.
fn acgt_run(seed: u64, blocks: u64) -> Vec<u8> {
    let mut x = edc_datagen::rng::splitmix64(seed) | 1;
    (0..blocks * BB)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b"acgt"[((x >> 60) & 3) as usize]
        })
        .collect()
}

/// The shared workload. Runs sit in four 64-block extents (shards 0-3 of
/// an 8-shard store), eight blocks apart so the sequentiality detector
/// never merges them; each duplicate shares its original's extent,
/// since the dedup index is per shard.
fn workload() -> Vec<(u64, Op)> {
    let w = |block: u64, data: Vec<u8>| Op::Write { offset: block * BB, data };
    let ops = [
        w(0, acgt_run(1, 4)),
        w(64, acgt_run(2, 4)),
        w(128, acgt_run(3, 4)),
        w(192, acgt_run(4, 4)),
        w(256, ContentGenerator::pure(5, BlockClass::Random).block(2 * BB as usize).1),
        w(16, acgt_run(1, 4)),
        w(80, acgt_run(2, 4)),
        Op::Flush,
        w(128, acgt_run(6, 4)),
        w(208, acgt_run(4, 4)),
        Op::Flush,
        Op::Scrub,
    ];
    let mut timed: Vec<(u64, Op)> =
        ops.into_iter().enumerate().map(|(i, op)| ((i as u64 + 1) * STEP_NS, op)).collect();
    timed.push((COLD_NS, Op::RecompressPass { target: CodecId::Deflate, max_rewrites: u64::MAX }));
    timed.push((COLD_NS, Op::Stats));
    timed
}

fn spec(dedup: bool, parity: bool, heat: bool, shards: u32) -> StoreSpec {
    StoreSpec {
        capacity_bytes: 16 << 20,
        shards,
        dedup,
        parity,
        heat_enabled: heat,
        fast_ladder: heat,
        ..StoreSpec::default()
    }
}

#[test]
fn every_feature_combination_survives_every_cut() {
    let ops = workload();
    let mut failed = Vec::new();
    for bits in 0..16u32 {
        let (dedup, parity, heat) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
        let shards = if bits & 8 != 0 { 8 } else { 0 };
        let spec = spec(dedup, parity, heat, shards);
        let name = format!("dedup={dedup} parity={parity} heat={heat} shards={shards}");
        let report = cut_sweep(&spec, &ops).unwrap_or_else(|e| panic!("{name}: refused: {e}"));
        assert!(report.cut_points >= 1, "{name}: no cut fired");
        let Some(OpOutput::Recompress(pass)) = report.clean.iter().rev().nth(1) else {
            panic!("{name}: no recompress output");
        };
        if heat {
            assert!(pass.recompressed > 0, "{name}: the cooled pass recompressed nothing");
        }
        let Some(OpOutput::Stats(stats)) = report.clean.last() else {
            panic!("{name}: no stats output");
        };
        if dedup {
            assert!(stats.dedup_hits >= 1, "{name}: no dedup hit: {stats:?}");
        }
        if !report.passed() {
            failed.push(format!("{name}: {:?}", report.first_failure.map(|f| f.reasons)));
        }
    }
    assert!(failed.is_empty(), "combinations broke the oracle:\n{}", failed.join("\n"));
}

/// The self-test, fed as a recorded `.edcrr` log: emptying the journal
/// before cutting power must lose blocks, and the failing run must come
/// back as a log that replays bit-exactly.
#[test]
fn oracle_flags_a_torn_journal() {
    let spec = spec(false, false, false, 0);
    let mut ops = workload();
    let at = ops.last().map_or(0, |(t, _)| *t);
    ops.push((at, Op::TruncateJournal { shard: 0, bytes: 0 }));
    ops.push((at, Op::PowerCut));
    let mut store = spec.build();
    let mut rec = Recorder::new(spec);
    for (now, op) in &ops {
        let out = store.dispatch(*now, op);
        rec.record(*now, op, &out);
    }
    let log = parse_edcrr(rec.bytes()).expect("log parses");
    let report = cut_sweep_log(&log).expect("sweepable log");
    assert!(report.lost_blocks > 0, "an emptied journal must lose blocks: {report:?}");
    let failure = report.first_failure.expect("a failing run");
    let replay = Replayer::replay(&failure.log).expect("failure log parses");
    assert!(replay.is_exact(), "{:?}", replay.divergences);
}

#[test]
fn ambiguous_logs_are_refused() {
    let spec = spec(false, false, false, 0);
    let write = |block: u64| Op::Write { offset: block * BB, data: acgt_run(block, 1) };
    let rewrite = [(0, write(3)), (1, write(4)), (2, write(3))];
    assert_eq!(
        cut_sweep(&spec, &rewrite),
        Err(CutSweepError::RewriteWithoutFlush { index: 2, block: 3, previous: 0 })
    );
    assert!(cut_sweep(&spec, &[(0, write(3)), (1, Op::Flush), (2, write(3))]).is_ok());
    let recover = [(0, write(3)), (1, Op::Recover)];
    assert_eq!(
        cut_sweep(&spec, &recover),
        Err(CutSweepError::Unsupported { index: 1, op: "recover" })
    );
    let after_cut = [(0, write(3)), (1, Op::PowerCut), (2, write(9))];
    assert_eq!(
        cut_sweep(&spec, &after_cut),
        Err(CutSweepError::Unsupported { index: 2, op: "write" })
    );
}
