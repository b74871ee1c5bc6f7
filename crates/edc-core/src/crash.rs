//! The crash-consistency oracle: [`cut_sweep`] cuts power at every page
//! program of an op log and checks exactly what recovery brings back.
//!
//! A sweep runs the log once uncut, keeping every [`OpOutput`]. Then, for
//! `k = 0, 1, 2, …`, it rebuilds the store with
//! `fault.power_cut_after_programs = Some(k)` and dispatches ops until
//! one fails or the log's own final [`Op::PowerCut`] lands. At each cut
//! it recovers, reads back every block the log wrote, audits the store
//! and round-trips a fresh block. Budgets are per shard, so the sweep
//! stops at the first `k` where no cut fires; that run must match the
//! uncut pass output for output.
//!
//! A block must hold the value of the last [`WriteResult`] covering it
//! from an op that returned (zero if none), plus, *per shard*, some
//! prefix of the cutting op's uncut results applied in order: a drain
//! commits serially in seal order, so no other state is legal. Which
//! bytes a result commits is unambiguous because the sweep refuses a log
//! that rewrites a block with no [`Op::Flush`] since its previous write.
//!
//! [`WriteResult`]: crate::pipeline::WriteResult

use crate::error::{EdcError, WriteError};
use crate::pipeline::ReadError;
use crate::record::{ParsedLog, Recorder, StoreSpec};
use crate::scheme::BLOCK_BYTES;
use crate::shard::route;
use crate::store::{Op, OpOutput, Store};
use edc_compress::checksum64;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Why [`cut_sweep`] refused a log before sweeping it.
#[derive(Debug, Clone, PartialEq)]
pub enum CutSweepError {
    /// The spec cannot be built (see [`StoreSpec::validate`]).
    BadSpec(String),
    /// Op `index` rewrites `block` with no flush since op `previous`
    /// wrote it, so which bytes a later result commits is ambiguous.
    RewriteWithoutFlush {
        /// Index of the rewriting op.
        index: usize,
        /// The 4 KiB block written twice.
        block: u64,
        /// Index of the earlier write.
        previous: usize,
    },
    /// Op `index` cannot be swept: `Recover` and `SetFaultPlan` disarm
    /// the injected cut, and nothing may follow a `PowerCut`.
    Unsupported {
        /// Index of the op.
        index: usize,
        /// Its [`Op::kind`].
        op: &'static str,
    },
    /// The uncut pass failed at op `index` with `error`.
    CleanPassFailed {
        /// Index of the failing op.
        index: usize,
        /// The rendered error.
        error: String,
    },
}

impl std::fmt::Display for CutSweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op log cannot be swept: {self:?}")
    }
}

impl std::error::Error for CutSweepError {}

/// A run that broke the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct CutFailure {
    /// Its `power_cut_after_programs` budget.
    pub k: u64,
    /// Every violation seen, rendered.
    pub reasons: Vec<String>,
    /// The run as a `.edcrr` log — the ops up to the cut, then the
    /// oracle's own recover, read-back, audit and round-trip ops.
    pub log: Vec<u8>,
}

/// What a [`cut_sweep`] found.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CutReport {
    /// Outputs of the uncut pass, one per op.
    pub clean: Vec<OpOutput>,
    /// Cut points that fired (injected budgets plus a final `PowerCut`).
    pub cut_points: u64,
    /// Block read-backs checked across all cut points.
    pub blocks_checked: u64,
    /// Blocks that read back a value no legal commit order allows.
    pub lost_blocks: u64,
    /// Summed [`crate::pipeline::RecoveryReport::payload_mismatches`].
    pub payload_mismatches: u64,
    /// Summed [`crate::pipeline::RecoveryReport::replayed_runs`].
    pub recovered_runs: u64,
    /// Wall time of every `Recover`, summed, ns.
    pub recovery_ns_sum: u64,
    /// Worst single `Recover`, ns.
    pub recovery_ns_max: u64,
    /// Runs (cut or final) that broke the oracle.
    pub failures: u64,
    /// The first of them.
    pub first_failure: Option<CutFailure>,
}

impl CutReport {
    /// True when every cut recovered exactly and the final run matched.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Sweep a power cut across every page program of `ops` on stores built
/// from `spec` (whose own `power_cut_after_programs` is ignored).
pub fn cut_sweep(spec: &StoreSpec, ops: &[(u64, Op)]) -> Result<CutReport, CutSweepError> {
    let oracle = Oracle::new(spec, ops)?;
    let mut report = CutReport { clean: oracle.clean.clone(), ..CutReport::default() };
    for k in 0.. {
        let (injected, reasons, log) = oracle.run(k, &mut report);
        if !reasons.is_empty() {
            report.failures += 1;
            report.first_failure.get_or_insert(CutFailure { k, reasons, log });
        }
        // A budget past the uncut pass's programs cannot fire; if it
        // does, the run above has already failed.
        if !injected || k > oracle.clean_programs {
            break;
        }
    }
    Ok(report)
}

/// [`cut_sweep`] over a parsed `.edcrr` log.
pub fn cut_sweep_log(log: &ParsedLog) -> Result<CutReport, CutSweepError> {
    let ops: Vec<(u64, Op)> = log.records.iter().map(|r| (r.now_ns, r.op.clone())).collect();
    cut_sweep(&log.spec, &ops)
}

/// The run [`cut_sweep`] makes at budget `k`, as a `.edcrr` log that
/// replays bit-exactly.
pub fn record_cut(spec: &StoreSpec, ops: &[(u64, Op)], k: u64) -> Result<Vec<u8>, CutSweepError> {
    Ok(Oracle::new(spec, ops)?.run(k, &mut CutReport::default()).2)
}

/// `checksum64` of one 4 KiB block — what an [`OpOutput::Read`] of it
/// carries.
type Sum = u64;

/// Blocks one uncut-pass result made durable, with their content.
struct Commit {
    shard: usize,
    blocks: Vec<(u64, Sum)>,
}

/// The log plus the durable-state model derived from its uncut pass.
struct Oracle<'a> {
    spec: StoreSpec,
    ops: &'a [(u64, Op)],
    clean: Vec<OpOutput>,
    clean_programs: u64,
    /// Per op, what each of its uncut-pass results committed.
    commits: Vec<Vec<Commit>>,
    /// Every block any op writes or any result commits.
    written: BTreeSet<u64>,
    /// Timestamp of the oracle's own ops: after every logged one.
    check_ns: u64,
    /// An all-zero block (never written or never committed).
    zero: Sum,
}

impl<'a> Oracle<'a> {
    fn new(spec: &StoreSpec, ops: &'a [(u64, Op)]) -> Result<Self, CutSweepError> {
        spec.validate().map_err(CutSweepError::BadSpec)?;
        check_sweepable(ops)?;
        let mut spec = *spec;
        spec.fault.power_cut_after_programs = None;
        let mut store = spec.build();
        let mut clean = Vec::with_capacity(ops.len());
        for (index, (now, op)) in ops.iter().enumerate() {
            match store.dispatch(*now, op) {
                OpOutput::Err(error) => {
                    return Err(CutSweepError::CleanPassFailed { index, error });
                }
                out => clean.push(out),
            }
        }
        let clean_programs = store.stats().programs;

        let zero = checksum64(&[0u8; BLOCK_BYTES as usize], BLOCK_BYTES);
        let mut latest: HashMap<u64, Sum> = HashMap::new();
        let mut written = BTreeSet::new();
        let mut commits: Vec<Vec<Commit>> = Vec::with_capacity(ops.len());
        for ((_, op), out) in ops.iter().zip(&clean) {
            for (offset, data) in op_writes(op) {
                for (j, block) in data.chunks(BLOCK_BYTES as usize).enumerate() {
                    let b = offset / BLOCK_BYTES + j as u64;
                    latest.insert(b, checksum64(block, BLOCK_BYTES));
                    written.insert(b);
                }
            }
            let results: &[_] = if let OpOutput::Writes(rs) = out { rs } else { &[] };
            let commit = |r: &crate::pipeline::WriteResult| Commit {
                shard: match spec.shards {
                    0 => 0,
                    n => route(r.start_block, spec.extent_blocks, n as usize),
                },
                blocks: (r.start_block..r.start_block + u64::from(r.blocks))
                    .map(|b| (b, latest.get(&b).copied().unwrap_or(zero)))
                    .collect(),
            };
            commits.push(results.iter().map(commit).collect());
        }
        written.extend(commits.iter().flatten().flat_map(|cm| cm.blocks.iter().map(|(b, _)| *b)));
        let check_ns = ops.iter().map(|(t, _)| *t).max().unwrap_or(0).saturating_add(1);
        Ok(Oracle { spec, ops, clean, clean_programs, commits, written, check_ns, zero })
    }

    /// Run the log at budget `k`, recording every op, and check the store
    /// at the cut into `report`. Returns whether the injected cut fired,
    /// the violations seen, and the recorded log.
    fn run(&self, k: u64, report: &mut CutReport) -> (bool, Vec<String>, Vec<u8>) {
        let mut spec = self.spec;
        spec.fault.power_cut_after_programs = Some(k);
        let mut d = Driver { store: spec.build(), rec: Recorder::new(spec) };
        let (mut injected, mut reasons, mut cut) = (false, Vec::new(), None);
        for (i, (now, op)) in self.ops.iter().enumerate() {
            let out = d.apply(*now, op);
            if matches!(op, Op::PowerCut) {
                cut = Some(i);
                break;
            }
            if matches!(out, OpOutput::Err(_)) || !d.store.powered() {
                let cut_error = EdcError::from(WriteError::PowerCut { after_programs: k });
                if out != OpOutput::Err(cut_error.to_string()) {
                    reasons.push(format!("op #{i} ({}) at the cut returned {out:?}", op.kind()));
                }
                (injected, cut) = (true, Some(i));
                break;
            }
            let clean = &self.clean[i];
            if out != *clean {
                reasons.push(format!("op #{i} returned {out:?}, uncut pass {clean:?}"));
            }
        }
        if let Some(c) = cut {
            report.cut_points += 1;
            self.check(&mut d, c, report, &mut reasons);
        }
        (injected, reasons, d.rec.into_bytes())
    }

    /// Recover after a cut during op `c` and hold the store to the model.
    fn check(&self, d: &mut Driver, c: usize, report: &mut CutReport, why: &mut Vec<String>) {
        let t = self.check_ns;
        // A plain store refuses all I/O until it recovers. (A sharded one
        // keeps serving its powered shards, where a flush would commit.)
        if self.spec.shards == 0 {
            let outs =
                [d.apply(t, &Op::Flush), d.apply(t, &Op::Read { offset: 0, len: BLOCK_BYTES })];
            let offline =
                [EdcError::from(WriteError::Offline).to_string(), ReadError::Offline.to_string()];
            if outs != offline.map(OpOutput::Err) {
                why.push(format!("store not offline after a cut during op #{c}: {outs:?}"));
            }
        }
        let t0 = Instant::now();
        let out = d.apply(t, &Op::Recover);
        let ns = t0.elapsed().as_nanos() as u64;
        report.recovery_ns_sum += ns;
        report.recovery_ns_max = report.recovery_ns_max.max(ns);
        match out {
            OpOutput::Recovery(r) => {
                report.recovered_runs += r.replayed_runs;
                report.payload_mismatches += r.payload_mismatches;
                if r.payload_mismatches > 0 || r.torn_tail {
                    why.push(format!("recovery after op #{c}: {r:?}"));
                }
            }
            other => why.push(format!("recovery after op #{c}: {other:?}")),
        }

        let mut got = HashMap::new();
        for &b in &self.written {
            let out = d.apply(t, &Op::Read { offset: b * BLOCK_BYTES, len: BLOCK_BYTES });
            got.insert(b, read_sum(&out));
        }
        let lost = self.lost_blocks(c, &got);
        report.blocks_checked += got.len() as u64;
        report.lost_blocks += lost;
        if lost > 0 {
            why.push(format!("{lost} block(s) lost at a cut during op #{c}"));
        }

        match d.apply(t, &Op::Verify) {
            OpOutput::Scrub(r) if r.unrecoverable == 0 => {}
            other => why.push(format!("audit after recovery: {other:?}")),
        }
        if self.spec.dedup {
            if let other @ OpOutput::Err(_) = d.apply(t, &Op::VerifyDedup) {
                why.push(format!("dedup ledger after recovery: {other:?}"));
            }
        }
        // The recovered store takes writes again.
        let fresh =
            (0..).find(|b| !self.written.contains(b)).expect("finitely many blocks written");
        let offset = fresh * BLOCK_BYTES;
        let data: Vec<u8> = b"cut_sweep fresh block ".iter().copied().cycle().take(4096).collect();
        let outs = [
            d.apply(t, &Op::Write { offset, data: data.clone() }),
            d.apply(t, &Op::Flush),
            d.apply(t, &Op::Read { offset, len: BLOCK_BYTES }),
        ];
        if read_sum(&outs[2]) != Some(checksum64(&data, BLOCK_BYTES)) {
            why.push(format!("fresh block at {offset} after recovery: {outs:?}"));
        }
    }

    /// Blocks in `got` that no legal post-cut state explains: everything
    /// committed before op `c`, plus per shard the best-matching prefix
    /// of op `c`'s commits.
    fn lost_blocks(&self, c: usize, got: &HashMap<u64, Option<Sum>>) -> u64 {
        let misses = |state: &HashMap<u64, Sum>| {
            state.iter().filter(|(b, sum)| got.get(b).copied().flatten() != Some(**sum)).count()
        };
        let mut base: HashMap<u64, Sum> = self.written.iter().map(|&b| (b, self.zero)).collect();
        for commit in self.commits[..c].iter().flatten() {
            base.extend(commit.blocks.iter().copied());
        }
        let mut lost = misses(&base);
        let shards: BTreeSet<usize> = self.commits[c].iter().map(|cm| cm.shard).collect();
        for shard in shards {
            let commits = self.commits[c].iter().filter(|cm| cm.shard == shard);
            let mut state: HashMap<u64, Sum> = commits
                .clone()
                .flat_map(|cm| &cm.blocks)
                .map(|(b, _)| (*b, base.get(b).copied().unwrap_or(self.zero)))
                .collect();
            let before = misses(&state);
            let mut best = before;
            for commit in commits {
                state.extend(commit.blocks.iter().copied());
                best = best.min(misses(&state));
            }
            lost -= before - best;
        }
        lost as u64
    }
}

/// A store whose every op is recorded.
struct Driver {
    store: Box<dyn Store>,
    rec: Recorder,
}

impl Driver {
    fn apply(&mut self, now_ns: u64, op: &Op) -> OpOutput {
        let out = self.store.dispatch(now_ns, op);
        self.rec.record(now_ns, op, &out);
        out
    }
}

/// Refuse logs the model cannot pin exactly.
fn check_sweepable(ops: &[(u64, Op)]) -> Result<(), CutSweepError> {
    let mut unflushed: HashMap<u64, usize> = HashMap::new();
    for (index, (_, op)) in ops.iter().enumerate() {
        let after_cut = index > 0 && ops[index - 1].1 == Op::PowerCut;
        if after_cut || matches!(op, Op::Recover | Op::SetFaultPlan(_)) {
            return Err(CutSweepError::Unsupported { index, op: op.kind() });
        }
        if *op == Op::Flush {
            unflushed.clear();
        }
        for (offset, data) in op_writes(op) {
            for j in 0..data.len() as u64 / BLOCK_BYTES {
                let block = offset / BLOCK_BYTES + j;
                if let Some(previous) = unflushed.insert(block, index) {
                    return Err(CutSweepError::RewriteWithoutFlush { index, block, previous });
                }
            }
        }
    }
    Ok(())
}

/// The `(offset, data)` writes an op carries.
fn op_writes(op: &Op) -> Vec<(u64, &[u8])> {
    match op {
        Op::Write { offset, data } => vec![(*offset, data.as_slice())],
        Op::WriteBatch { writes } => writes.iter().map(|(o, d)| (*o, d.as_slice())).collect(),
        _ => Vec::new(),
    }
}

fn read_sum(out: &OpOutput) -> Option<Sum> {
    match out {
        OpOutput::Read { len, checksum } if *len == BLOCK_BYTES => Some(*checksum),
        _ => None,
    }
}
