//! Property tests over the fault-injection + crash-recovery subsystem,
//! on the in-tree harness (`edc_datagen::proptest`):
//!
//! 1. A power cut at *every* page-program index of a random workload
//!    loses no journaled run: [`cut_sweep`] recovers after each cut,
//!    pins every block to the exact legal post-cut state, and checks
//!    the store is writable again.
//! 2. Arbitrary read-fault plans (transient read errors, bit rot, tiny
//!    retry budgets) surface as typed `ReadError`s and never panic.

use edc_core::pipeline::{EdcPipeline, PipelineConfig};
use edc_core::{cut_sweep, Op, OpOutput, Store, StoreSpec};
use edc_datagen::proptest::cases;
use edc_datagen::rng::Rng64;
use edc_flash::FaultPlan;

const BB: u64 = 4096;

/// A 4 KiB block: compressible (small alphabet) or incompressible
/// (arbitrary bytes), so runs exercise both codec and write-through paths.
fn gen_block(rng: &mut Rng64) -> Vec<u8> {
    let mut b = vec![0u8; BB as usize];
    if rng.chance(0.7) {
        for byte in &mut b {
            *byte = b'a' + rng.below(6) as u8;
        }
    } else {
        rng.fill_bytes(&mut b);
    }
    b
}

/// Rounds of block writes, as a timestamped op log. Each block is
/// written at most once per round and every round ends in a flush, so
/// the log is one [`cut_sweep`] accepts.
fn gen_workload(rng: &mut Rng64) -> Vec<(u64, Op)> {
    let n = rng.range_u64(4, 12);
    let stride = rng.range_u64(1, 4);
    let mut ops: Vec<Op> =
        (0..n).map(|i| Op::Write { offset: i * stride * BB, data: gen_block(rng) }).collect();
    ops.push(Op::Flush);
    // Round 2 rewrites a random subset with fresh payloads.
    for i in 0..n {
        if rng.chance(0.5) {
            ops.push(Op::Write { offset: i * stride * BB, data: gen_block(rng) });
        }
    }
    ops.push(Op::Flush);
    ops.into_iter().enumerate().map(|(i, op)| (i as u64 * 1_000_000, op)).collect()
}

/// Power cut at every program index: everything journaled reads back
/// exactly, nothing superseded comes back, and the store accepts writes
/// again after recovery.
#[test]
fn power_cut_anywhere_recovers_every_journaled_run() {
    cases(24).run("power_cut_anywhere_recovers_every_journaled_run", |rng| {
        let spec = StoreSpec { capacity_bytes: 8 << 20, ..StoreSpec::default() };
        let report = cut_sweep(&spec, &gen_workload(rng)).expect("sweepable workload");
        assert!(report.cut_points > 0, "workload must program pages");
        assert!(report.passed(), "{:?}", report.first_failure.map(|f| (f.k, f.reasons)));
    });
}

/// Random read-fault plans never panic: every read returns `Ok` bytes of
/// the right length or a typed `ReadError`.
#[test]
fn read_faults_never_panic_under_random_plans() {
    cases(24).run("read_faults_never_panic_under_random_plans", |rng| {
        let workload = gen_workload(rng);
        // cache_runs: 0 so every read touches the (faulty) device.
        let mut p = EdcPipeline::new(
            8 << 20,
            PipelineConfig { cache_runs: 0, ..PipelineConfig::default() },
        );
        let mut blocks = Vec::new();
        for (now, op) in &workload {
            if let Op::Write { offset, .. } = op {
                blocks.push(offset / BB);
            }
            assert!(!matches!(p.dispatch(*now, op), OpOutput::Err(_)), "clean write phase");
        }

        p.set_fault_plan(FaultPlan {
            seed: rng.next_u64(),
            read_error_rate: rng.f64(),
            bit_rot_rate: rng.f64() * rng.f64(), // bias toward small rates
            read_retries: rng.below(3) as u32,
            allow_degraded_reads: rng.chance(0.3),
            ..FaultPlan::none()
        });

        for i in 0..40u64 {
            let block = blocks[(i as usize * 7 + rng.below_usize(blocks.len())) % blocks.len()];
            match p.read(i, block * BB, BB) {
                Ok(data) => assert_eq!(data.len(), BB as usize),
                Err(e) => {
                    // Typed, descriptive, and non-panicking is the contract.
                    assert!(!format!("{e:?}").is_empty());
                }
            }
        }
    });
}
