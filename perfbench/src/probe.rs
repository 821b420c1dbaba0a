//! Calls into single layers, timed as spans, and the work done between
//! timed rounds.

use std::hint::black_box;

use spf::{CorruptionMode, Database, FaultSpec, PageId};
use spf_storage::StorageDevice;

use crate::client::{ClientOut, Fail, Shared};
use crate::gen::{self, Rng, KEYS};
use crate::stats::{ns_between, recoveries, Samples};
use crate::trace::OpTrace;

/// Between rounds: gets of random keys, for a workload without reads.
const STEP_GETS: u64 = 10_000;
/// Between rounds: leaves corrupted and repaired, for a workload without
/// faults.
const STEP_REPAIRS: usize = 500;
/// Between rounds of a traced run: random keys whose layers are probed.
const STEP_PROBES: u64 = 50;

/// Calls each layer's public entry point on key `k` and its leaf page,
/// one span per call. Skips a page with an armed fault, whose read would
/// run a repair inside the probe.
pub fn probe(sh: &Shared, t: &mut OpTrace, buf: &mut [u8], k: u64, errors: &mut Vec<String>) {
    let db = sh.db;
    let leaf = sh.leaf_of[k as usize];
    if sh.spec.corrupt_every > 0 && db.device().injector().faulted_pages().contains(&leaf) {
        return;
    }
    let key = gen::key(k);
    match t.time("btree.get", || db.tree().get(&key)) {
        Ok(Some(_)) => {}
        other => errors.push(format!("probe btree.get key {k}: {other:?}")),
    }
    if db.pool().contains(leaf) {
        if let Err(e) = t.time("buffer.fetch_hit", || db.pool().fetch(leaf).map(drop)) {
            errors.push(format!("probe fetch {leaf}: {e}"));
        }
    }
    if db.pool().try_discard_clean(leaf) {
        if let Err(e) = t.time("buffer.fetch_miss", || db.pool().fetch(leaf).map(drop)) {
            errors.push(format!("probe fetch {leaf}: {e}"));
        }
    }
    if let Err(e) = t.time("storage.read_page", || db.device().read_page(leaf, buf)) {
        errors.push(format!("probe read {leaf}: {e}"));
    }
    t.time("util.crc32c", || {
        black_box(spf_util::crc32c(black_box(&*buf)))
    });
}

/// Runs single-page recovery again on the page the last repair fixed,
/// timing the recovery layer alone. The image is discarded.
pub fn shadow_repair(db: &Database, t: &mut OpTrace, errors: &mut Vec<String>) {
    let Some(spr) = db.single_page_recovery() else {
        return;
    };
    if let Some(&page) = spr.bad_blocks().last() {
        if let Err(e) = t.time("recovery.recover_page", || spr.recover_page(page)) {
            errors.push(format!("probe recover_page {page}: {e}"));
        }
    }
}

/// Latencies measured between the timed rounds.
#[derive(Default)]
pub struct StepOut {
    /// Operations done, each checked by the oracle.
    pub ops: u64,
    pub gets: Samples,
    pub repairs: Samples,
}

/// Work done between two timed rounds, with the clients paused, for the
/// figures a workload's own operations do not produce: gets of random
/// keys for a workload without reads, and repairs of freshly corrupted
/// leaves (written back and dropped from the pool first) for a workload
/// without faults. Spread over the whole timed phase, these samples see
/// the same host as the rounds do. A traced run also probes each layer
/// on random keys here.
pub fn probe_step(
    sh: &Shared,
    leaf_keys: &[(PageId, u64)],
    rng: &mut Rng,
    trace: bool,
    out: &mut ClientOut,
    step: &mut StepOut,
) {
    let db = sh.db;
    let mut errors = Vec::new();
    if sh.spec.get_pct == 0 {
        step.gets.start_group();
        for _ in 0..STEP_GETS {
            let (t0, t1) = sh.checked_get(rng.below(KEYS), out);
            step.gets.push(ns_between(t0, t1));
            step.ops += 1;
        }
    }
    if sh.spec.corrupt_every == 0 {
        step.repairs.start_group();
        let mut repaired = 0;
        for _ in 0..2 * STEP_REPAIRS {
            if repaired == STEP_REPAIRS {
                break;
            }
            let (leaf, k) = leaf_keys[rng.below(leaf_keys.len() as u64) as usize];
            // Write the leaf back first, so that a dirty one can go too.
            if let Err(e) = db.pool().flush_page(leaf) {
                errors.push(format!("flush {leaf}: {e}"));
                continue;
            }
            if !db.pool().try_discard_clean(leaf) {
                continue;
            }
            repaired += 1;
            let mode = match rng.below(2) {
                0 => CorruptionMode::BitRot { bits: 8 },
                _ => CorruptionMode::ZeroPage,
            };
            db.inject_fault(leaf, FaultSpec::SilentCorruption(mode));
            let before = recoveries(db);
            let (t0, t1) = sh.checked_get(k, out);
            step.ops += 1;
            if recoveries(db) == before {
                out.fail(Fail::Error(format!(
                    "corrupted {leaf} was read without a repair"
                )));
                continue;
            }
            step.repairs.push(ns_between(t0, t1));
            if trace {
                let op = (0xFFFF << 48) | step.ops;
                let mut t = OpTrace::open_at(&mut out.spans, sh.epoch, op, "op.get", "probe", t0);
                t.record("core.get", t0, t1);
                shadow_repair(db, &mut t, &mut errors);
            }
        }
    }
    if trace {
        let mut buf = vec![0u8; db.config().page_size];
        for _ in 0..STEP_PROBES {
            let k = rng.below(KEYS);
            let (t0, t1) = sh.checked_get(k, out);
            step.ops += 1;
            let op = (0xFFFF << 48) | step.ops;
            let mut t = OpTrace::open_at(&mut out.spans, sh.epoch, op, "op.get", "probe", t0);
            t.record("core.get", t0, t1);
            probe(sh, &mut t, &mut buf, k, &mut errors);
        }
    }
    for e in errors {
        out.fail(Fail::Error(e));
    }
}
