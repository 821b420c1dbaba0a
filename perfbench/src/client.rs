//! Closed-loop clients and the correctness oracle their reads go through.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use spf::{CorruptionMode, Database, DbError, FaultSpec, PageId};

use crate::gen::{self, Rng, Zipf, KEYS};
use crate::probe::{probe, shadow_repair};
use crate::stats::{ns_between, recoveries, Samples};
use crate::trace::{OpTrace, Span};
use crate::Spec;

/// In a traced round, every Nth operation of a client is probed.
const SAMPLE_EVERY: u64 = 32;
/// Lock-conflict retries before a put counts as failed.
const MAX_LOCK_RETRIES: u32 = 100_000;

/// State shared by the clients of one run.
pub struct Shared<'a> {
    pub db: &'a Database,
    pub spec: &'a Spec,
    /// Last acknowledged generation per key.
    pub acked: &'a [AtomicU32],
    /// Highest generation ever submitted per key: a read may also see a
    /// write still in flight, never one beyond this.
    pub attempted: &'a [AtomicU32],
    pub leaves: &'a [PageId],
    pub leaf_of: &'a [PageId],
    pub zipf: Option<&'a Zipf>,
    /// Span times count from here.
    pub epoch: Instant,
}

impl Shared<'_> {
    /// Reads key `k` and checks the value against the oracle. Returns the
    /// read's start and end.
    pub fn checked_get(&self, k: u64, out: &mut ClientOut) -> (Instant, Instant) {
        let floor = self.acked[k as usize].load(Ordering::Acquire);
        let t0 = Instant::now();
        let got = self.db.get(&gen::key(k));
        let t1 = Instant::now();
        let ceil = self.attempted[k as usize].load(Ordering::Acquire);
        if let Err(f) = check_read(k, got, floor, ceil) {
            out.fail(f);
        }
        (t0, t1)
    }
}

pub enum Fail {
    /// A read returned a value the oracle rejects.
    Wrong(String),
    /// An operation returned an error other than a retried lock conflict.
    Error(String),
}

/// What one client (or the between-round steps) did and measured.
#[derive(Default)]
pub struct ClientOut {
    pub gets: u64,
    pub puts: u64,
    /// Gets during which single-page recovery ran.
    pub repairs: u64,
    pub get_ns: Samples,
    pub put_ns: Samples,
    pub repair_get_ns: Samples,
    pub conflicts: u64,
    pub failed: u64,
    pub wrong: u64,
    pub errors: Vec<String>,
    pub cycle_ns: Vec<u64>,
    pub spans: Vec<Span>,
}

impl ClientOut {
    pub fn fail(&mut self, f: Fail) {
        self.failed += 1;
        let msg = match f {
            Fail::Wrong(m) => {
                self.wrong += 1;
                format!("wrong value: {m}")
            }
            Fail::Error(m) => m,
        };
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn merge(&mut self, o: ClientOut) {
        self.gets += o.gets;
        self.puts += o.puts;
        self.repairs += o.repairs;
        self.get_ns.merge(o.get_ns);
        self.put_ns.merge(o.put_ns);
        self.repair_get_ns.merge(o.repair_get_ns);
        self.conflicts += o.conflicts;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.errors.extend(o.errors);
        self.cycle_ns.extend(o.cycle_ns);
        self.spans.extend(o.spans);
    }
}

pub struct Client {
    pub id: usize,
    rng: Rng,
    faults: Rng,
    ops: u64,
    buf: Vec<u8>,
    pub out: ClientOut,
}

impl Client {
    pub fn new(id: usize, seed: u64, page_size: usize) -> Self {
        Self {
            id,
            rng: Rng::stream(seed, id as u64),
            faults: Rng::stream(seed, 100 + id as u64),
            ops: 0,
            buf: vec![0u8; page_size],
            out: ClientOut::default(),
        }
    }

    fn op_id(&self) -> u64 {
        ((self.id as u64) << 48) | self.ops
    }
}

/// One client's share of a round: `n` operations in a closed loop.
pub fn run_ops(sh: &Shared, c: &mut Client, n: u64, traced: bool) {
    if !traced {
        c.out.get_ns.start_group();
        c.out.put_ns.start_group();
        c.out.repair_get_ns.start_group();
    }
    for i in 0..n {
        c.ops += 1;
        // One maintenance cycle per round, halfway through client 0's
        // share, so that every round does the same work.
        if sh.spec.maintain && c.id == 0 && i == n / 2 {
            let op = c.op_id();
            match maintenance_cycle(sh.db, &mut c.out.spans, sh.epoch, op, "timed") {
                Ok(ns) => c.out.cycle_ns.push(ns),
                Err(e) => c.out.fail(Fail::Error(e)),
            }
        }
        if sh.spec.corrupt_every > 0 && c.id == 0 && c.ops.is_multiple_of(sh.spec.corrupt_every) {
            arm_fault(sh, c);
        }
        let sampled = traced && c.ops.is_multiple_of(SAMPLE_EVERY);
        let is_get = c.rng.below(100) < sh.spec.get_pct;
        let k = match sh.zipf {
            Some(z) => z.next(&mut c.rng),
            None => c.rng.below(KEYS),
        };
        if is_get {
            get_op(sh, c, k, traced, sampled);
        } else {
            put_op(sh, c, owned(k, c.id, sh.spec.clients), traced, sampled);
        }
    }
}

/// Writers own disjoint keys (key index mod clients), so each key's
/// generations come from one writer and the oracle is exact.
fn owned(k: u64, client: usize, clients: usize) -> u64 {
    let c = clients as u64;
    let k = k - k % c + client as u64;
    if k >= KEYS {
        k - c
    } else {
        k
    }
}

fn arm_fault(sh: &Shared, c: &mut Client) {
    let page = sh.leaves[c.faults.below(sh.leaves.len() as u64) as usize];
    let mode = match c.faults.below(3) {
        0 => CorruptionMode::BitRot { bits: 8 },
        1 => CorruptionMode::ZeroPage,
        _ => CorruptionMode::StaleVersion,
    };
    sh.db.inject_fault(page, FaultSpec::SilentCorruption(mode));
}

/// The oracle: a read must decode to its own key, at a generation no
/// older than the last acknowledged and no newer than the last submitted.
pub fn check_read(
    k: u64,
    got: Result<Option<Vec<u8>>, DbError>,
    floor: u32,
    ceil: u32,
) -> Result<(), Fail> {
    let v = match got {
        Ok(Some(v)) => v,
        Ok(None) => return Err(Fail::Wrong(format!("key {k} is missing"))),
        Err(e) => return Err(Fail::Error(format!("get key {k}: {e}"))),
    };
    let g = gen::decode(k, &v).map_err(Fail::Wrong)?;
    if g < floor || g > ceil {
        return Err(Fail::Wrong(format!(
            "key {k}: generation {g} outside acknowledged..submitted [{floor}, {ceil}]"
        )));
    }
    Ok(())
}

fn get_op(sh: &Shared, c: &mut Client, k: u64, traced: bool, sampled: bool) {
    // Only the single-client repair workload checks for repairs: the
    // recovery stats sit behind one mutex the hot path should not share.
    let track = sh.spec.corrupt_every > 0;
    let before = if track { recoveries(sh.db) } else { 0 };
    let (t0, t1) = sh.checked_get(k, &mut c.out);
    let repaired = track && recoveries(sh.db) != before;
    c.out.gets += 1;
    c.out.repairs += u64::from(repaired);
    if !traced {
        match repaired {
            true => c.out.repair_get_ns.push(ns_between(t0, t1)),
            false => c.out.get_ns.push(ns_between(t0, t1)),
        }
    } else if sampled || repaired {
        let op = c.op_id();
        let mut t = OpTrace::open_at(&mut c.out.spans, sh.epoch, op, "op.get", "timed", t0);
        t.record("core.get", t0, t1);
        let mut errors = Vec::new();
        if repaired {
            shadow_repair(sh.db, &mut t, &mut errors);
        }
        if sampled {
            probe(sh, &mut t, &mut c.buf, k, &mut errors);
        }
        drop(t);
        for e in errors {
            c.out.fail(Fail::Error(e));
        }
    }
}

fn put_op(sh: &Shared, c: &mut Client, k: u64, traced: bool, sampled: bool) {
    let key = gen::key(k);
    let generation = sh.attempted[k as usize].load(Ordering::Relaxed) + 1;
    sh.attempted[k as usize].store(generation, Ordering::Release);
    let value = gen::value(k, generation);
    let t0 = Instant::now();
    let mut errors = Vec::new();
    let result = if sampled {
        let op = c.op_id();
        let mut t = OpTrace::open_at(&mut c.out.spans, sh.epoch, op, "op.put", "timed", t0);
        let r = explicit_put(sh.db, &mut t, &key, &value, &mut c.out.conflicts);
        if r.is_ok() {
            probe(sh, &mut t, &mut c.buf, k, &mut errors);
        }
        r
    } else {
        put_auto_retrying(sh.db, &key, &value, &mut c.out.conflicts)
    };
    let ns = ns_between(t0, Instant::now());
    c.out.puts += 1;
    for e in errors {
        c.out.fail(Fail::Error(e));
    }
    match result {
        Ok(()) => {
            sh.acked[k as usize].store(generation, Ordering::Release);
            if !traced {
                c.out.put_ns.push(ns);
            }
        }
        Err(e) => c.out.fail(Fail::Error(format!("put key {k}: {e}"))),
    }
}

/// `put_auto`, retried on a lock conflict from the no-wait lock table.
pub fn put_auto_retrying(
    db: &Database,
    key: &[u8],
    value: &[u8],
    conflicts: &mut u64,
) -> Result<(), DbError> {
    let mut retries = 0;
    loop {
        match db.put_auto(key, value) {
            Err(DbError::Locked(_)) if retries < MAX_LOCK_RETRIES => {
                retries += 1;
                *conflicts += 1;
                std::thread::yield_now();
            }
            other => return other.map(|_| ()),
        }
    }
}

/// `put_auto` spelled out as begin–put–commit, so the traced run can
/// time the transaction layer's two calls.
fn explicit_put(
    db: &Database,
    t: &mut OpTrace,
    key: &[u8],
    value: &[u8],
    conflicts: &mut u64,
) -> Result<(), DbError> {
    let mut retries = 0;
    loop {
        let tx = db.begin();
        match t.time("txn.put", || db.put(tx, key, value)) {
            Ok(_) => return t.time("txn.commit", || db.commit(tx)).map(|_| ()),
            Err(e) => {
                let _ = db.abort(tx);
                match e {
                    DbError::Locked(_) if retries < MAX_LOCK_RETRIES => {
                        retries += 1;
                        *conflicts += 1;
                        std::thread::yield_now();
                    }
                    e => return Err(e),
                }
            }
        }
    }
}

/// One maintenance cycle: checkpoint, archive the durable log, truncate
/// the WAL. Returns its nanoseconds.
pub fn maintenance_cycle(
    db: &Database,
    spans: &mut Vec<Span>,
    epoch: Instant,
    op: u64,
    phase: &'static str,
) -> Result<u64, String> {
    let t0 = Instant::now();
    let mut t = OpTrace::open_at(spans, epoch, op, "archive.cycle", phase, t0);
    t.time("archive.checkpoint", || db.checkpoint())
        .map_err(|e| format!("checkpoint: {e}"))?;
    t.time("archive.archive_now", || db.archive_now())
        .map_err(|e| format!("archive_now: {e}"))?;
    t.time("archive.truncate_wal", || db.truncate_wal())
        .map_err(|e| format!("truncate_wal: {e}"))?;
    Ok(ns_between(t0, Instant::now()))
}
