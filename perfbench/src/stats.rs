//! Engine counters, latency samples, and the estimators over them.

use std::time::Instant;

use spf::{Database, DbStats};

macro_rules! counts {
    ($($field:ident = |$s:ident| $e:expr;)*) => {
        /// Engine counters, taken from `Database::stats()` deltas.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counts { $(pub $field: u64),* }

        impl Counts {
            pub fn of(st: &DbStats) -> Self {
                Self { $($field: { let $s = st; $e }),* }
            }
            pub fn minus(self, o: Self) -> Self {
                Self { $($field: self.$field.saturating_sub(o.$field)),* }
            }
            pub fn plus(self, o: Self) -> Self {
                Self { $($field: self.$field + o.$field),* }
            }
        }
    };
}

counts! {
    dev_reads = |s| s.device.total_reads();
    dev_writes = |s| s.device.total_writes();
    dev_syncs = |s| s.device.syncs;
    hits = |s| s.pool.hits;
    misses = |s| s.pool.misses;
    evictions = |s| s.pool.evictions;
    write_backs = |s| s.pool.write_backs;
    node_visits = |s| s.tree.node_visits;
    descent_retries = |s| s.tree.descent_retries;
    splits = |s| s.tree.leaf_splits + s.tree.branch_splits;
    commits = |s| s.txn.user_commits;
    forces = |s| s.log.forces;
    absorbed = |s| s.log.force_waiters_absorbed;
    log_bytes = |s| s.log.bytes_appended;
    log_forced_bytes = |s| s.log.bytes_forced;
    log_records = |s| s.log.records_appended;
    recoveries = |s| s.spf.recoveries;
    escalations = |s| s.spf.escalations + s.pool.escalations;
    chain_records = |s| s.spf.chain_records_fetched + s.spf.archive_records_fetched;
    backup_reads = |s| s.backups.backup_reads;
    archive_bytes = |s| s.archive.bytes_written;
    pri_updates = |s| s.maintainer.pri_updates_logged;
    policy_backups = |s| s.maintainer.policy_backups;
    backup_writes = |s| s.backup_device.total_writes();
}

impl Counts {
    /// The counters' change while `f` runs.
    pub fn around<T>(db: &Database, f: impl FnOnce() -> T) -> (T, Self) {
        let before = Self::of(&db.stats());
        let value = f();
        (value, Self::of(&db.stats()).minus(before))
    }
}

/// Single-page recoveries so far.
pub fn recoveries(db: &Database) -> u64 {
    db.single_page_recovery()
        .map_or(0, |s| s.stats().recoveries)
}

pub fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

pub fn median_f(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Samples needed for ten beyond the `p`th percentile.
pub fn samples_for(p: f64) -> usize {
    (10.0 * 100.0 / (100.0 - p)).ceil() as usize
}

/// The process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency samples in groups: one group per timed round, or per
/// between-round step.
#[derive(Default)]
pub struct Samples {
    groups: Vec<Vec<u64>>,
}

impl Samples {
    pub fn start_group(&mut self) {
        self.groups.push(Vec::new());
    }

    pub fn push(&mut self, ns: u64) {
        match self.groups.last_mut() {
            Some(g) => g.push(ns),
            None => self.groups.push(vec![ns]),
        }
    }

    /// Adds `other`'s groups to this one's, group by group.
    pub fn merge(&mut self, other: Samples) {
        for (i, g) in other.groups.into_iter().enumerate() {
            match self.groups.get_mut(i) {
                Some(mine) => mine.extend(g),
                None => self.groups.push(g),
            }
        }
    }

    pub fn len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// The `p`th percentile in µs: the median over the groups of each
    /// group's percentile when every group holds ten samples beyond it,
    /// so that a host slowdown covering fewer than half the groups does
    /// not move it; otherwise over all samples pooled.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let groups: Vec<&Vec<u64>> = self.groups.iter().filter(|g| !g.is_empty()).collect();
        let at = |g: &[u64]| {
            let mut g = g.to_vec();
            g.sort_unstable();
            percentile(&g, p)
        };
        let ns = if !groups.is_empty() && groups.iter().all(|g| g.len() >= samples_for(p)) {
            median_f(&groups.iter().map(|g| at(g)).collect::<Vec<f64>>())
        } else {
            at(&self.groups.concat())
        };
        ns / 1e3
    }
}
