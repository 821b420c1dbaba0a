//! # spf-bench
//!
//! Shared helpers for the experiment harness (`experiments` binary) and
//! the criterion micro-benchmarks: engine setup shorthands, deterministic
//! loading, and plain-text table rendering for paper-style output.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use spf::{Database, DatabaseConfig, PageId, TxId};

/// Standard key encoding used across experiments.
pub fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

/// Standard value encoding (generation-stamped).
pub fn val(i: u64, gen: u64) -> Vec<u8> {
    format!("value-{i:08}-gen{gen:04}").into_bytes()
}

/// Loads keys `[0, n)` in one committed transaction.
pub fn load(db: &Database, n: u64) {
    let tx = db.begin();
    for i in 0..n {
        db.insert(tx, &key(i), &val(i, 0)).unwrap();
    }
    db.commit(tx).unwrap();
}

/// Updates keys `[0, n)` with generation `gen` in one transaction.
pub fn update_all(db: &Database, n: u64, gen: u64) {
    let tx = db.begin();
    for i in 0..n {
        db.put(tx, &key(i), &val(i, gen)).unwrap();
    }
    db.commit(tx).unwrap();
}

/// Reads every key, asserting presence; returns how many reads were done.
pub fn read_all(db: &Database, n: u64) -> u64 {
    for i in 0..n {
        assert!(db.get(&key(i)).unwrap().is_some(), "key {i} lost");
    }
    n
}

/// A new engine with defaults overridden by `f`.
pub fn engine(f: impl FnOnce(&mut DatabaseConfig)) -> Database {
    let mut config = DatabaseConfig::default();
    f(&mut config);
    Database::create(config).expect("create database")
}

/// Runs `work(0) .. work(workers - 1)` on scoped threads released
/// together once all have started, and returns the wall time from the
/// release until the last worker has finished.
///
/// The run is timed through the workers' join handles, not a closing
/// barrier, so a worker that returns `Err` or panics cannot leave the
/// caller blocked: every worker is joined, then the first failure comes
/// back as `Err` (a panic as its message). The start gate is a lock the
/// caller holds while spawning, which a panic on its side releases too.
pub fn timed_workers<F>(workers: usize, work: F) -> Result<Duration, String>
where
    F: Fn(usize) -> Result<(), String> + Sync,
{
    let gate = RwLock::new(());
    let started = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let hold = gate.write().expect("fresh lock is not poisoned");
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (gate, started, work) = (&gate, &started, &work);
                s.spawn(move || {
                    started.fetch_add(1, Ordering::Relaxed);
                    drop(gate.read());
                    work(w)
                })
            })
            .collect();
        while started.load(Ordering::Relaxed) < workers {
            std::thread::yield_now();
        }
        let start = Instant::now();
        drop(hold);
        let mut first_err = None;
        for (w, handle) in handles.into_iter().enumerate() {
            let err = match handle.join() {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => format!("worker {w} failed: {e}"),
                Err(panic) => format!("worker {w} panicked: {}", panic_message(&*panic)),
            };
            first_err.get_or_insert(err);
        }
        let wall = start.elapsed();
        first_err.map_or(Ok(wall), Err)
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Wall-clock time for `iters` buffer-pool fetches spread across
/// `threads` workers, each walking `leaves` from a different offset with
/// a shared stride (see [`timed_workers`]). Shared by the `buffer_pool`
/// bench and the e14 perf experiment.
pub fn concurrent_fetch_time(
    db: &Database,
    leaves: &[PageId],
    threads: usize,
    iters: u64,
) -> Result<Duration, String> {
    let per_thread = iters.div_ceil(threads as u64);
    timed_workers(threads, |t| {
        let pool = db.pool();
        let mut i = t * 997;
        for _ in 0..per_thread {
            i = (i + 13) % leaves.len();
            std::hint::black_box(pool.fetch(leaves[i]).map_err(|e| e.to_string())?);
        }
        Ok(())
    })
}

/// Begins a transaction, runs `f`, commits.
pub fn with_tx(db: &Database, f: impl FnOnce(TxId)) {
    let tx = db.begin();
    f(tx);
    db.commit(tx).unwrap();
}

/// Minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a ratio as `12.3×`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "∞".to_string()
    } else {
        format!("{:.1}×", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within a minute, so a regression shows as a failure
    /// instead of a hung test run.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()).expect("receiver alive"));
        rx.recv_timeout(Duration::from_secs(60))
            .expect("timed_workers hung")
    }

    #[test]
    fn panicking_worker_yields_err_not_a_hang() {
        let result = within_a_minute(|| {
            timed_workers(3, |w| {
                if w == 1 {
                    panic!("worker one gives up");
                }
                std::thread::sleep(Duration::from_millis(20));
                Ok(())
            })
        });
        let err = result.expect_err("a panicked worker must fail the run");
        assert!(
            err.contains("worker 1 panicked: worker one gives up"),
            "{err}"
        );
    }

    #[test]
    fn failing_worker_yields_its_error() {
        let result = within_a_minute(|| {
            timed_workers(2, |w| if w == 0 { Err("boom".into()) } else { Ok(()) })
        });
        assert_eq!(result.unwrap_err(), "worker 0 failed: boom");
    }

    #[test]
    fn clean_run_times_every_worker() {
        let wall = within_a_minute(|| {
            timed_workers(2, |_| {
                std::thread::sleep(Duration::from_millis(30));
                Ok(())
            })
        })
        .expect("no worker fails");
        assert!(wall >= Duration::from_millis(30), "{wall:?}");
    }
}
