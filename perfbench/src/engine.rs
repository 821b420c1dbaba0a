//! Creating, loading, crashing and restarting the engine under test.

use std::time::Instant;

use spf::{Database, DatabaseConfig, PageId};
use spf_btree::NodeView;
use spf_storage::Page;

use crate::gen::{self, KEYS};
use crate::Spec;

/// Device capacity: room for the ~6k leaves plus splits and branches.
const DATA_PAGES: u64 = 8_192;
/// Keys per transaction while loading.
const LOAD_BATCH: u64 = 500;

/// `DatabaseConfig::default()` with the workload's pool: in-memory
/// devices with the free I/O cost model, observability on, no trace
/// sampling, and the scrubber and prefetcher threads never started.
pub fn config(spec: &Spec) -> DatabaseConfig {
    DatabaseConfig {
        data_pages: DATA_PAGES,
        pool_frames: spec.pool_frames,
        ..DatabaseConfig::default()
    }
}

pub struct Loaded {
    pub db: Database,
    pub leaves: Vec<PageId>,
    /// The leaf page holding each key.
    pub leaf_of: Vec<PageId>,
}

/// Creates the database, loads every key at generation 0, checkpoints,
/// and reads every key once (warm-up and load check).
pub fn setup(spec: &Spec) -> Result<Loaded, String> {
    let db = Database::create(config(spec)).map_err(|e| format!("create: {e}"))?;
    for first in (0..KEYS).step_by(LOAD_BATCH as usize) {
        let tx = db.begin();
        for k in first..(first + LOAD_BATCH).min(KEYS) {
            db.put(tx, &gen::key(k), &gen::value(k, 0))
                .map_err(|e| format!("load key {k}: {e}"))?;
        }
        db.commit(tx).map_err(|e| format!("load commit: {e}"))?;
    }
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let leaves = db.leaf_pages();
    let leaf_of = map_keys(&db, &leaves)?;
    for k in 0..KEYS {
        match db.get(&gen::key(k)) {
            Ok(Some(v)) if gen::decode(k, &v) == Ok(0) => {}
            other => return Err(format!("warm-up read of key {k}: {other:?}")),
        }
    }
    Ok(Loaded {
        db,
        leaves,
        leaf_of,
    })
}

/// The leaf page holding each key, decoded from the device images.
fn map_keys(db: &Database, leaves: &[PageId]) -> Result<Vec<PageId>, String> {
    let mut leaf_of = vec![PageId::INVALID; KEYS as usize];
    for &pid in leaves {
        let page = Page::from_bytes(db.device().raw_image(pid));
        let node = NodeView::new(&page).map_err(|e| format!("leaf {pid}: {e}"))?;
        for pos in node.payload_range() {
            let (key, _, ghost) = node.leaf_entry(pos).map_err(|e| format!("{e}"))?;
            if let (Some(k), false) = (gen::key_index(key), ghost) {
                leaf_of[k as usize] = pid;
            }
        }
    }
    match leaf_of.iter().position(|p| *p == PageId::INVALID) {
        Some(k) => Err(format!("key {k} is on no leaf page")),
        None => Ok(leaf_of),
    }
}

/// Each leaf with the first key it holds.
pub fn leaf_keys(leaf_of: &[PageId]) -> Vec<(PageId, u64)> {
    let mut first = std::collections::BTreeMap::new();
    for (k, leaf) in leaf_of.iter().enumerate() {
        first.entry(*leaf).or_insert(k as u64);
    }
    first.into_iter().collect()
}

/// Crashes the engine, runs restart recovery, and returns the seconds
/// the restart took. A crash loses the buffer pool, the lock table and
/// the unforced log tail; the data device keeps what was written to it.
pub fn crash_and_restart(db: &Database) -> Result<f64, String> {
    db.crash();
    let t0 = Instant::now();
    db.restart().map_err(|e| format!("restart: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Sets the engine up in `n` child processes, one after another, and
/// returns each set-up's seconds. A process of its own gives back the
/// memory a dropped engine keeps, so `peak_rss_mb` counts one engine.
pub fn setups_in_children(spec: &Spec, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut secs = Vec::new();
    for i in 0..n {
        let done = std::process::Command::new(&exe)
            .args(["--workload", spec.name, "--setup-only", "1"])
            .output()
            .map_err(|e| format!("set-up {i}: {e}"))?;
        let text = String::from_utf8_lossy(&done.stdout);
        match (done.status.success(), text.trim().parse::<f64>()) {
            (true, Ok(s)) => secs.push(s),
            _ => {
                return Err(format!(
                    "set-up {i} failed: {}",
                    String::from_utf8_lossy(&done.stderr).trim()
                ))
            }
        }
    }
    Ok(secs)
}

/// The child side of [`setups_in_children`]: prints the seconds one
/// set-up took.
pub fn setup_child(spec: &Spec) -> Result<(), String> {
    let t0 = Instant::now();
    let _loaded = setup(spec)?;
    println!("{}", t0.elapsed().as_secs_f64());
    Ok(())
}
