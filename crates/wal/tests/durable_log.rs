//! End-to-end durability of the WAL through [`WalFiles`]: forced bytes
//! survive a "process kill" (dropping every in-memory structure and
//! reopening from the directory), unforced bytes do not, and a torn
//! tail — the file ending mid-record — is detected and discarded by
//! [`LogManager::restore`].

use std::sync::Arc;

use spf_storage::PageId;
use spf_util::{IoCostModel, SimClock};
use spf_wal::manager::make_record;
use spf_wal::record::PageOp;
use spf_wal::{LogManager, LogPayload, LogRecord, LogSink, Lsn, TxId, WalFiles};
use tempdir::TempDir;

fn update_record(tx: u64, prev_tx: Lsn, page: u64, prev_page: Lsn) -> LogRecord {
    make_record(
        TxId(tx),
        prev_tx,
        PageId(page),
        prev_page,
        LogPayload::Update {
            op: PageOp::InsertRecord {
                pos: 0,
                bytes: vec![tx as u8; 16],
                ghost: false,
            },
        },
    )
}

fn checkpoint_record() -> LogRecord {
    make_record(
        TxId(0),
        Lsn::NULL,
        PageId(u64::MAX),
        Lsn::NULL,
        LogPayload::CheckpointBegin {
            dirty_pages: Vec::new(),
            active_txns: Vec::new(),
        },
    )
}

fn fresh_log_with_files(dir: &std::path::Path) -> LogManager {
    let log = LogManager::for_testing();
    let files = WalFiles::create(dir, Lsn::FIRST.0).unwrap();
    log.set_sink(Arc::new(files));
    log
}

fn reopen(dir: &std::path::Path) -> (LogManager, Lsn) {
    let (files, base, bytes) = WalFiles::open(dir).unwrap();
    let (log, valid_end) =
        LogManager::restore(Arc::new(SimClock::new()), IoCostModel::free(), base, &bytes);
    files.trim_to(valid_end.0).unwrap();
    log.set_sink(Arc::new(files));
    (log, valid_end)
}

#[test]
fn forced_records_survive_reopen_unforced_do_not() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = fresh_log_with_files(&dir);

    let a = log.append(&update_record(1, Lsn::NULL, 10, Lsn::NULL));
    let b = log.append(&update_record(1, a, 11, Lsn::NULL));
    log.force();
    let durable_end = log.durable_lsn();
    // Appended after the force: in the buffer, never in the files.
    let c = log.append(&update_record(2, Lsn::NULL, 12, Lsn::NULL));
    assert!(c >= durable_end);
    let rec_a = log.read_record(a).unwrap();
    let rec_b = log.read_record(b).unwrap();
    drop(log); // the "kill": no flush, no shutdown protocol

    let (log, valid_end) = reopen(&dir);
    assert_eq!(valid_end, durable_end, "recovers exactly the forced prefix");
    assert_eq!(log.durable_lsn(), durable_end);
    assert_eq!(log.read_record(a).unwrap(), rec_a);
    assert_eq!(log.read_record(b).unwrap(), rec_b);
    assert!(log.read_record(c).is_err(), "unforced record is gone");
}

#[test]
fn checkpoints_reindexed_and_appends_continue_after_reopen() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = fresh_log_with_files(&dir);

    let a = log.append(&update_record(1, Lsn::NULL, 10, Lsn::NULL));
    let ckpt = log.append(&checkpoint_record());
    log.force();
    drop(log);

    let (log, _) = reopen(&dir);
    assert_eq!(log.last_checkpoint(), ckpt, "checkpoint index rebuilt");

    // The log keeps working: append, force, reopen again.
    let d = log.append(&update_record(3, Lsn::NULL, 13, a));
    log.force();
    let rec_d = log.read_record(d).unwrap();
    drop(log);
    let (log, _) = reopen(&dir);
    assert_eq!(log.read_record(d).unwrap(), rec_d);
    assert_eq!(log.last_checkpoint(), ckpt);
}

#[test]
fn torn_tail_is_detected_and_discarded() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = fresh_log_with_files(&dir);

    let a = log.append(&update_record(1, Lsn::NULL, 10, Lsn::NULL));
    let b = log.append(&update_record(1, a, 11, Lsn::NULL));
    log.force();
    let durable_end = log.durable_lsn();
    drop(log);

    // Simulate a kill between the sink's append and its sync: some
    // bytes of the next record reached the file, but not all of it.
    let (files, base, bytes) = WalFiles::open(&dir).unwrap();
    let torn = update_record(2, Lsn::NULL, 12, Lsn::NULL).encode();
    files
        .append(base + bytes.len() as u64, &torn[..torn.len() / 2])
        .unwrap();
    files.sync().unwrap();
    drop(files);

    let (log, valid_end) = reopen(&dir);
    assert_eq!(valid_end, durable_end, "torn record rejected");
    assert_eq!(
        log.read_record(b).unwrap(),
        update_record(1, a, 11, Lsn::NULL)
    );

    // A fresh append lands where the torn record was and overwrites it.
    let d = log.append(&update_record(4, Lsn::NULL, 14, Lsn::NULL));
    assert_eq!(d, durable_end);
    log.force();
    drop(log);
    let (log, _) = reopen(&dir);
    assert_eq!(
        log.read_record(d).unwrap(),
        update_record(4, Lsn::NULL, 14, Lsn::NULL)
    );
}

#[test]
fn truncation_unlinks_old_segments_and_reopen_starts_at_new_base() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = LogManager::for_testing();
    let files = WalFiles::create(&dir, Lsn::FIRST.0)
        .unwrap()
        .with_segment_bytes(128);
    log.set_sink(Arc::new(files));

    let mut prev = Lsn::NULL;
    let mut lsns = Vec::new();
    for i in 0..20 {
        let lsn = log.append(&update_record(1, prev, 10 + i, Lsn::NULL));
        prev = lsn;
        lsns.push(lsn);
        log.force();
    }
    let cut = lsns[10];
    log.set_archive_watermark(cut);
    let dropped = log.truncate_until(cut).unwrap();
    assert!(dropped > 0);
    drop(log);

    let (log, _) = reopen(&dir);
    assert!(log.read_record(lsns[5]).is_err(), "below the new base");
    for &lsn in &lsns[10..] {
        assert!(log.read_record(lsn).is_ok(), "retained record at {lsn:?}");
    }
}

/// Reopen after a truncation whose cut lies past the first 64 KiB
/// buffer segment: the restored log must start at the first retained
/// file's offset, scan forward from it, and keep appending there.
#[test]
fn reopen_after_truncating_past_a_buffer_segment() {
    let tmp = TempDir::new("durable-log").unwrap();
    let dir = tmp.path().join("wal");
    let log = LogManager::for_testing();
    let files = WalFiles::create(&dir, Lsn::FIRST.0)
        .unwrap()
        .with_segment_bytes(4096);
    log.set_sink(Arc::new(files));

    let mut prev = Lsn::NULL;
    let mut lsns = Vec::new();
    while log.end_lsn().0 < 3 * 64 * 1024 {
        let lsn = log.append(&update_record(1, prev, 10 + lsns.len() as u64, Lsn::NULL));
        prev = lsn;
        lsns.push(lsn);
        if lsns.len() % 64 == 0 {
            log.force();
        }
    }
    log.force();
    let cut = *lsns.iter().find(|l| l.0 > 2 * 64 * 1024).unwrap();
    log.set_archive_watermark(cut);
    assert!(log.truncate_until(cut).unwrap() > 64 * 1024);
    let retained: Vec<(Lsn, LogRecord)> = lsns
        .iter()
        .filter(|&&l| l >= cut)
        .map(|&l| (l, log.read_record(l).unwrap()))
        .collect();
    drop(log);

    let (log, _) = reopen(&dir);
    let floor = log.truncate_point();
    assert!(floor.0 >= 64 * 1024, "restored base {floor:?}");
    assert!(floor <= cut, "files keep at least the retained records");
    for (lsn, record) in &retained {
        assert_eq!(&log.read_record(*lsn).unwrap(), record, "record at {lsn:?}");
    }
    let scanned = log
        .scan_records(floor)
        .unwrap()
        .map(|item| item.unwrap().0)
        .filter(|&l| l >= cut)
        .count();
    assert_eq!(scanned, retained.len());

    // Appends continue at the restored end and survive another reopen.
    let next = log.append(&update_record(2, Lsn::NULL, 99, Lsn::NULL));
    log.force();
    let rec_next = log.read_record(next).unwrap();
    drop(log);
    let (log, _) = reopen(&dir);
    assert_eq!(log.read_record(next).unwrap(), rec_next);
}
