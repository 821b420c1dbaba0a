//! End-to-end benchmark of the spf engine.
//!
//! ```text
//! perfbench --workload <hot_get|durable_put|repair_read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets up an engine holding 200k keys (several times, keeping
//! the last), runs the workload's closed-loop clients through a fixed
//! operation budget of `seconds × ops_per_second` in equal rounds, runs
//! one maintenance cycle, crashes and restarts the engine, and reads
//! every key back. Every read is checked
//! against what the clients saw acknowledged. The last line of standard
//! output is one JSON object with the metrics. `--trace 1` alternates
//! traced and untraced rounds and reports the per-layer metrics instead
//! of the end-to-end ones. README.md describes the metrics.

mod client;
mod engine;
mod gen;
mod probe;
mod stats;
mod trace;

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use client::{put_auto_retrying, run_ops, Client, ClientOut, Fail, Shared};
use engine::Loaded;
use gen::{Rng, Zipf, KEYS, KEY_LEN, VALUE_LEN};
use probe::{probe_step, StepOut};
use stats::{median_f, ratio, samples_for, Counts, Samples};

/// Where traced runs write their span dumps.
const OUT_DIR: &str = ".perfbench_out";
/// Set-ups per run, all but the last in child processes; `setup_s` is
/// their median.
const SETUPS: usize = 3;
/// The timed phase is split into this many equal rounds. A traced run
/// traces the odd rounds and keeps the even ones untraced.
const ROUNDS: u64 = 10;
/// A probe timing comes from the timed phase when it has this many
/// samples there, and from the between-round steps otherwise.
const MIN_PROBE_SAMPLES: usize = 50;
/// Commits after the final checkpoint, replayed by restart.
const POST_COMMITS: u64 = 2_000;
/// Crash + restart cycles; `restart_s` is their median.
const RESTARTS: usize = 9;
/// Tail percentiles reported for gets, puts, and repaired gets. Put and
/// repair tails are given at p90: their p99 moved up to 3× between runs
/// whenever the host descheduled one of the two client threads, while
/// p90 moved by a few percent.
const GET_TAIL: f64 = 99.0;
const PUT_TAIL: f64 = 90.0;
const REPAIR_TAIL: f64 = 90.0;
/// `repair_read` must miss the pool: device reads per get at least this.
/// (Its pool hit rate stays near 0.8, because the branch pages every
/// descent fetches are always resident.)
const REPAIR_READ_MIN_READS_PER_GET: f64 = 0.9;
/// `repair_read` must repair more pages than this in its timed phase.
const REPAIR_READ_MIN_REPAIRS: u64 = 1_000;

struct Spec {
    name: &'static str,
    clients: usize,
    /// Percentage of operations that are `get`; the rest are `put_auto`.
    get_pct: u64,
    /// Zipfian (θ = 0.99) keys, or uniform.
    zipf: bool,
    pool_frames: usize,
    /// Operation budget per second of `--seconds`, over all clients.
    ops_per_second: u64,
    /// Client 0 arms one silent corruption every this many of its ops.
    corrupt_every: u64,
    /// Client 0 runs a maintenance cycle (checkpoint, archive) once per
    /// round.
    maintain: bool,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "hot_get",
        clients: 2,
        get_pct: 95,
        zipf: true,
        pool_frames: 8192,
        ops_per_second: 250_000,
        corrupt_every: 0,
        maintain: false,
    },
    Spec {
        name: "durable_put",
        clients: 2,
        get_pct: 0,
        zipf: false,
        pool_frames: 8192,
        ops_per_second: 30_000,
        corrupt_every: 0,
        maintain: true,
    },
    Spec {
        name: "repair_read",
        clients: 1,
        get_pct: 95,
        zipf: false,
        pool_frames: 512,
        ops_per_second: 55_000,
        corrupt_every: 200,
        maintain: false,
    },
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: set up once, print the seconds it took, and exit (see
    /// `engine::setups_in_children`).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            "--setup-only" => setup_only = num()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    if setup_only {
        return Ok(Args {
            spec,
            seed: 0,
            seconds: 0,
            trace: false,
            setup_only,
        });
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
        setup_only,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.setup_only {
        true => engine::setup_child(args.spec).map(|()| true),
        false => run(&args),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What the timed phase did and measured.
struct Timed {
    /// The clients' and the between-round steps' outputs, merged.
    out: ClientOut,
    steps: StepOut,
    /// Counter deltas over every round, over the untraced rounds, and
    /// over the between-round steps.
    all: Counts,
    clean: Counts,
    step_counts: Counts,
    clean_ops: u64,
    clean_gets: u64,
    clean_ns: u64,
    /// Per-round throughput of the untraced and of the traced rounds.
    rates: [Vec<f64>; 2],
}

/// Runs `ROUNDS` rounds of every client's share of the operation budget,
/// with a probe step after each.
fn timed_phase(args: &Args, sh: &Shared, rng: &mut Rng) -> Timed {
    let spec = args.spec;
    let page_size = sh.db.config().page_size;
    let mut clients: Vec<Client> = (0..spec.clients)
        .map(|id| Client::new(id, args.seed, page_size))
        .collect();
    let leaf_keys = engine::leaf_keys(sh.leaf_of);
    let per_client = (args.seconds * spec.ops_per_second / ROUNDS / spec.clients as u64).max(1);
    let ops = per_client * spec.clients as u64;
    let mut step_out = ClientOut::default();
    let mut t = Timed {
        out: ClientOut::default(),
        steps: StepOut::default(),
        all: Counts::default(),
        clean: Counts::default(),
        step_counts: Counts::default(),
        clean_ops: 0,
        clean_gets: 0,
        clean_ns: 0,
        rates: [Vec::new(), Vec::new()],
    };
    for round in 0..ROUNDS {
        let traced = args.trace && round % 2 == 1;
        let gets_before: u64 = clients.iter().map(|c| c.out.gets).sum();
        let t0 = Instant::now();
        let ((), d) = Counts::around(sh.db, || {
            std::thread::scope(|s| {
                for c in clients.iter_mut() {
                    s.spawn(move || run_ops(sh, c, per_client, traced));
                }
            })
        });
        let ns = stats::ns_between(t0, Instant::now());
        t.all = t.all.plus(d);
        if !traced {
            t.clean = t.clean.plus(d);
            t.clean_ops += ops;
            t.clean_ns += ns;
            t.clean_gets += clients.iter().map(|c| c.out.gets).sum::<u64>() - gets_before;
        }
        t.rates[usize::from(traced)].push(ops as f64 / (ns as f64 / 1e9));
        let ((), d) = Counts::around(sh.db, || {
            probe_step(sh, &leaf_keys, rng, args.trace, &mut step_out, &mut t.steps)
        });
        t.step_counts = t.step_counts.plus(d);
    }
    for o in clients.into_iter().map(|c| c.out).chain([step_out]) {
        t.out.merge(o);
    }
    t
}

/// What the post phase measured.
struct Post {
    /// Counter deltas over the final maintenance cycle.
    cycle: Counts,
    archive_live: u64,
    pri_bytes: u64,
    peak_rss: f64,
    restart_s: Vec<f64>,
    verify_wrong: u64,
    /// Escalations over the whole run.
    escalations: u64,
}

/// One maintenance cycle, `POST_COMMITS` commits past its checkpoint,
/// then crashes and timed restarts, each followed by a slice of the
/// verify pass: every acknowledged write must have survived.
fn post_phase(
    db: &spf::Database,
    acked: &[AtomicU32],
    attempted: &[AtomicU32],
    rng: &mut Rng,
    epoch: Instant,
    out: &mut ClientOut,
) -> Result<Post, String> {
    let (cycle, counts) = Counts::around(db, || {
        client::maintenance_cycle(db, &mut out.spans, epoch, u64::MAX, "post")
    });
    match cycle {
        Ok(ns) => out.cycle_ns.push(ns),
        Err(e) => out.fail(Fail::Error(e)),
    }
    let st = db.stats();
    let (archive_live, pri_bytes) = (st.archive.live_bytes, st.pri.approx_bytes);
    let peak_rss = stats::peak_rss_mb();

    for _ in 0..POST_COMMITS {
        let k = rng.below(KEYS);
        let generation = attempted[k as usize].load(Ordering::Relaxed) + 1;
        attempted[k as usize].store(generation, Ordering::Relaxed);
        let value = gen::value(k, generation);
        let mut conflicts = 0;
        match put_auto_retrying(db, &gen::key(k), &value, &mut conflicts) {
            Ok(()) => acked[k as usize].store(generation, Ordering::Relaxed),
            Err(e) => out.fail(Fail::Error(format!("post put key {k}: {e}"))),
        }
    }
    // Crash and restart several times, with a slice of the verify pass
    // after each restart, so that the restarts sample a longer stretch
    // of the host's time.
    let mut restart_s = Vec::new();
    let mut verify_wrong = 0;
    let slice = KEYS.div_ceil(RESTARTS as u64);
    for i in 0..RESTARTS as u64 {
        restart_s.push(engine::crash_and_restart(db)?);
        for k in i * slice..((i + 1) * slice).min(KEYS) {
            let floor = acked[k as usize].load(Ordering::Relaxed);
            let ceil = attempted[k as usize].load(Ordering::Relaxed);
            if let Err(f) = client::check_read(k, db.get(&gen::key(k)), floor, ceil) {
                verify_wrong += 1;
                let (Fail::Error(e) | Fail::Wrong(e)) = f;
                out.fail(Fail::Wrong(format!("after restart: {e}")));
            }
        }
    }
    Ok(Post {
        cycle: counts,
        archive_live,
        pri_bytes,
        peak_rss,
        restart_s,
        verify_wrong,
        escalations: Counts::of(&db.stats()).escalations,
    })
}

/// Runs one workload; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let spec = args.spec;
    let epoch = Instant::now();
    let mut rng = Rng::stream(args.seed, 1_000);

    // Set up several times and keep the last engine.
    let mut setup_s = engine::setups_in_children(spec, SETUPS - 1)?;
    let t0 = Instant::now();
    let Loaded {
        db,
        leaves,
        leaf_of,
    } = engine::setup(spec)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    println!(
        "{}: {KEYS} keys on {} leaves, pool {} frames, {} clients",
        spec.name,
        leaves.len(),
        spec.pool_frames,
        spec.clients
    );

    let acked: Vec<AtomicU32> = (0..KEYS).map(|_| AtomicU32::new(0)).collect();
    let attempted: Vec<AtomicU32> = (0..KEYS).map(|_| AtomicU32::new(0)).collect();
    let zipf = spec.zipf.then(|| Zipf::new(KEYS, 0.99));
    let page_size = db.config().page_size;
    let mut timed = timed_phase(
        args,
        &Shared {
            db: &db,
            spec,
            acked: &acked,
            attempted: &attempted,
            leaves: &leaves,
            leaf_of: &leaf_of,
            zipf: zipf.as_ref(),
            epoch,
        },
        &mut rng,
    );
    let timed_end = epoch.elapsed().as_secs_f64();
    let post = post_phase(&db, &acked, &attempted, &mut rng, epoch, &mut timed.out)?;
    println!(
        "phases: set-up ended at {:.1} s, timed phase at {timed_end:.1} s, run at {:.1} s",
        setup_s.iter().sum::<f64>(),
        epoch.elapsed().as_secs_f64()
    );
    report(args, page_size, &setup_s, timed, post)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Computes the metrics and checks, prints them, and prints the result
/// line. Returns whether every check passed.
fn report(
    args: &Args,
    page_size: usize,
    setup_s: &[f64],
    timed: Timed,
    post: Post,
) -> Result<bool, String> {
    let spec = args.spec;
    let Timed {
        out,
        steps,
        all,
        clean,
        step_counts,
        clean_ops,
        clean_gets,
        clean_ns,
        rates,
    } = timed;
    let page = page_size as u64;
    let user_bytes = out.puts * (KEY_LEN + VALUE_LEN) as u64;
    // Writes over the timed rounds and the final cycle, whose checkpoint
    // writes back what the rounds dirtied.
    let w = all.plus(post.cycle);
    let written = (w.dev_writes + w.backup_writes) * page + w.log_forced_bytes + w.archive_bytes;
    // A workload without reads takes its gets from the between-round
    // steps, and one without faults its repairs.
    let gets: Samples = if spec.get_pct > 0 {
        out.get_ns
    } else {
        steps.gets
    };
    let repair_gets: Samples = if spec.corrupt_every > 0 {
        out.repair_get_ns
    } else {
        steps.repairs
    };
    let puts = out.put_ns;
    let hit_rate = ratio(clean.hits, clean.hits + clean.misses);
    let escalations = post.escalations;

    let mut checks: Vec<(String, bool)> = vec![
        (format!("{} wrong values", out.wrong), out.wrong == 0),
        (
            format!("{} keys wrong after restart", post.verify_wrong),
            post.verify_wrong == 0,
        ),
        (format!("{escalations} escalations"), escalations == 0),
    ];
    if !args.trace {
        for (what, lat, p) in [
            ("get", &gets, GET_TAIL),
            ("put", &puts, PUT_TAIL),
            ("repair get", &repair_gets, REPAIR_TAIL),
        ] {
            checks.push((
                format!("{} {what} samples for p{p}", lat.len()),
                lat.len() >= samples_for(p),
            ));
        }
    }
    match spec.name {
        "hot_get" => checks.push((
            format!("{} device reads after warm-up", clean.dev_reads),
            clean.dev_reads == 0,
        )),
        "repair_read" => {
            let reads_per_get = ratio(clean.dev_reads, clean_gets);
            checks.push((
                format!("{reads_per_get:.3} device reads per get (pool hit rate {hit_rate:.3})"),
                reads_per_get >= REPAIR_READ_MIN_READS_PER_GET,
            ));
            checks.push((
                format!("{} repairs in the timed phase", out.repairs),
                out.repairs > REPAIR_READ_MIN_REPAIRS,
            ));
        }
        _ => {}
    }

    let metrics = if !args.trace {
        vec![
            m("setup_s", median_f(setup_s), "s"),
            m(
                "ops_per_s",
                clean_ops as f64 / (clean_ns as f64 / 1e9),
                "1/s",
            ),
            m("get_p50_us", gets.percentile_us(50.0), "us"),
            m("get_p99_us", gets.percentile_us(GET_TAIL), "us"),
            m("put_p50_us", puts.percentile_us(50.0), "us"),
            m("put_p90_us", puts.percentile_us(PUT_TAIL), "us"),
            m("repair_get_p50_us", repair_gets.percentile_us(50.0), "us"),
            m(
                "repair_get_p90_us",
                repair_gets.percentile_us(REPAIR_TAIL),
                "us",
            ),
            m("peak_rss_mb", post.peak_rss, "MB"),
            m(
                "bytes_written_per_user_byte",
                ratio(written, user_bytes),
                "B/B",
            ),
            m("restart_s", median_f(&post.restart_s), "s"),
        ]
    } else {
        let spans = &out.spans;
        let probe_us =
            |name: &str| trace::median_ns(spans, name, MIN_PROBE_SAMPLES).unwrap_or(0) as f64 / 1e3;
        let clean_puts = clean_ops - clean_gets;
        let repairs = if spec.corrupt_every > 0 {
            clean
        } else {
            step_counts
        };
        let cycle_ms: Vec<f64> = out.cycle_ns.iter().map(|&n| n as f64 / 1e6).collect();
        vec![
            m("util.crc_ns_per_page", probe_us("util.crc32c") * 1e3, "ns"),
            m(
                "storage.reads_per_get",
                ratio(clean.dev_reads, clean_gets),
                "count",
            ),
            m("storage.read_us", probe_us("storage.read_page"), "us"),
            m(
                "storage.syncs_per_write_back",
                ratio(w.dev_syncs, w.write_backs),
                "count",
            ),
            m(
                "storage.write_bytes_per_user_byte",
                ratio(w.dev_writes * page, user_bytes),
                "B/B",
            ),
            m(
                "buffer.fetch_hit_ns",
                probe_us("buffer.fetch_hit") * 1e3,
                "ns",
            ),
            m("buffer.fetch_miss_us", probe_us("buffer.fetch_miss"), "us"),
            m("buffer.hit_rate", hit_rate, "ratio"),
            m(
                "buffer.evictions_per_op",
                ratio(clean.evictions, clean_ops),
                "count",
            ),
            m(
                "buffer.write_backs_per_op",
                ratio(clean.write_backs, clean_ops),
                "count",
            ),
            m("btree.get_us", probe_us("btree.get"), "us"),
            m(
                "btree.node_visits_per_op",
                ratio(clean.node_visits, clean_ops),
                "count",
            ),
            m(
                "btree.descent_retries_per_op",
                ratio(clean.descent_retries, clean_ops),
                "count",
            ),
            m(
                "btree.splits_per_kput",
                1e3 * ratio(clean.splits, clean_puts),
                "count",
            ),
            m("txn.put_us", probe_us("txn.put"), "us"),
            m("txn.commit_us", probe_us("txn.commit"), "us"),
            m(
                "txn.lock_conflicts_per_mop",
                1e6 * ratio(out.conflicts, out.gets + out.puts),
                "count",
            ),
            m(
                "wal.forces_per_commit",
                ratio(clean.forces, clean.commits),
                "count",
            ),
            m(
                "wal.waiters_absorbed_per_force",
                ratio(clean.absorbed, clean.forces),
                "count",
            ),
            m(
                "wal.bytes_per_commit",
                ratio(clean.log_bytes, clean.commits),
                "B",
            ),
            m(
                "wal.records_per_commit",
                ratio(clean.log_records, clean.commits),
                "count",
            ),
            m(
                "recovery.repair_us",
                probe_us("recovery.recover_page"),
                "us",
            ),
            m(
                "recovery.chain_records_per_repair",
                ratio(repairs.chain_records, repairs.recoveries),
                "count",
            ),
            m(
                "recovery.device_reads_per_repair",
                ratio(repairs.backup_reads, repairs.recoveries),
                "count",
            ),
            m("recovery.escalations", escalations as f64, "count"),
            m(
                "recovery.pri_records_per_write_back",
                ratio(w.pri_updates, w.write_backs),
                "count",
            ),
            m(
                "recovery.backups_per_kput",
                1e3 * ratio(all.policy_backups, out.puts),
                "count",
            ),
            m("recovery.pri_bytes", post.pri_bytes as f64, "B"),
            m("archive.cycle_ms", median_f(&cycle_ms), "ms"),
            m(
                "archive.bytes_per_user_byte",
                ratio(w.archive_bytes, user_bytes),
                "B/B",
            ),
            m("archive.live_bytes", post.archive_live as f64, "B"),
            m(
                "core.detect_retry_us",
                trace::paired_median_ns(spans, "core.get", "recovery.recover_page") / 1e3,
                "us",
            ),
            m(
                "core.repair_delay_ratio",
                repair_gets.percentile_us(50.0) / gets.percentile_us(50.0),
                "ratio",
            ),
            m(
                "obs.trace_overhead_pct",
                (median_f(&rates[0]) / median_f(&rates[1]) - 1.0) * 100.0,
                "%",
            ),
        ]
    };
    checks.push((
        "every metric is a finite number".to_string(),
        metrics.iter().all(|mt| mt.value.is_finite()),
    ));

    println!(
        "{}: {} timed ops ({} gets, {} puts, {} repaired gets), {} lock conflicts retried, \
         {} maintenance cycles",
        spec.name,
        out.gets + out.puts,
        out.gets,
        out.puts,
        out.repairs,
        out.conflicts,
        out.cycle_ns.len()
    );
    println!(
        "timed: {:.3} device reads per get, pool hit rate {hit_rate:.3}, {} write-backs, {} splits",
        ratio(clean.dev_reads, clean_gets),
        clean.write_backs,
        clean.splits
    );
    println!(
        "samples: get {} put {} repair_get {}; between rounds: {} ops, {} pages repaired",
        gets.len(),
        puts.len(),
        repair_gets.len(),
        steps.ops,
        step_counts.recoveries
    );
    for e in &out.errors {
        println!("error: {e}");
    }
    let mut correct = true;
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    if args.trace {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
        trace::write_jsonl(&path, &out.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} spans written to {}", out.spans.len(), path.display());
        println!(
            "{:<8} {:<24} {:>8} {:>12} {:>14}",
            "phase", "span", "calls", "median_ns", "self_ns_total"
        );
        for ((phase, name), s) in trace::summarize(&out.spans) {
            println!(
                "{phase:<8} {name:<24} {:>8} {:>12} {:>14}",
                s.calls, s.median_ns, s.self_ns
            );
        }
    }
    for mt in &metrics {
        println!("metric {:<36} {:>16.4} {}", mt.name, mt.value, mt.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|mt| {
            let value = if mt.value.is_finite() { mt.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                mt.name, mt.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.gets + out.puts + steps.ops + POST_COMMITS + KEYS,
        out.failed,
        body.join(", ")
    );
    Ok(correct)
}
