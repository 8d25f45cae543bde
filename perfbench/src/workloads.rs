//! The workloads. Each runs in its own process, generates its inputs
//! from the seed before any timing starts, and records samples, checks
//! and failure tallies into a `RunReport`.
//!
//! Every untraced result carries every end-to-end metric. A metric a
//! workload's main phase does not exercise (fleet on the firehose, say)
//! is measured by a small probe after the main phase of every cycle, on
//! the same stack, so the main phase's figures stay clean.

use crate::corpus::{stamp_chunks, static_pods, Corpus, Shape};
use crate::heap;
use crate::paced;
use crate::pipeline::{
    attach_journal, check_applied, plan_set, query_probe, restore_and_compare, scan_hash,
    wait_until, Core, Env, Fleet, Remote,
};
use crate::report::{ms, RunReport};
use pint_collector::{Collector, CollectorSnapshot};
use pint_core::DigestReport;
use pint_fleet::DigestForwarder;
use pint_query::{QueryResult, TelemetryQuery};
use pint_store::StoreOptions;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Extra set-ups (built and torn down) before the measured phase, so
/// `setup_s` is a median of several. A set-up is the collector, the
/// digest server and forwarder (or the local handle), the journal, and
/// the fleet server with its connected client and the two static pods
/// (less the wait for the fleet server's accept poll, see `Fleet::setup`).
const SETUP_REPS: usize = 20;
/// Closed-loop workloads repeat whole ingest cycles until the time
/// budget is spent, at least this many times (the first is warm-up).
/// Every cycle ends with the same small probe set, so each probe metric
/// samples the whole run rather than one stretch of it.
const MIN_CYCLES: usize = 4;
const MAX_CYCLES: usize = 200;
const PROBE_CHUNKS: usize = 150;
const PROBE_SCANS: usize = 2;
const PROBE_POINTS: usize = 40;
const PROBE_SYNCS: usize = 1;
const PROBE_FLEET_QUERIES: usize = 2;
/// Digests per paced chunk. One chunk per millisecond is 40k digests/s:
/// at most a tenth of what the firehose sustains on a 2-core host even
/// when co-tenants slow it several-fold, so paced phases never saturate.
const CHUNK: usize = 40;

/// Firehose: resident flows, closed-loop window, paced freshness tail.
const FH_FLOWS: usize = 3_000;
const FH_BULK: usize = 200_000;
/// Un-acked digests in flight: a quarter of the forwarder queue
/// (`FWD_QUEUE` batches of `FWD_BATCH`), so nothing is shed by design,
/// yet enough that a late wake-up of the sleeping generator does not
/// starve the pipeline.
const FH_WINDOW: u64 = 32_768;
/// How long the generator sleeps when the window is full: well under the
/// time the pipeline needs to drain the window.
const WINDOW_POLL: Duration = Duration::from_millis(1);
/// No eviction on the firehose: the table holds every flow.
const ROOMY_CAP: usize = 65_536;

/// Churn: distinct flows are 8× the per-shard flow cap.
const CHURN_CAP: usize = 2_048;
const CHURN_DIGESTS: usize = 1_000_000;

/// Inputs shared by every workload: the static fleet pods.
struct Pods {
    snaps: Vec<(u64, CollectorSnapshot)>,
    frames: Vec<Vec<u8>>,
}

impl Pods {
    fn new(env: &Env, seed: u64) -> Self {
        let snaps = static_pods(&env.net, seed);
        let frames = crate::pipeline::pod_frames(&snaps);
        Self { snaps, frames }
    }
}

/// Reports the generated inputs (never part of any timing) and takes
/// the memory baseline: `peak_heap_mb` counts only what the run holds
/// above the inputs from here on.
fn generated(since: Instant, digests: u64, flows: usize, rep: &mut RunReport) {
    println!(
        "inputs: {digests} digests over {flows} flows, generated in {:.2} s (untimed)",
        since.elapsed().as_secs_f64()
    );
    rep.heap_base = heap::reset_peak();
}

fn store_path(env: &Env) -> PathBuf {
    env.scratch.join("journal.pint")
}

/// The tail of a corpus, re-stamped for paced sending after the bulk.
fn split_tail(mut corpus: Corpus, tail: usize) -> (Corpus, Vec<DigestReport>) {
    let mut tail_reports = corpus.reports.split_off(corpus.reports.len() - tail);
    let base = corpus.reports.iter().map(|r| r.ts).max().unwrap_or(0);
    stamp_chunks(&mut tail_reports, CHUNK, base);
    (corpus, tail_reports)
}

/// Pushes `reports` keeping at most `window` digests un-acked; waits by
/// sleeping. Returns (time inside `push`, time waiting on the window);
/// the push time is only measured when tracing.
fn closed_loop(
    fwd: &DigestForwarder,
    reports: &[DigestReport],
    window: u64,
    trace: bool,
) -> (Duration, Duration) {
    let (mut push, mut wait) = (Duration::ZERO, Duration::ZERO);
    let mut delivered = 0u64;
    for (pushed, r) in reports.iter().enumerate() {
        let pushed = pushed as u64;
        if pushed - delivered >= window {
            let t = Instant::now();
            loop {
                delivered = fwd.stats().digests_delivered;
                if pushed - delivered < window {
                    break;
                }
                std::thread::sleep(WINDOW_POLL);
            }
            wait += t.elapsed();
        }
        if trace {
            let t = Instant::now();
            fwd.push(r.clone());
            push += t.elapsed();
        } else {
            fwd.push(r.clone());
        }
    }
    (push, wait)
}

/// Folds the collector's own stage histograms and counters into the
/// layer accumulators (traced runs).
fn acc_collector(collector: &Collector, rep: &mut RunReport) {
    if !rep.trace {
        return;
    }
    let m = collector.metrics().snapshot();
    let mut hist = |name: &'static str, sum: &'static str, n: &'static str| {
        for h in m.histograms.iter().filter(|h| h.name == name) {
            rep.acc(sum, h.hist.sum as f64);
            rep.acc(n, h.hist.count() as f64);
        }
    };
    hist("collector_stage_enqueue_ns", "enqueue_ns", "enqueue_n");
    hist("collector_stage_drain_ns", "drain_ns", "drain_n");
    hist("collector_stage_touch_ns", "touch_ns", "touch_n");
    hist("collector_stage_kll_ns", "kll_ns", "kll_n");
    rep.acc(
        "collector.producer_parks",
        m.counter_total("collector_producer_parks_total") as f64,
    );
    rep.acc(
        "allocs",
        m.counter_total("collector_batch_allocs_total") as f64,
    );
    rep.acc(
        "recycled",
        m.counter_total("collector_batches_recycled_total") as f64,
    );
    let s = collector.stats();
    rep.acc("evicted", (s.evicted_lru + s.evicted_ttl) as f64);
    rep.acc("applied", s.ingested as f64);
    rep.acc("state_bytes", s.state_bytes as f64);
    rep.acc("state_samples", 1.0);
}

/// The run-to-run determinism check: every cycle of one run (and every
/// run of one seed) must hash its final full scan identically.
fn record_hash(collector: &Collector, rep: &mut RunReport) {
    let h = scan_hash(collector);
    if let Some(&first) = rep.scan_hashes.first() {
        rep.check(h == first, || {
            format!("full-scan hash {h:016x} differs from the first cycle's {first:016x}")
        });
    }
    rep.scan_hashes.push(h);
}

fn barrier_timed(collector: &Collector, rep: &mut RunReport) -> bool {
    let t = Instant::now();
    let ok = collector.barrier().is_ok();
    rep.sample("barrier_ms", ms(t.elapsed()));
    ok
}

/// Runs `cycle(n)` until the budget is spent, at least `MIN_CYCLES`
/// times; cycle 0 is warm-up. Samples each cycle's heap peak (its
/// set-up included) into `peak_heap_mb`: a median of per-cycle peaks
/// holds still where one peak over the run would be its rarest
/// transient, and does not grow with the number of cycles run.
fn cycles(budget: Duration, rep: &mut RunReport, mut cycle: impl FnMut(usize, &mut RunReport)) {
    let run = Instant::now();
    let mut n = 0;
    while n < MIN_CYCLES || (run.elapsed() < budget && n < MAX_CYCLES) {
        heap::reset_peak();
        cycle(n, rep);
        if n > 0 {
            let above = heap::peak().saturating_sub(rep.heap_base);
            rep.sample("peak_heap_mb", above as f64 / (1024.0 * 1024.0));
        }
        n += 1;
    }
}

/// `edge_firehose`: forwarder → DigestServer → collector with the
/// journal attached, closed loop; then restore from the journal. Each
/// cycle ends with the probes: a paced tail for freshness, local queries
/// and the fleet.
pub fn firehose(env: &Env, seed: u64, budget: Duration, rep: &mut RunReport) {
    let gen = Instant::now();
    let corpus = env.net.corpus(
        seed,
        &Shape {
            flows: FH_FLOWS,
            digests: FH_BULK + PROBE_CHUNKS * CHUNK,
            staggered: false,
        },
    );
    let (bulk, tail) = split_tail(corpus, PROBE_CHUNKS * CHUNK);
    let n = bulk.reports.len() as u64;
    let pods = Pods::new(env, seed);
    let plans = plan_set(&bulk.flows);
    generated(gen, n + tail.len() as u64, bulk.flows.len(), rep);

    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let remote = Remote::setup(env, ROOMY_CAP, Some(store_path(env)));
        let (fleet, accept_wait) = Fleet::setup(&pods.snaps, &pods.frames);
        rep.sample("setup_s", (t.elapsed() - accept_wait).as_secs_f64());
        fleet.shutdown();
        drop(remote.shutdown(0, rep));
    }

    cycles(budget, rep, |cycle, rep| {
        let t = Instant::now();
        let remote = Remote::setup(env, ROOMY_CAP, Some(store_path(env)));
        let (mut fleet, accept_wait) = Fleet::setup(&pods.snaps, &pods.frames);
        rep.sample("setup_s", (t.elapsed() - accept_wait).as_secs_f64());
        let collector = &remote.core.collector;

        let t0 = Instant::now();
        let (push, wait) = closed_loop(&remote.fwd, &bulk.reports, FH_WINDOW, rep.trace);
        remote.fwd.flush();
        let acked = wait_until(Duration::from_secs(60), || {
            remote.fwd.stats().digests_delivered >= n
        });
        rep.check(acked, || "firehose ingest stalled".into());
        barrier_timed(collector, rep);
        let wall = t0.elapsed();
        if cycle > 0 {
            rep.sample("ingest_digests_per_s", n as f64 / wall.as_secs_f64());
        }
        rep.acc("push_ns", push.as_nanos() as f64);
        rep.acc("push_digests", n as f64);
        rep.acc("wait_ns", wait.as_nanos() as f64);
        rep.acc("wall_ns", wall.as_nanos() as f64);
        rep.acc("budget_wall_ms", ms(wall));
        rep.acc("budget_layers_ms", ms(push + wait));

        // Paced tail: freshness through the same forwarder, unsaturated.
        let fwd = &remote.fwd;
        let delivered = || fwd.stats().digests_delivered;
        let out = paced::send(
            &tail,
            CHUNK,
            Instant::now() + Duration::from_millis(1),
            |chunk| {
                for r in chunk {
                    fwd.push(r.clone());
                }
                fwd.flush();
            },
            &|| collector.watermark().newest_applied,
            rep.trace.then_some(&delivered as &(dyn Fn() -> u64 + Sync)),
        );
        if cycle > 0 {
            pool_paced(&out, rep);
        }
        let total = n + tail.len() as u64;
        let settled = wait_until(Duration::from_secs(60), || delivered() >= total)
            && collector.barrier().is_ok();
        rep.check(settled, || "firehose tail stalled".into());
        check_applied(collector, total, rep);
        record_hash(collector, rep);
        query_probe(collector, &bulk.flows, PROBE_SCANS, PROBE_POINTS, rep);
        fleet.probe(collector, PROBE_SYNCS, PROBE_FLEET_QUERIES, rep);
        fleet.shutdown();
        acc_collector(collector, rep);
        let core = remote.shutdown(total, rep);
        restore_and_compare(core, &plans, 1, env, rep);
    });
}

/// Adds a paced phase's samples to the pools.
fn pool_paced(out: &paced::PacedOut, rep: &mut RunReport) {
    for &f in &out.fresh_ms {
        rep.sample("fresh_ms", f);
    }
    for &l in &out.late_ms {
        rep.sample("late_ms", l);
    }
    for &a in &out.ack_ms {
        rep.sample("ack_ms", a);
    }
}

/// `local_churn`: one `CollectorHandle`, no network, no journal during
/// ingest; distinct flows far exceed the flow table. Each cycle ends
/// with the probes: a paced tail, local queries, the fleet, and a
/// checkpoint restore.
pub fn churn(env: &Env, seed: u64, budget: Duration, rep: &mut RunReport) {
    let gen = Instant::now();
    let corpus = env.net.corpus(
        seed,
        &Shape {
            flows: 8 * CHURN_CAP,
            digests: CHURN_DIGESTS + PROBE_CHUNKS * CHUNK,
            staggered: true,
        },
    );
    let (bulk, tail) = split_tail(corpus, PROBE_CHUNKS * CHUNK);
    let n = bulk.reports.len() as u64;
    let pods = Pods::new(env, seed);
    let plans = plan_set(&bulk.flows);
    let cap = (CHURN_CAP * env.shards) as u64;
    generated(gen, n + tail.len() as u64, bulk.flows.len(), rep);

    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let core = Core::spawn(env, CHURN_CAP, None);
        let handle = core.collector.register_producer();
        let (fleet, accept_wait) = Fleet::setup(&pods.snaps, &pods.frames);
        rep.sample("setup_s", (t.elapsed() - accept_wait).as_secs_f64());
        fleet.shutdown();
        drop(handle);
    }

    cycles(budget, rep, |cycle, rep| {
        let t = Instant::now();
        let core = Core::spawn(env, CHURN_CAP, None);
        let mut handle = core.collector.register_producer();
        let (mut fleet, accept_wait) = Fleet::setup(&pods.snaps, &pods.frames);
        rep.sample("setup_s", (t.elapsed() - accept_wait).as_secs_f64());
        let collector = &core.collector;

        let t0 = Instant::now();
        let mut push = Duration::ZERO;
        for r in &bulk.reports {
            if rep.trace {
                let t = Instant::now();
                let _ = handle.push(r.clone());
                push += t.elapsed();
            } else {
                let _ = handle.push(r.clone());
            }
        }
        let tf = Instant::now();
        let flushed = handle.flush().is_ok();
        push += tf.elapsed();
        let applied = flushed && barrier_timed(collector, rep);
        let wall = t0.elapsed();
        rep.check(applied, || "churn flush/barrier failed".into());
        if cycle > 0 {
            rep.sample("ingest_digests_per_s", n as f64 / wall.as_secs_f64());
        }
        rep.acc("cpush_ns", push.as_nanos() as f64);
        rep.acc("cpush_digests", n as f64);
        rep.acc("budget_wall_ms", ms(wall));
        rep.acc(
            "budget_layers_ms",
            ms(push) + rep.samples_of("barrier_ms").last().unwrap_or(&0.0),
        );
        check_applied(collector, n, rep);
        check_churn_table(collector, cap, rep);

        // The journal joins after the measured ingest, for the restore
        // probe. This works around a restore defect: a log holding only a
        // checkpoint restores empty, because `Collector::restore` reads
        // the checkpoint only from a compacted log and `StoreWriter`
        // compacts only when something is droppable. So the paced tail
        // is journaled first, and `max_bytes: Some(1)` makes the
        // checkpoint compact those deltas away. Once that defect is
        // fixed, this probe should restore from a plain checkpoint-only
        // log instead, so the check covers that case.
        let path = store_path(env);
        attach_journal(
            collector,
            &path,
            StoreOptions {
                max_bytes: Some(1),
                fsync: false,
            },
        );
        let out = paced::send(
            &tail,
            CHUNK,
            Instant::now() + Duration::from_millis(1),
            |chunk| {
                for r in chunk {
                    let _ = handle.push(r.clone());
                }
                let _ = handle.flush();
            },
            &|| collector.watermark().newest_applied,
            None,
        );
        if cycle > 0 {
            pool_paced(&out, rep);
        }
        rep.check(collector.barrier().is_ok(), || {
            "churn barrier failed".into()
        });
        check_applied(collector, n + tail.len() as u64, rep);
        record_hash(collector, rep);
        query_probe(collector, &bulk.flows, PROBE_SCANS, PROBE_POINTS, rep);
        fleet.probe(collector, PROBE_SYNCS, PROBE_FLEET_QUERIES, rep);
        fleet.shutdown();
        acc_collector(collector, rep);

        // Restore probe: a checkpoint of the churned table compacts the
        // log down to itself (see the workaround above), and the
        // collector is restored from it.
        let t = Instant::now();
        let ok = collector.checkpoint(1).unwrap_or(false);
        rep.sample("store.checkpoint_ms", ms(t.elapsed()));
        rep.attempt("checkpoints", 1, u64::from(!ok));
        drop(handle);
        restore_and_compare(
            Core {
                collector: core.collector,
                store: Some(path),
            },
            &plans,
            1,
            env,
            rep,
        );
    });
}

/// `created − evicted == active_flows` and `active_flows ≤ cap`.
fn check_churn_table(collector: &Collector, cap: u64, rep: &mut RunReport) {
    let stats = collector.stats();
    let plan = TelemetryQuery::new().stats().plan().expect("valid plan");
    let totals = match collector.query(&plan) {
        Ok(QueryResult::Stats(s)) => s.table,
        _ => None,
    };
    let Some(t) = totals else {
        rep.check(false, || "stats query returned no table totals".into());
        return;
    };
    let live = t.created - t.evicted_lru - t.evicted_ttl;
    rep.check(live == stats.active_flows, || {
        format!(
            "created {} − evicted {} != active {}",
            t.created,
            t.evicted_lru + t.evicted_ttl,
            stats.active_flows
        )
    });
    rep.check(stats.active_flows <= cap, || {
        format!("active flows {} exceed the cap {cap}", stats.active_flows)
    });
    rep.check(t.evicted_lru > 0, || "churn evicted nothing".into());
}
