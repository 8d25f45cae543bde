//! Whole-pipe PINT benchmark.
//!
//! ```text
//! perfbench --workload <edge_firehose|local_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the repository's public API end to end — `DigestForwarder` →
//! loopback TCP → `DigestServer` → `Collector` → `Journal` →
//! `Collector::query` / `FleetServer`, plus `Collector::restore` — and
//! prints, as its last stdout line, one JSON object with the run's
//! correctness verdict, attempted and failed operations, and metrics:
//! every end-to-end metric untraced (`--trace 0`), every per-layer
//! metric traced (`--trace 1`). A failed correctness check exits 1.
//!
//! A traced run spends the first half of its time untraced and the
//! second half traced, and reports the difference as the tracing
//! overhead.

mod corpus;
mod heap;
mod layers;
mod paced;
mod pipeline;
mod report;
mod workloads;

use pipeline::Env;
use report::{json_line, RunReport, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A fresh directory for this run's journal files, removed on exit.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = PathBuf::from(".perfbench_scratch").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run uses it.
        let _ = std::fs::remove_dir(".perfbench_scratch");
    }
}

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

type Workload = fn(&Env, u64, Duration, &mut RunReport);

fn workload(name: &str) -> Option<Workload> {
    match name {
        "edge_firehose" => Some(workloads::firehose),
        "local_churn" => Some(workloads::churn),
        _ => None,
    }
}

fn run(run: Workload, env: &Env, seed: u64, budget: Duration) -> RunReport {
    let mut rep = RunReport {
        trace: env.trace,
        ..RunReport::default()
    };
    run(env, seed, budget, &mut rep);
    rep
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(work) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: available_parallelism={shards} profile={} rustc=\"{}\" commit={} workload={} seed={} seconds={} trace={}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let scratch = Scratch::new();
    let cpu_before = report::cpu_ticks();
    let mut env = Env {
        net: corpus::Network::new(),
        shards,
        scratch: scratch.0.clone(),
        trace: false,
    };
    let budget = Duration::from_secs(args.seconds);

    let (rep, metrics) = if args.trace {
        let half = budget / 2;
        let plain = run(work, &env, args.seed, half);
        env.trace = true;
        let traced = run(work, &env, args.seed, half);
        let table = layers::derive(&plain, &traced);
        layers::print(&args.workload, &table, &traced);
        let mut rep = traced;
        rep.merge(plain);
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, *unit, table.get(name).copied().unwrap_or(0.0)))
            .collect();
        (rep, metrics)
    } else {
        let mut rep = run(work, &env, args.seed, budget);
        let mut metrics = Vec::new();
        for (name, unit) in END_TO_END {
            let v = rep.end_to_end(name);
            rep.check(v.is_some(), || format!("no samples for {name}"));
            println!(
                "metric {name:<22} {:>14.6} {unit:<4} (n={})",
                v.unwrap_or(f64::NAN),
                rep.samples_of(if name == "fresh_p50_ms" {
                    "fresh_ms"
                } else {
                    name
                })
                .len()
            );
            metrics.push((name, unit, v.unwrap_or(f64::NAN)));
        }
        (rep, metrics)
    };

    for (kind, t) in &rep.tallies {
        println!(
            "ops {kind:<16} attempted {:>10} failed {:>6}",
            t.attempted, t.failed
        );
    }
    let losses: Vec<String> = rep.losses.iter().map(|(k, n)| format!("{k} {n}")).collect();
    println!("digests lost: {}", losses.join(", "));
    if let Some(h) = rep.scan_hashes.first() {
        println!("full-scan hash {h:016x} ({} cycles)", rep.scan_hashes.len());
    }
    println!("checks passed {}", rep.checks_passed);
    for f in &rep.check_failures {
        println!("CHECK FAILED: {f}");
    }
    if let (Some((busy0, steal0)), Some((busy1, steal1))) = (cpu_before, report::cpu_ticks()) {
        let (busy, steal) = (busy1.saturating_sub(busy0), steal1.saturating_sub(steal0));
        // Time the hypervisor ran something else while this host's CPUs
        // wanted to run: high values mean the figures above are slowed
        // by co-tenants, not by the program.
        println!(
            "host steal during run: {:.1}% of busy CPU time",
            100.0 * steal as f64 / (busy + steal).max(1) as f64
        );
    }
    let correct = rep.correct();
    println!("{}", json_line(correct, rep.totals(), &metrics));
    drop(scratch);
    if !correct {
        std::process::exit(1);
    }
}
