//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no crates.io access, so this crate provides
//! the slice of criterion's API the workspace's one bench (`pint-bench`'s
//! `store`) uses — `Criterion`, `benchmark_group`, `bench_function`,
//! `Throughput`, `black_box`, and the `criterion_group!`/`criterion_main!`
//! macros — backed by a simple but honest wall-clock measurement loop:
//! per benchmark it calibrates an iteration count against a time budget,
//! runs a warmup pass, then reports mean ns/iter over the measured run.
//!
//! Environment knobs:
//!
//! * `PINT_BENCH_MS` — per-benchmark measurement budget in milliseconds
//!   (default 300; set small in CI to smoke-test benches quickly).
//! * `PINT_BENCH_JSON` — if set, a JSON array of all results is written to
//!   this path when the `Criterion` value drops (used to record the
//!   `BENCH_store.json` baseline).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/function` identifier.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Iterations in the measured run.
    pub iters: u64,
    /// Declared per-iteration throughput, if any.
    pub throughput: Option<Throughput>,
}

/// Declared work per iteration, for derived rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iteration processes this many logical elements.
    Elements(u64),
    /// Iteration processes this many bytes.
    Bytes(u64),
}

/// The measurement driver.
pub struct Criterion {
    budget: Duration,
    results: Vec<BenchResult>,
    notes: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("PINT_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(300);
        Self {
            budget: Duration::from_millis(ms.max(1)),
            results: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Results recorded so far (shim extension): lets a bench derive a
    /// figure from its own measurements (say, an on/off overhead pair)
    /// and attach it as a [`note`](Self::note).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Attaches one extra JSON object to the `PINT_BENCH_JSON` output
    /// (shim extension). `json` must be a complete JSON object literal;
    /// it is appended verbatim after the measurement entries, so a
    /// bench can record context — e.g. a metrics snapshot taken during
    /// the run — alongside its throughput numbers.
    pub fn note(&mut self, json: impl Into<String>) {
        self.notes.push(json.into());
    }

    fn record(&mut self, res: BenchResult) {
        let rate = match res.throughput {
            Some(Throughput::Elements(n)) => {
                format!("  ({:.3} Melem/s)", n as f64 * 1e3 / res.mean_ns)
            }
            Some(Throughput::Bytes(n)) => {
                format!(
                    "  ({:.1} MiB/s)",
                    n as f64 * 1e9 / res.mean_ns / (1 << 20) as f64
                )
            }
            None => String::new(),
        };
        println!("bench {:<48} {:>14.1} ns/iter{}", res.id, res.mean_ns, rate);
        self.results.push(res);
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let Ok(path) = std::env::var("PINT_BENCH_JSON") else {
            return;
        };
        if let Err(e) = std::fs::write(&path, render_json(&self.results, &self.notes)) {
            eprintln!("criterion shim: cannot write {path}: {e}");
        }
    }
}

/// One JSON array: measurement entries first, then any attached notes.
/// Every measurement records the host's `available_parallelism`, so a
/// committed baseline is honest about how many cores produced it —
/// scaling numbers from a 1-core box and a 32-core box must never be
/// compared as if they were peers.
fn render_json(results: &[BenchResult], notes: &[String]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut entries: Vec<String> = results
        .iter()
        .map(|r| {
            let thr = match r.throughput {
                Some(Throughput::Elements(n)) => format!(", \"elements_per_iter\": {n}"),
                Some(Throughput::Bytes(n)) => format!(", \"bytes_per_iter\": {n}"),
                None => String::new(),
            };
            format!(
                "  {{\"id\": \"{}\", \"mean_ns\": {:.2}, \"iters\": {}{}, \"available_parallelism\": {cores}}}",
                r.id, r.mean_ns, r.iters, thr
            )
        })
        .collect();
    entries.extend(notes.iter().map(|n| format!("  {n}")));
    let mut out = String::from("[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares per-iteration work for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        let res = run_one(full, self.throughput, self.c.budget, f);
        self.c.record(res);
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; drives the timing loop.
pub struct Bencher {
    budget: Duration,
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Measures `f`, recording mean wall-clock ns per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibration: one untimed call, then estimate how many calls fit
        // the budget (half warmup, half measured).
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let fit = (self.budget.as_nanos() / 2 / once.as_nanos()).clamp(1, 50_000_000) as u64;
        for _ in 0..fit.min(1_000) {
            black_box(f());
        }
        let t1 = Instant::now();
        for _ in 0..fit {
            black_box(f());
        }
        let total = t1.elapsed();
        self.mean_ns = total.as_nanos() as f64 / fit as f64;
        self.iters = fit;
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    id: String,
    throughput: Option<Throughput>,
    budget: Duration,
    mut f: F,
) -> BenchResult {
    let mut b = Bencher {
        budget,
        mean_ns: 0.0,
        iters: 0,
    };
    f(&mut b);
    BenchResult {
        id,
        mean_ns: b.mean_ns,
        iters: b.iters,
        throughput,
    }
}

/// Builds a function running the listed benchmarks against one `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        std::env::remove_var("PINT_BENCH_JSON");
        let mut c = Criterion {
            budget: Duration::from_millis(5),
            results: Vec::new(),
            notes: Vec::new(),
        };
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(100));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.throughput(Throughput::Bytes(8));
        g.bench_function("product", |b| b.iter(|| (1..8u64).product::<u64>()));
        g.finish();
        assert_eq!(c.results.len(), 2);
        assert!(c.results.iter().all(|r| r.mean_ns > 0.0 && r.iters >= 1));
        assert_eq!(c.results[1].id, "g/product");
    }

    #[test]
    fn notes_render_after_results() {
        let results = vec![BenchResult {
            id: "g/a".into(),
            mean_ns: 10.0,
            iters: 3,
            throughput: None,
        }];
        let notes = vec![r#"{"id": "note", "k": 1}"#.to_string()];
        let out = render_json(&results, &notes);
        assert!(out.starts_with("[\n"));
        assert!(out.ends_with("]\n"));
        let ai = out.find("\"g/a\"").unwrap();
        let ni = out.find("\"note\"").unwrap();
        assert!(ai < ni, "notes must follow measurements");
        assert!(out.contains("},\n"), "entries comma-separated:\n{out}");
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(
            out.contains(&format!("\"available_parallelism\": {cores}")),
            "measurements must record the host core count:\n{out}"
        );
    }
}
