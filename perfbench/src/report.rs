//! Result bookkeeping: sample pools, correctness checks, failure
//! accounting, and the one-line JSON result.

use std::collections::BTreeMap;
use std::time::Duration;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ingest_digests_per_s", "1/s"),
    ("restore_s", "s"),
    ("fresh_p50_ms", "ms"),
    ("query_scan_p50_ms", "ms"),
    ("query_point_p50_ms", "ms"),
    ("fleet_sync_p50_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("forwarder.push_ns_per_digest", "ns"),
    ("forwarder.window_wait_share", "share"),
    ("forwarder.ack_p50_ms", "ms"),
    ("forwarder.retransmits", "count"),
    ("forwarder.shed", "count"),
    ("ingest.sink_ns_per_digest", "ns"),
    ("ingest.digests_per_batch", "count"),
    ("ingest.acks_per_batch", "count"),
    ("ingest.useful_share", "share"),
    ("collector.push_ns_per_digest", "ns"),
    ("collector.producer_parks", "count"),
    ("collector.recycle_share", "share"),
    ("collector.enqueue_ns_per_batch", "ns"),
    ("collector.drain_ns_per_batch", "ns"),
    ("collector.barrier_ms", "ms"),
    ("collector.touch_ns_per_digest", "ns"),
    ("collector.kll_ns_per_digest", "ns"),
    ("collector.evicted_per_kdigest", "count"),
    ("collector.state_mb", "MB"),
    ("query.scan_us_per_flow", "us"),
    ("query.point_exec_ms", "ms"),
    ("fleet.export_ms", "ms"),
    ("fleet.frame_kb", "KiB"),
    ("fleet.send_ms", "ms"),
    ("fleet.apply_confirm_ms", "ms"),
    ("fleet.query_ms", "ms"),
    ("fleet.lock_hold_ms", "ms"),
    ("fleet.view_merge_ms", "ms"),
    ("fleet.view_exec_ms", "ms"),
    ("store.bytes_per_digest", "B"),
    ("store.flush_ms", "ms"),
    ("store.journal_dropped", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.reader_open_ms", "ms"),
    ("store.restore_digests_per_s", "1/s"),
    ("gen.late_p99_ms", "ms"),
    ("paced.fresh_p99_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("budget.wall_ms", "ms"),
    ("budget.layers_ms", "ms"),
    ("budget.gap_ms", "ms"),
    ("budget.layers_share", "share"),
];

/// Milliseconds of a duration, with sub-microsecond digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (nearest rank) of unsorted samples; `None` if empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Operations of one kind: how many were attempted, how many failed.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct RunReport {
    /// Samples per metric; an end-to-end metric reports their median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Whether this run is traced: only then are layer figures kept.
    pub trace: bool,
    /// Raw per-layer sums (traced runs only), turned into the per-layer
    /// table at the end of the run.
    pub acc: BTreeMap<&'static str, f64>,
    /// Failed correctness checks, by description.
    pub check_failures: Vec<String>,
    /// Checks that passed (for the human-readable summary).
    pub checks_passed: u64,
    /// Operations by kind.
    pub tallies: BTreeMap<&'static str, Tally>,
    /// Lost digests by cause (also counted as failed `digests`).
    pub losses: BTreeMap<&'static str, u64>,
    /// Hash of the final full-scan answer of every ingest cycle.
    pub scan_hashes: Vec<u64>,
    /// Live heap bytes once the inputs were generated.
    pub heap_base: usize,
}

impl RunReport {
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    pub fn samples_of(&self, metric: &str) -> &[f64] {
        self.samples.get(metric).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Records a correctness check; a failure fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.checks_passed += 1;
        } else {
            self.check_failures.push(what());
        }
    }

    pub fn attempt(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        let t = self.tallies.entry(kind).or_default();
        t.attempted += attempted;
        t.failed += failed;
    }

    /// Counts `n` digests lost to `why` (shed, dropped, journal-dropped)
    /// against the digests pushed.
    pub fn lose(&mut self, why: &'static str, n: u64) {
        self.attempt("digests", 0, n);
        *self.losses.entry(why).or_insert(0) += n;
    }

    /// Adds `value` to a per-layer accumulator (traced runs only).
    pub fn acc(&mut self, name: &'static str, value: f64) {
        if self.trace {
            *self.acc.entry(name).or_insert(0.0) += value;
        }
    }

    pub fn acc_of(&self, name: &str) -> f64 {
        self.acc.get(name).copied().unwrap_or(0.0)
    }

    /// `acc(num) / acc(den)`, 0 when the denominator is.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.acc_of(den);
        if d > 0.0 {
            self.acc_of(num) / d
        } else {
            0.0
        }
    }

    /// The value an end-to-end metric reports.
    pub fn end_to_end(&self, metric: &str) -> Option<f64> {
        let s = self.samples_of(metric);
        match metric {
            "fresh_p50_ms" => quantile(self.samples_of("fresh_ms"), 0.5),
            _ => median(s),
        }
    }

    /// Folds another report (another thread's, or the untraced half of
    /// a traced run) into this one.
    pub fn merge(&mut self, other: RunReport) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.acc {
            *self.acc.entry(k).or_insert(0.0) += v;
        }
        self.check_failures.extend(other.check_failures);
        self.checks_passed += other.checks_passed;
        for (k, t) in other.tallies {
            self.attempt(k, t.attempted, t.failed);
        }
        for (k, n) in other.losses {
            *self.losses.entry(k).or_insert(0) += n;
        }
        self.scan_hashes.extend(other.scan_hashes);
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    pub fn totals(&self) -> Tally {
        self.tallies.values().fold(Tally::default(), |a, t| Tally {
            attempted: a.attempted + t.attempted,
            failed: a.failed + t.failed,
        })
    }
}

/// Formats a metric value as a JSON number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The final JSON line: `metrics` holds `(name, unit, value)` triples.
pub fn json_line(correct: bool, totals: Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        totals.attempted.max(1),
        totals.failed,
        body.join(", ")
    )
}

/// FNV-1a over an encoded answer — the run-to-run determinism check.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Host-wide (busy, steal) CPU ticks from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let busy = f.first()? + f.get(1)? + f.get(2)? + f.get(5)? + f.get(6)?;
    Some((busy, *f.get(7)?))
}
