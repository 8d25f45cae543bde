//! The stack under test, built only from the repository's public API,
//! and the timed operations the workloads share: set-up, closed-loop
//! and paced ingest, local queries, fleet sync/query, and restore.

use crate::corpus::Network;
use crate::report::{fnv, ms, RunReport};
use pint_collector::{Collector, CollectorConfig, CollectorSnapshot, SnapshotFrame};
use pint_core::DigestReport;
use pint_fleet::{
    DigestForwarder, DigestServer, DigestServerConfig, FleetClient, FleetConfig, FleetServer,
    FleetView, ForwarderConfig,
};
use pint_query::{QueryPlan, TelemetryQuery};
use pint_store::{Journal, JournalConfig, StoreOptions, StoreReader, StoreWriter};
use pint_wire::store::{StoreKind, Superblock};
use pint_wire::WireEncode;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a polling wait (connect and settle waits) sleeps between
/// polls. Nothing in the benchmark spins, so no waiting thread steals a
/// core from the stack it times.
const POLL: Duration = Duration::from_micros(200);
/// Digests per forwarder batch and batches the forwarder may queue.
pub const FWD_BATCH: usize = 128;
pub const FWD_QUEUE: usize = 1_024;
/// Flows per point query.
pub const POINT_FLOWS: usize = 64;
/// Paced sending: one chunk per millisecond.
pub const CHUNK_INTERVAL: Duration = Duration::from_millis(1);

/// Per-run context: the network model, shard count, scratch directory
/// and whether this run is traced.
pub struct Env {
    pub net: Network,
    pub shards: usize,
    pub scratch: PathBuf,
    pub trace: bool,
}

/// Sleeps (never spins) until `cond` holds or `limit` passes; returns
/// whether it holds.
pub fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(POLL);
    }
}

/// The fixed plan set whose answers must survive restore byte for
/// byte: full scan, merged hop quantiles, top-K, totals, one point set
/// and path completion.
pub fn plan_set(flows: &[u64]) -> Vec<QueryPlan> {
    vec![
        TelemetryQuery::new().plan().expect("valid plan"),
        TelemetryQuery::new()
            .hop_quantiles(1, [0.5, 0.9, 0.99])
            .plan()
            .expect("valid plan"),
        TelemetryQuery::new()
            .hop_quantiles(3, [0.5, 0.99])
            .plan()
            .expect("valid plan"),
        TelemetryQuery::new().top_k(10).plan().expect("valid plan"),
        TelemetryQuery::new().stats().plan().expect("valid plan"),
        point_plan(flows, 0),
        TelemetryQuery::new()
            .path_completion()
            .plan()
            .expect("valid plan"),
    ]
}

/// The `i`-th 64-flow point plan: a seeded rotation through the corpus.
pub fn point_plan(flows: &[u64], i: usize) -> QueryPlan {
    let n = flows.len().max(1);
    let start = (i.wrapping_mul(7_919)) % n;
    let ids: Vec<u64> = (0..POINT_FLOWS)
        .map(|j| flows[(start + j * (n / POINT_FLOWS).max(1)) % n])
        .collect();
    TelemetryQuery::new().flows(ids).plan().expect("valid plan")
}

fn scan_plans() -> [QueryPlan; 2] {
    [
        TelemetryQuery::new().plan().expect("valid plan"),
        TelemetryQuery::new()
            .hop_quantiles(1, [0.5, 0.99])
            .plan()
            .expect("valid plan"),
    ]
}

/// Answers to the plan set, encoded.
pub fn answers(collector: &Collector, plans: &[QueryPlan]) -> Result<Vec<Vec<u8>>, String> {
    plans
        .iter()
        .map(|p| {
            collector
                .query(p)
                .map(|r| r.encode())
                .map_err(|e| format!("query failed: {e:?}"))
        })
        .collect()
}

/// One full scan (summaries of every flow plus merged hop quantiles);
/// returns rows scanned.
fn scan(collector: &Collector, rep: &mut RunReport) -> usize {
    let mut rows = 0;
    let mut failed = 0;
    for plan in scan_plans() {
        match collector.query(&plan) {
            Ok(r) => rows = rows.max(r.len()),
            Err(_) => failed += 1,
        }
    }
    rep.attempt("queries", 2, failed);
    rows
}

fn point(collector: &Collector, flows: &[u64], i: usize, rep: &mut RunReport) {
    let ok = collector.query(&point_plan(flows, i)).is_ok();
    rep.attempt("queries", 1, u64::from(!ok));
}

/// Back-to-back local scans and point queries over a quiescent table.
pub fn query_probe(
    collector: &Collector,
    flows: &[u64],
    scans: usize,
    points: usize,
    rep: &mut RunReport,
) {
    for _ in 0..scans {
        let t = Instant::now();
        let rows = scan(collector, rep);
        let took = t.elapsed();
        rep.sample("query_scan_p50_ms", ms(took));
        if rows > 0 {
            rep.sample("scan_us_per_flow", took.as_secs_f64() * 1e6 / rows as f64);
        }
    }
    for i in 0..points {
        let t = Instant::now();
        point(collector, flows, i, rep);
        rep.sample("query_point_p50_ms", ms(t.elapsed()));
    }
}

/// The collector under test, optionally journaling.
pub struct Core {
    pub collector: Collector,
    pub store: Option<PathBuf>,
}

impl Core {
    pub fn spawn(env: &Env, max_flows_per_shard: usize, store: Option<PathBuf>) -> Self {
        let collector = Collector::spawn(
            CollectorConfig {
                shards: env.shards,
                max_flows_per_shard,
                ..CollectorConfig::default()
            },
            env.net.factory(),
        );
        if let Some(path) = &store {
            attach_journal(&collector, path, StoreOptions::default());
        }
        Self { collector, store }
    }
}

/// Opens a fresh store file and attaches a journal writing into it.
pub fn attach_journal(collector: &Collector, path: &Path, options: StoreOptions) {
    let _ = std::fs::remove_file(path);
    let writer = StoreWriter::create(path, Superblock::new(StoreKind::Collector, 1, 0), options)
        .expect("create store file in the scratch directory");
    collector.attach_store(Journal::spawn(
        writer,
        JournalConfig::default(),
        collector.metrics(),
    ));
}

/// Time spent in the digest server's batch sink, and digests through it.
#[derive(Default)]
pub struct SinkClock {
    pub ns: AtomicU64,
    pub digests: AtomicU64,
}

/// Forwarder → loopback TCP → `DigestServer` → collector.
pub struct Remote {
    pub core: Core,
    pub server: DigestServer,
    pub fwd: DigestForwarder,
    pub sink: Arc<SinkClock>,
}

impl Remote {
    /// Builds the stack and waits until the forwarder's connection is
    /// accepted: ready to send.
    pub fn setup(env: &Env, max_flows_per_shard: usize, store: Option<PathBuf>) -> Self {
        let core = Core::spawn(env, max_flows_per_shard, store);
        let sink = Arc::new(SinkClock::default());
        let mut handle = core.collector.register_producer();
        let clock = Arc::clone(&sink);
        let traced = env.trace;
        // The same body as `DigestServer::bind_collector`'s sink, timed
        // from here when tracing.
        let body: pint_fleet::BatchSink = Box::new(move |_source, reports: Vec<DigestReport>| {
            let t = traced.then(Instant::now);
            let n = reports.len() as u64;
            let _ = handle.push_batch(reports);
            let _ = handle.flush();
            if let Some(t) = t {
                clock
                    .ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                clock.digests.fetch_add(n, Ordering::Relaxed);
            }
        });
        let server = DigestServer::bind_observed(
            "127.0.0.1:0",
            DigestServerConfig::default(),
            body,
            core.collector.metrics().clone(),
        )
        .expect("bind digest server on loopback");
        let fwd = DigestForwarder::connect(
            server.local_addr(),
            ForwarderConfig {
                source: 1,
                batch_digests: FWD_BATCH,
                queue_batches: FWD_QUEUE,
                ..ForwarderConfig::default()
            },
        );
        let connected = wait_until(Duration::from_secs(10), || server.stats().accepted >= 1);
        assert!(connected, "forwarder never connected to the digest server");
        Self {
            core,
            server,
            fwd,
            sink,
        }
    }

    /// Shuts the edge and the server down, checking the forwarder's
    /// books; returns the core.
    pub fn shutdown(self, pushed: u64, rep: &mut RunReport) -> Core {
        let stats = self.fwd.shutdown(Duration::from_secs(10));
        let server = self.server.shutdown();
        rep.check(stats.accounted(), || format!("forwarder books: {stats:?}"));
        rep.check(stats.shed == 0, || format!("forwarder shed {}", stats.shed));
        rep.check(stats.digests == pushed, || {
            format!("forwarder took {} of {pushed} digests", stats.digests)
        });
        rep.lose("shed", stats.digests_shed);
        rep.acc("forwarder.retransmits", stats.retransmits as f64);
        rep.acc("forwarder.shed", stats.shed as f64);
        let batches = server.batches_applied + server.batches_duplicate;
        rep.acc("ingest_batches", batches as f64);
        rep.acc("ingest_applied", server.batches_applied as f64);
        rep.acc("ingest_acks", server.acks_sent as f64);
        rep.acc("ingest_digests", server.digests as f64);
        rep.acc("sink_ns", self.sink.ns.load(Ordering::Relaxed) as f64);
        rep.acc(
            "sink_digests",
            self.sink.digests.load(Ordering::Relaxed) as f64,
        );
        self.core
    }
}

/// Checks the applied-digest books of a collector after `pushed`
/// digests went in.
pub fn check_applied(collector: &Collector, pushed: u64, rep: &mut RunReport) {
    let stats = collector.stats();
    rep.check(stats.ingested == pushed, || {
        format!("applied {} of {pushed} pushed digests", stats.ingested)
    });
    rep.attempt("digests", pushed, 0);
    rep.lose("dropped", stats.digests_dropped);
}

/// Flushes the journal, captures the live answers, shuts the collector
/// down, restores it from the journal `restores` times (timing each)
/// and checks every restored answer against the live one.
pub fn restore_and_compare(
    core: Core,
    plans: &[QueryPlan],
    restores: usize,
    env: &Env,
    rep: &mut RunReport,
) {
    let path = core.store.clone().expect("restore needs a journal");
    let t = Instant::now();
    core.collector.flush_store();
    let flush = t.elapsed();
    let metrics = core.collector.metrics().snapshot();
    let live = answers(&core.collector, plans);
    let watermark = core.collector.watermark();
    let ingested = core.collector.stats().ingested;
    let dropped = metrics.counter_total("store_journal_dropped_total");
    rep.lose("journal_dropped", dropped);
    rep.acc("store_flush_ms", ms(flush));
    rep.acc("store_flushes", 1.0);
    rep.acc(
        "store_bytes",
        metrics.counter_total("store_bytes_appended_total") as f64,
    );
    rep.acc("store_digests", ingested as f64);
    rep.acc("store.journal_dropped", dropped as f64);
    drop(core);
    let live = match live {
        Ok(a) => a,
        Err(e) => {
            rep.check(false, || e);
            return;
        }
    };
    for _ in 0..restores {
        let t = Instant::now();
        let reader = match StoreReader::open(&path) {
            Ok(r) => r,
            Err(e) => {
                rep.check(false, || format!("store open failed: {e:?}"));
                return;
            }
        };
        let opened = t.elapsed();
        let config = CollectorConfig {
            shards: env.shards,
            ..CollectorConfig::default()
        };
        let restored = match Collector::restore(config, env.net.factory(), &reader) {
            Ok((c, report)) => {
                let _ = c.barrier();
                let took = t.elapsed();
                rep.sample("restore_s", took.as_secs_f64());
                rep.acc("store_open_ms", ms(opened));
                rep.acc("store_restores", 1.0);
                rep.acc("store_restore_s", took.as_secs_f64());
                rep.acc("store_restore_digests", report.digests as f64);
                c
            }
            Err(e) => {
                rep.check(false, || format!("restore failed: {e:?}"));
                return;
            }
        };
        let same = answers(&restored, plans).is_ok_and(|a| a == live);
        rep.check(same, || {
            "restored answers differ from the live collector".into()
        });
        rep.check(restored.watermark() == watermark, || {
            "restored watermark differs from the live collector".into()
        });
        restored.shutdown();
    }
    let _ = std::fs::remove_file(&path);
}

/// Hash of the full-scan answer, for the determinism check.
pub fn scan_hash(collector: &Collector) -> u64 {
    collector
        .query(&TelemetryQuery::new().plan().expect("valid plan"))
        .map(|r| fnv(&r.encode()))
        .unwrap_or(0)
}

/// A `FleetServer` holding the static pods, and the client the live
/// collector syncs and queries through.
pub struct Fleet {
    pub server: FleetServer,
    pub client: FleetClient,
    pods: Vec<(u64, CollectorSnapshot)>,
    epoch: u64,
}

/// The live collector's identity at the fleet tier.
const LIVE_ID: u64 = 1;

impl Fleet {
    /// Binds, connects and loads the pods (pre-encoded frames), waiting
    /// for the server to confirm them. Returns the fleet and how long it
    /// waited for the server to accept the connection, which `setup_s`
    /// leaves out: the server's accept loop polls every 20 ms, and
    /// whether the connect lands before its first poll is a race, so
    /// that wait is about 0 or about 20 ms from one set-up to the next.
    pub fn setup(pods: &[(u64, CollectorSnapshot)], frames: &[Vec<u8>]) -> (Self, Duration) {
        let server =
            FleetServer::bind("127.0.0.1:0", FleetConfig::default()).expect("bind fleet server");
        let mut client = FleetClient::connect(server.local_addr()).expect("connect fleet client");
        let t = Instant::now();
        client
            .fetch_metrics()
            .expect("fleet server accepts the client");
        let accept_wait = t.elapsed();
        for f in frames {
            client.send(f).expect("send pod snapshot");
        }
        client.fetch_metrics().expect("fleet server confirms pods");
        let fleet = Self {
            server,
            client,
            pods: pods.to_vec(),
            epoch: 0,
        };
        (fleet, accept_wait)
    }

    /// Stops the fleet server.
    pub fn shutdown(self) {
        drop(self.server.shutdown());
    }

    /// `export_snapshot_frame` + `send` + one confirming request on the
    /// same connection (answered in order, so the snapshot is applied).
    fn sync(&mut self, collector: &Collector, rep: &mut RunReport) -> Option<Duration> {
        self.epoch += 1;
        let t = Instant::now();
        let frame = collector.export_snapshot_frame(LIVE_ID, self.epoch);
        let exported = t.elapsed();
        let Ok(frame) = frame else {
            rep.attempt("syncs", 1, 1);
            return None;
        };
        let sent = self.client.send(&frame).is_ok();
        let t_sent = t.elapsed();
        let confirmed = sent && self.client.fetch_metrics().is_ok();
        let took = t.elapsed();
        rep.attempt("syncs", 1, u64::from(!confirmed));
        if rep.trace {
            rep.sample("fleet.export_ms", ms(exported));
            rep.sample("fleet.frame_kb", frame.len() as f64 / 1024.0);
            rep.sample("fleet.send_ms", ms(t_sent - exported));
            rep.sample("fleet.apply_confirm_ms", ms(took - t_sent));
        }
        confirmed.then_some(took)
    }

    fn query_plan() -> QueryPlan {
        TelemetryQuery::new().top_k(10).plan().expect("valid plan")
    }

    /// One fleet query over the three-pod view.
    fn query(&mut self, rep: &mut RunReport) -> Option<Duration> {
        let t = Instant::now();
        let ok = self.client.query(&Self::query_plan()).is_ok();
        let took = t.elapsed();
        rep.attempt("fleet_queries", 1, u64::from(!ok));
        ok.then_some(took)
    }

    /// Layer split of a fleet query, timed from outside the server: the
    /// snapshot clone under the aggregator lock, the merge, the execute.
    fn layer_probe(&self, rep: &mut RunReport) {
        let t = Instant::now();
        let snaps = self.server.with_aggregator(|a| a.collector_snapshots());
        rep.sample("fleet.lock_hold_ms", ms(t.elapsed()));
        let t = Instant::now();
        let view = FleetView::merge(snaps);
        rep.sample("fleet.view_merge_ms", ms(t.elapsed()));
        let t = Instant::now();
        let _ = view.execute(&Self::query_plan());
        rep.sample("fleet.view_exec_ms", ms(t.elapsed()));
    }

    /// The fleet answer over the client must equal `FleetView::merge` of
    /// the three snapshots executed locally. Call after a final sync of
    /// a quiescent collector.
    fn check(&mut self, collector: &Collector, rep: &mut RunReport) {
        let Ok(live) = collector.snapshot() else {
            rep.check(false, || "live snapshot failed".into());
            return;
        };
        let mut snaps = self.pods.clone();
        snaps.push((LIVE_ID, live));
        let view = FleetView::merge(snaps);
        for plan in [
            Self::query_plan(),
            TelemetryQuery::new().stats().plan().expect("plan"),
        ] {
            let local = view.execute(&plan).map(|r| r.encode());
            let remote = self.client.query(&plan).map(|r| r.encode());
            rep.check(local.is_ok() && local.ok() == remote.ok(), || {
                "fleet answer differs from the locally merged view".into()
            });
        }
    }

    /// Back-to-back syncs and queries, then the fleet answer check.
    pub fn probe(
        &mut self,
        collector: &Collector,
        syncs: usize,
        queries: usize,
        rep: &mut RunReport,
    ) {
        for _ in 0..syncs {
            if let Some(d) = self.sync(collector, rep) {
                rep.sample("fleet_sync_p50_ms", ms(d));
            }
        }
        for i in 0..queries {
            if let Some(d) = self.query(rep) {
                rep.sample("fleet.query_ms", ms(d));
            }
            if rep.trace && i % 4 == 0 {
                self.layer_probe(rep);
            }
        }
        self.check(collector, rep);
    }
}

/// Encodes the pods' snapshot frames once, at generation time.
pub fn pod_frames(pods: &[(u64, CollectorSnapshot)]) -> Vec<Vec<u8>> {
    pods.iter()
        .map(|(id, snap)| {
            SnapshotFrame {
                collector_id: *id,
                epoch: 1,
                snapshot: snap.clone(),
            }
            .to_frame_bytes()
        })
        .collect()
}
