//! Frame transports: loopback/LAN TCP (`std::net` only) and an
//! in-memory channel carrying the same encoded bytes.
//!
//! Both transports deliver *identical* frame bytes to the same
//! [`FleetAggregator`] — the integration tests pin down that a fleet
//! fed over TCP answers exactly like one fed in-memory. They carry
//! collector snapshots up and query answers back; a `DigestBatch` sent
//! here is refused (counted in
//! [`FleetStats::unsupported_frames`](crate::FleetStats), never acked)
//! — digest streams belong to a [`DigestServer`](crate::DigestServer).

use crate::aggregator::{FleetAggregator, FleetConfig, Released};
use crate::error::FleetError;
use crate::view::FleetView;
use pint_collector::wire::SnapshotFrame;
use pint_obs::{Gauge, MetricsRegistry};
use pint_query::{QueryBackend, QueryClient, QueryError, QueryPlan, QueryResult};
use pint_wire::{
    FrameHandler, FrameServer, FrameType, MetricsReport, ServerConfig, ServerStats, TraceReport,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

/// An in-process frame transport: senders queue encoded frames, the
/// owner pumps them into an aggregator. Useful for tests and
/// single-binary deployments that still want the wire format as the
/// interchange (e.g. to record/replay snapshot streams).
pub struct InMemoryTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl InMemoryTransport {
    /// An empty transport.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let (tx, rx) = channel();
        Self { tx, rx }
    }

    /// A handle collectors use to submit frames (clone freely; sends
    /// from any thread).
    pub fn sender(&self) -> InMemorySender {
        InMemorySender {
            tx: self.tx.clone(),
        }
    }

    /// Drains every queued frame into `agg`; returns how many frames
    /// were applied. Stops at (and returns) the first decode error —
    /// subsequent frames stay queued.
    pub fn pump_into(&self, agg: &mut FleetAggregator) -> Result<usize, FleetError> {
        let mut n = 0;
        while let Ok(frame) = self.rx.try_recv() {
            agg.ingest_frame(&frame)?;
            n += 1;
        }
        Ok(n)
    }
}

/// The sending side of an [`InMemoryTransport`].
#[derive(Clone)]
pub struct InMemorySender {
    tx: Sender<Vec<u8>>,
}

impl InMemorySender {
    /// Queues one encoded frame (header included).
    pub fn send(&self, frame_bytes: Vec<u8>) -> Result<(), FleetError> {
        self.tx.send(frame_bytes).map_err(|_| {
            FleetError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "in-memory transport closed",
            ))
        })
    }

    /// Encodes and queues one snapshot frame.
    pub fn send_snapshot(&self, frame: &SnapshotFrame) -> Result<(), FleetError> {
        self.send(frame.to_frame_bytes())
    }
}

/// A TCP fleet endpoint: accepts collector connections and feeds their
/// frames to a shared [`FleetAggregator`].
///
/// A [`FrameHandler`] on the workspace's one poll-loop server core
/// ([`pint_wire::server`]): one thread serves every connection, with
/// the same connection cap and slow-loris deadline as
/// [`DigestServer`](crate::DigestServer)'s defaults. Snapshot frames
/// are walked (checked without being decoded) and kept as bytes under
/// the aggregator mutex, so a sync costs the walk, not a decode. A
/// `Query` frame takes the memoised merged view under it; if an apply
/// or `Bye` changed the fleet since, it takes the held states instead,
/// decodes the frames and merges outside the lock, and stores the
/// decoded snapshots and the view back under it. The first query after
/// a sync therefore pays that collector's decode; later ones only
/// execute.
/// `DigestBatch` frames are not taken here: they are counted in
/// [`FleetStats::unsupported_frames`](crate::FleetStats) and never
/// acked, so a forwarder pointed at a fleet server sheds rather than
/// believes its digests delivered. A connection
/// whose stream turns out not to be PINT frames (bad magic, future
/// version, oversized payload) is dropped — framing cannot
/// resynchronize — with the error counted in
/// [`FleetStats::decode_errors`](crate::FleetStats).
///
/// The cost of the one thread is head-of-line blocking: a `Query`'s
/// decode, merge and plan run on the poll thread, so while one runs no other
/// connection is served — snapshot syncs from every other collector
/// wait until the answer is built. The
/// `a_sync_behind_a_running_fleet_query_completes` test measures the
/// delay.
pub struct FleetServer {
    agg: Arc<Mutex<FleetAggregator>>,
    metrics: MetricsRegistry,
    core: FrameServer,
}

impl FleetServer {
    /// Binds and starts accepting. Use `"127.0.0.1:0"` to let the OS
    /// pick a port (read it back via [`local_addr`](Self::local_addr)).
    ///
    /// # Panics
    ///
    /// If a rule's plan is invalid, as [`FleetAggregator::new`] does.
    pub fn bind(addr: impl ToSocketAddrs, config: FleetConfig) -> std::io::Result<Self> {
        let aggregator = FleetAggregator::new(config);
        let metrics = aggregator.metrics().clone();
        let recorder = aggregator.trace_recorder().cloned();
        let agg = Arc::new(Mutex::new(aggregator));
        let handler = FleetHandler {
            agg: Arc::clone(&agg),
            // Registered at bind so the gauge reports 0 before the
            // first connection rather than being absent from snapshots.
            connections: metrics.gauge("fleet_connections"),
            framing_errors: 0,
            retired: None,
            released: Vec::new(),
        };
        let core = FrameServer::bind(
            addr,
            "pint-fleet-server",
            ServerConfig {
                metrics: metrics.clone(),
                recorder,
                ..ServerConfig::default()
            },
            handler,
        )?;
        Ok(Self { agg, metrics, core })
    }

    /// The registry this server answers `Metrics` frames from — the
    /// aggregator's (shared process-wide when
    /// [`FleetConfig::metrics`] was set).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The bound address collectors connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.core.local_addr()
    }

    /// The shared aggregator (lock to query or drain events).
    pub fn aggregator(&self) -> Arc<Mutex<FleetAggregator>> {
        Arc::clone(&self.agg)
    }

    /// Runs `f` under the aggregator lock — the ergonomic query path.
    pub fn with_aggregator<T>(&self, f: impl FnOnce(&mut FleetAggregator) -> T) -> T {
        let mut agg = self.agg.lock().expect("fleet aggregator poisoned");
        f(&mut agg)
    }

    /// Stops the server thread (open connections are dropped) and
    /// returns the shared aggregator handle.
    pub fn shutdown(self) -> Arc<Mutex<FleetAggregator>> {
        drop(self.core);
        self.agg
    }
}

/// The fleet logic on the poll thread.
struct FleetHandler {
    agg: Arc<Mutex<FleetAggregator>>,
    /// The `fleet_connections` gauge, set from the core's count.
    connections: Gauge,
    /// Framing errors already counted into the aggregator.
    framing_errors: u64,
    /// The last query's merged view, dropped in `tick` — after the core
    /// has flushed the reply, so the client does not wait while a large
    /// view is freed.
    retired: Option<Arc<FleetView>>,
    /// State replaced by applies since the last `tick`, freed there for
    /// the same reason and outside the aggregator lock.
    released: Vec<Released>,
}

impl FleetHandler {
    fn lock(&self) -> MutexGuard<'_, FleetAggregator> {
        self.agg.lock().expect("fleet aggregator poisoned")
    }
}

impl FrameHandler for FleetHandler {
    fn frame(&mut self, ty: FrameType, payload: &[u8], reply: &mut Vec<u8>) {
        match ty {
            FrameType::Query => {
                // The memo, or the held states (refcounts), leave the
                // lock quickly; decoding, merging and the plan run
                // outside it. The watermark is read under the same lock
                // hold, so the stamp is consistent with the state the
                // answer was computed from.
                let (read, watermark) = {
                    let agg = self.lock();
                    (agg.read(), agg.watermark())
                };
                let view = read.build().map(|built| self.lock().keep(built));
                reply.extend_from_slice(&pint_query::remote::respond_with(
                    &FleetRead(&view),
                    payload,
                    Some(watermark),
                ));
                self.retired = view.ok();
            }
            // Decode errors and unsupported types (digest batches and
            // stray metrics or trace reports included) are counted by
            // the aggregator; the stream itself is still in sync.
            _ => {
                let released = {
                    let mut agg = self.lock();
                    let _ = agg.ingest_payload(ty, payload);
                    agg.take_released()
                };
                self.released.push(released);
            }
        }
    }

    fn tick(&mut self, stats: &ServerStats) {
        self.retired = None;
        self.released.clear();
        self.connections.set(stats.active as u64);
        if stats.framing_errors > self.framing_errors {
            self.lock()
                .record_decode_errors(stats.framing_errors - self.framing_errors);
            self.framing_errors = stats.framing_errors;
        }
    }
}

/// A fleet read's outcome as a query backend: the merged view, or the
/// error that kept it from being built.
struct FleetRead<'a>(&'a Result<Arc<FleetView>, QueryError>);

impl QueryBackend for FleetRead<'_> {
    fn query(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        match self.0 {
            Ok(view) => view.execute(plan),
            Err(e) => Err(QueryError::Backend(e.to_string())),
        }
    }
}

/// A collector's (or dashboard's) connection to a [`FleetServer`]:
/// ships snapshot frames up, and executes query plans against the
/// server's merged fleet view over the same connection — a
/// [`QueryClient`] that can also send.
pub struct FleetClient {
    client: QueryClient,
}

impl FleetClient {
    /// Connects to an aggregator endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        QueryClient::connect(addr).map(|client| Self { client })
    }

    /// Writes one encoded frame (header included).
    pub fn send(&mut self, frame_bytes: &[u8]) -> std::io::Result<()> {
        self.client.send(frame_bytes)
    }

    /// Encodes and sends one snapshot frame.
    pub fn send_snapshot(&mut self, frame: &SnapshotFrame) -> std::io::Result<()> {
        self.send(&frame.to_frame_bytes())
    }

    /// Executes a [`QueryPlan`] on the server's merged fleet view,
    /// blocking for the response — the remote tier of the unified
    /// query API, carrying the same bytes the local API exchanges.
    pub fn query(&mut self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        self.client.query(plan)
    }

    /// Fetches the server's live self-telemetry ([`MetricsReport`])
    /// over this connection — every tier publishing into the server's
    /// shared registry shows up in one snapshot.
    pub fn fetch_metrics(&mut self) -> Result<MetricsReport, QueryError> {
        self.client.fetch_metrics()
    }

    /// Fetches the server's flight-recorder snapshot ([`TraceReport`])
    /// over this connection. Servers without a recorder installed
    /// ([`FleetConfig::trace`]) answer with an empty dump.
    pub fn fetch_trace(&mut self) -> Result<TraceReport, QueryError> {
        self.client.fetch_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_collector::flow_table::TableStats;
    use pint_collector::{CollectorSnapshot, FlowSummary, ShardSnapshot};
    use pint_core::RecorderKind;
    use pint_sketches::KllSketch;
    use pint_wire::FrameReader;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn snapshot_frame(collector_id: u64, epoch: u64, flow: u64) -> SnapshotFrame {
        let mut sk = KllSketch::with_seed(32, collector_id);
        for v in 0..100u64 {
            sk.update(v);
        }
        SnapshotFrame {
            collector_id,
            epoch,
            snapshot: CollectorSnapshot::from_shards(vec![ShardSnapshot {
                shard: 0,
                flows: vec![(
                    flow,
                    FlowSummary {
                        kind: RecorderKind::LatencyQuantiles,
                        packets: 100,
                        state_bytes: 800,
                        last_ts: epoch,
                        hop_sketches: vec![KllSketch::with_seed(32, 0), sk].into(),
                        path: None,
                        inconsistencies: 0,
                    },
                )],
                table_stats: TableStats::default(),
                ingested: 100,
            }]),
        }
    }

    fn wait_for<F: FnMut() -> bool>(mut done: F, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn in_memory_transport_delivers_frames() {
        let transport = InMemoryTransport::new();
        let sender = transport.sender();
        sender.send_snapshot(&snapshot_frame(1, 1, 10)).unwrap();
        sender.send_snapshot(&snapshot_frame(2, 1, 20)).unwrap();
        let mut agg = FleetAggregator::new(FleetConfig::default());
        assert_eq!(transport.pump_into(&mut agg).unwrap(), 2);
        assert_eq!(agg.view().num_flows(), 2);
    }

    #[test]
    fn tcp_server_ingests_frames_from_multiple_connections() {
        let server = FleetServer::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut joins = Vec::new();
        for c in 1..=3u64 {
            joins.push(std::thread::spawn(move || {
                let mut client = FleetClient::connect(addr).unwrap();
                client
                    .send_snapshot(&snapshot_frame(c, 1, c * 100))
                    .unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        wait_for(
            || server.with_aggregator(|a| a.stats().snapshots_applied) == 3,
            "3 snapshots over TCP",
        );
        let agg = server.shutdown();
        let agg = agg.lock().unwrap();
        assert_eq!(agg.view().num_flows(), 3);
        assert_eq!(agg.stats().decode_errors, 0);
    }

    /// A pod snapshot of `flows` latency flows. Flow IDs are shared
    /// across pods, so a fleet merge folds sketches instead of
    /// concatenating rows.
    fn pod_frame(collector_id: u64, flows: u64) -> SnapshotFrame {
        let rows = (0..flows)
            .map(|flow| {
                let mut sk = KllSketch::with_seed(32, collector_id * flows + flow);
                for v in 0..64u64 {
                    sk.update(v * (flow % 7 + 1));
                }
                let summary = FlowSummary {
                    kind: RecorderKind::LatencyQuantiles,
                    packets: 64,
                    state_bytes: 800,
                    last_ts: 1,
                    hop_sketches: vec![KllSketch::with_seed(32, 0), sk].into(),
                    path: None,
                    inconsistencies: 0,
                };
                (flow, summary)
            })
            .collect();
        SnapshotFrame {
            collector_id,
            epoch: 1,
            snapshot: CollectorSnapshot::from_shards(vec![ShardSnapshot {
                shard: 0,
                flows: rows,
                table_stats: TableStats::default(),
                ingested: 64 * flows,
            }]),
        }
    }

    /// The cost of serving every connection on one thread: a fleet
    /// `Query`'s merge and plan run on the poll thread, so a snapshot
    /// sync arriving on another connection meanwhile waits for them
    /// (head-of-line blocking). Pins that both exchanges still complete
    /// correctly, and prints the sync's delay next to an idle server's
    /// (`cargo test --release -p pint-fleet --lib sync_behind --
    /// --nocapture`).
    #[test]
    fn a_sync_behind_a_running_fleet_query_completes() {
        const PODS: u64 = 3;
        const FLOWS: u64 = 2_000;
        let server = FleetServer::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut loader = FleetClient::connect(addr).unwrap();
        for pod in 1..=PODS {
            loader.send_snapshot(&pod_frame(pod, FLOWS)).unwrap();
        }
        // Frames on one connection are handled in order: the answer
        // confirms every pod applied.
        loader.fetch_metrics().unwrap();

        let mut syncer = FleetClient::connect(addr).unwrap();
        let mut epoch = 0;
        let mut sync = move || {
            epoch += 1;
            let start = Instant::now();
            syncer
                .send_snapshot(&snapshot_frame(PODS + 1, epoch, FLOWS + 1))
                .unwrap();
            syncer.fetch_metrics().unwrap();
            start.elapsed()
        };
        let mut idle: Vec<Duration> = (0..5).map(|_| sync()).collect();
        idle.sort();

        // Connected (and served once) up front, so the query is not
        // waiting on its accept.
        let mut client = FleetClient::connect(addr).unwrap();
        client.fetch_metrics().unwrap();
        let querier = std::thread::spawn(move || {
            let start = Instant::now();
            let result = client.query(&pint_query::TelemetryQuery::new().plan().unwrap());
            (result, start.elapsed())
        });
        // Into the merge.
        std::thread::sleep(Duration::from_millis(5));
        let behind = sync();
        let (result, query_time) = querier.join().unwrap();

        let Ok(QueryResult::Summaries(rows)) = result else {
            panic!("a full scan answers rows");
        };
        assert_eq!(rows.len() as u64, FLOWS + 1);
        assert_eq!(
            server.with_aggregator(|a| a.stats().snapshots_applied),
            PODS + 6
        );
        eprintln!(
            "sync+confirm: idle median {:?}; behind a {query_time:?} fleet query {behind:?}",
            idle[idle.len() / 2]
        );
    }

    /// Digest batches belong to a `DigestServer`: a fleet server counts
    /// one as unsupported and never acks it, and the same connection
    /// keeps answering queries.
    #[test]
    fn digest_batches_are_refused_without_an_ack() {
        use pint_query::remote::{QueryRequest, QueryResponse};
        use pint_wire::WireDecode;
        let server = FleetServer::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let batch = pint_wire::DigestBatch {
            source: 7,
            seq: 1,
            reports: vec![pint_core::DigestReport::new(
                1,
                1,
                pint_core::Digest::new(1),
                3,
                0,
            )],
            trace: None,
        };
        stream.write_all(&batch.to_frame_bytes()).unwrap();
        wait_for(
            || server.with_aggregator(|a| a.stats().unsupported_frames) == 1,
            "the batch counted as unsupported",
        );
        // Replies leave in frame order, so an ack for the batch would
        // arrive before the query's answer.
        let query = QueryRequest {
            request_id: 9,
            plan: pint_query::TelemetryQuery::new().stats().plan().unwrap(),
        };
        stream.write_all(&query.to_frame_bytes()).unwrap();
        let (ty, payload) = FrameReader::new(stream).read_frame().unwrap().unwrap();
        assert_eq!(ty, FrameType::QueryResponse);
        let response = QueryResponse::decode(&payload).unwrap();
        assert_eq!(response.request_id, 9);
        assert!(response.result.is_ok(), "{response:?}");
        let stats = server.with_aggregator(|a| a.stats());
        assert_eq!((stats.unsupported_frames, stats.frames), (1, 0));
    }

    #[test]
    fn bind_failures_surface_as_io_errors() {
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let err = FleetServer::bind(taken.local_addr().unwrap(), FleetConfig::default())
            .err()
            .expect("the address is taken");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    }

    #[test]
    fn tcp_server_survives_a_garbage_connection() {
        let server = FleetServer::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
        let addr = server.local_addr();
        {
            let mut garbage = TcpStream::connect(addr).unwrap();
            garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            garbage.flush().unwrap();
        }
        // A real collector still gets through.
        let mut client = FleetClient::connect(addr).unwrap();
        client.send_snapshot(&snapshot_frame(7, 1, 700)).unwrap();
        wait_for(
            || server.with_aggregator(|a| a.stats().snapshots_applied) == 1,
            "snapshot after garbage",
        );
        assert!(
            server.with_aggregator(|a| a.stats().decode_errors) >= 1,
            "garbage was counted"
        );
    }
}
