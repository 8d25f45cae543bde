//! The regional digest-ingest endpoint: [`DigestBatch`] streams from
//! many edge forwarders.
//!
//! [`DigestServer`] is a [`FrameHandler`] on the workspace's one
//! poll-loop server core ([`pint_wire::server`]), like
//! [`FleetServer`](crate::FleetServer) and
//! [`QueryResponder`](pint_query::remote::QueryResponder): every
//! connection is multiplexed on one thread, and the core's connection
//! cap, slow-loris deadline, and framing-error reaping keep one hostile
//! peer from delaying any other connection or the accept path.
//!
//! Delivery is at-least-once: batches carry `(source, seq)`, the
//! server deduplicates per source ([`SourceDedup`]) and acknowledges
//! every batch with a [`BatchAck`] so the sending
//! [`DigestForwarder`](crate::DigestForwarder) can retire it. Fresh
//! batches are handed to a caller-supplied [`BatchSink`]
//! ([`DigestServer::bind`]) or, the usual case, pushed into a local
//! collector's producer rings ([`DigestServer::bind_collector`]). One
//! [`DigestServerConfig`] configures either: the guards, plus the
//! metrics registry and flight recorder as optional fields.
//!
//! The sink is paid per *burst*, not per batch. The frames one
//! connection delivers in one poll tick (at most 64) form a burst;
//! each fresh batch in it is decoded straight onto the end of one burst
//! buffer, and the sink is called once per run of consecutive fresh
//! batches from one source: at the end of the burst, or early when the
//! source changes or the buffer would pass [`MAX_BATCH_REPORTS`].
//! Dedup, acks and tracing stay per batch, and every sink call returns
//! before the acks of the batches it carries are written, so an
//! `Applied` ack still means "applied". A lightly loaded link, with one
//! frame per tick, gets one sink call per batch.

use pint_collector::CollectorHandle;
use pint_core::DigestReport;
use pint_obs::{FlightRecorder, GaugeGroup, Histogram, MetricsRegistry, TraceStage};
use pint_wire::server::{MAX_CONNECTIONS, READ_DEADLINE};
use pint_wire::{
    AckStatus, BatchAck, DigestBatch, FrameHandler, FrameServer, FrameType, ServerConfig,
    ServerStats, SourceDedup, MAX_BATCH_REPORTS,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a [`DigestServer`] runs: guard knobs, plus optional metrics
/// and tracing. The connection cap is the server core's
/// [`MAX_CONNECTIONS`].
#[derive(Debug, Clone)]
pub struct DigestServerConfig {
    /// Drop a connection stuck mid-frame (or mid-ack-write) with no
    /// progress for this long — the slow-loris guard. Idle connections
    /// at a frame boundary are unaffected.
    pub read_deadline: Duration,
    /// Distinct edge sources tracked for dedup; batches from sources
    /// beyond this are rejected (never acked), bounding dedup memory.
    pub max_sources: usize,
    /// Registry the `digest_server` gauge group (refreshed after every
    /// poll tick that moved) publishes into and `Metrics` request
    /// frames are answered from; share the collector's registry and one
    /// fetch reports both tiers. `None` gives the server a private
    /// registry (read it via [`DigestServer::metrics`]).
    pub metrics: Option<MetricsRegistry>,
    /// Flight recorder for pipeline tracing: every applied (or
    /// deduplicated) batch records a [`TraceStage::ServerApplied`]
    /// (`ServerDuplicate`) event, and `TraceDump` request frames are
    /// answered with a snapshot of it. `None` disables tracing.
    pub trace: Option<FlightRecorder>,
}

impl Default for DigestServerConfig {
    fn default() -> Self {
        Self {
            read_deadline: READ_DEADLINE,
            max_sources: 4_096,
            metrics: None,
            trace: None,
        }
    }
}

/// Live counters of one [`DigestServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections currently served.
    pub active: usize,
    /// Fresh batches fed to the sink.
    pub batches_applied: u64,
    /// Retransmitted batches recognized and dropped by dedup.
    pub batches_duplicate: u64,
    /// Digests inside applied batches.
    pub digests: u64,
    /// Acks written back to forwarders.
    pub acks_sent: u64,
    /// Connections dropped because their byte stream stopped being
    /// PINT frames (bad magic, future version, hostile length — the
    /// stream cannot resynchronize).
    pub framing_errors: u64,
    /// Well-framed `DigestBatch` frames whose payload failed to
    /// decode; the frame boundary holds, so the connection survives.
    pub payload_errors: u64,
    /// Connections dropped by the slow-loris deadline.
    pub stalled_dropped: u64,
    /// Well-formed frames of types this server does not ingest.
    pub unsupported_frames: u64,
    /// Connections refused over the core's [`MAX_CONNECTIONS`].
    pub connections_rejected: u64,
    /// Batches refused over [`DigestServerConfig::max_sources`].
    pub sources_rejected: u64,
}

/// Where fresh batches go: `(source id, reports)`. Called once per run
/// of consecutive fresh batches from one source within a connection's
/// burst (see the module docs), with their reports concatenated in
/// arrival order and at most [`MAX_BATCH_REPORTS`] of them; it returns
/// before any of those batches' acks is written.
pub type BatchSink = Box<dyn FnMut(u64, Vec<DigestReport>) + Send>;

/// A fault-tolerant digest-ingest endpoint (see the module docs).
///
/// ```no_run
/// use pint_fleet::{DigestForwarder, DigestServer, DigestServerConfig, ForwarderConfig};
/// use pint_core::{Digest, DigestReport};
/// use std::sync::{Arc, Mutex};
///
/// // Regional side: collect every batch a forwarder delivers.
/// let seen = Arc::new(Mutex::new(Vec::new()));
/// let sink_seen = Arc::clone(&seen);
/// let server = DigestServer::bind(
///     "127.0.0.1:0",
///     DigestServerConfig::default(),
///     Box::new(move |source, reports| {
///         sink_seen.lock().unwrap().push((source, reports));
///     }),
/// )?;
///
/// // Edge side: a forwarder ships digests upstream with acks/retries.
/// let fwd = DigestForwarder::connect(
///     server.local_addr(),
///     ForwarderConfig {
///         source: 7,
///         ..ForwarderConfig::default()
///     },
/// );
/// fwd.push(DigestReport::new(1, 100, Digest::new(1), 5, 0));
/// fwd.flush();
/// let stats = fwd.shutdown(std::time::Duration::from_secs(5));
/// assert_eq!(stats.delivered, 1);
/// assert_eq!(server.stats().digests, 1);
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct DigestServer {
    core: FrameServer,
    stats: Arc<Mutex<DigestServerStats>>,
    metrics: MetricsRegistry,
}

/// `set_all` field order of the `digest_server` gauge group (mirrors
/// [`DigestServerStats`]). Published whole after every poll tick that
/// moved, so a reader always observes one tick's consistent counters —
/// in particular `acks_sent == batches_applied + batches_duplicate`
/// holds in every snapshot (sourced batches are acked exactly once,
/// rejected ones never).
const DIGEST_SERVER_OBS_FIELDS: [&str; 12] = [
    "accepted",
    "active",
    "batches_applied",
    "batches_duplicate",
    "digests",
    "acks_sent",
    "framing_errors",
    "payload_errors",
    "stalled_dropped",
    "unsupported_frames",
    "connections_rejected",
    "sources_rejected",
];

impl DigestServer {
    /// Binds and starts the poll thread. Use `"127.0.0.1:0"` to let
    /// the OS pick a port (read it back via
    /// [`local_addr`](Self::local_addr)). Batches carrying a trace
    /// context feed the `ingest_e2e_latency_ns` histogram (receiver
    /// clock minus origin stamp — honest only when both ends share a
    /// time base).
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: DigestServerConfig,
        sink: BatchSink,
    ) -> std::io::Result<Self> {
        let metrics = config.metrics.unwrap_or_default();
        let handler = Ingest::new(config.max_sources, sink, &metrics, config.trace.clone());
        let stats = Arc::clone(&handler.shared);
        let core = FrameServer::bind(
            addr,
            "pint-digest-ingest",
            ServerConfig {
                read_deadline: config.read_deadline,
                max_connections: MAX_CONNECTIONS,
                metrics: metrics.clone(),
                recorder: config.trace,
            },
            handler,
        )?;
        Ok(Self {
            core,
            stats,
            metrics,
        })
    }

    /// [`bind`](Self::bind) with [`DigestServerConfig::metrics`] set to
    /// `metrics`. Kept only because the benchmark harness (`perfbench/`)
    /// calls it; it goes when that harness next changes. New code sets
    /// the config field.
    pub fn bind_observed(
        addr: impl ToSocketAddrs,
        mut config: DigestServerConfig,
        sink: BatchSink,
        metrics: MetricsRegistry,
    ) -> std::io::Result<Self> {
        config.metrics = Some(metrics);
        Self::bind(addr, config, sink)
    }

    /// The registry this server publishes its `digest_server_*` gauge
    /// group into and answers `Metrics` frames from.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Binds with the batch sink feeding a collector producer: each
    /// sink call (one per run of fresh batches from one source in a
    /// connection's burst) is pushed through `handle`'s per-shard rings
    /// and flushed before the run's acks are written, so queries
    /// observe an acked batch immediately. Undeliverable
    /// digests (collector shut down mid-batch) are counted by the
    /// collector's dropped-digest counter, never lost silently. Metrics
    /// and tracing come from `config`, as for [`bind`](Self::bind).
    pub fn bind_collector(
        addr: impl ToSocketAddrs,
        config: DigestServerConfig,
        mut handle: CollectorHandle,
    ) -> std::io::Result<Self> {
        Self::bind(
            addr,
            config,
            Box::new(move |_source, reports| {
                let _ = handle.push_batch(reports);
                let _ = handle.flush();
            }),
        )
    }

    /// The bound address forwarders connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.core.local_addr()
    }

    /// A copy of the live counters.
    pub fn stats(&self) -> DigestServerStats {
        *self.stats.lock().expect("digest server stats poisoned")
    }

    /// Stops the poll thread (open connections are dropped) and
    /// returns the final counters.
    pub fn shutdown(self) -> DigestServerStats {
        drop(self.core);
        *self.stats.lock().expect("digest server stats poisoned")
    }
}

/// The ingest logic on the poll thread: dedup, burst buffer, sink,
/// acks, tracing.
struct Ingest {
    max_sources: usize,
    sink: BatchSink,
    dedup: BTreeMap<u64, SourceDedup>,
    /// Reports of the fresh batches not yet handed to the sink, all
    /// from `burst_source`, in arrival order.
    burst: Vec<DigestReport>,
    burst_source: u64,
    stats: DigestServerStats,
    /// Where [`stats`](DigestServer::stats) reads from.
    shared: Arc<Mutex<DigestServerStats>>,
    group: GaugeGroup,
    clock: pint_obs::ClockHandle,
    e2e_latency: Histogram,
    /// Digests per sink call.
    burst_digests: Histogram,
    recorder: Option<FlightRecorder>,
}

impl FrameHandler for Ingest {
    fn frame(&mut self, ty: FrameType, payload: &[u8], reply: &mut Vec<u8>) {
        match ty {
            FrameType::DigestBatch => self.batch(payload, reply),
            // Edge processes may announce/leave; nothing to track here.
            FrameType::Hello | FrameType::Bye => {}
            _ => self.stats.unsupported_frames += 1,
        }
    }

    fn end_burst(&mut self) {
        self.deliver();
        // The core writes this burst's acks after this returns, so a
        // peer holding an ack always finds its batch counted in
        // `DigestServer::stats` — the poll pass's closing tick can come
        // after the peer has already acted on the ack.
        self.publish();
    }

    fn tick(&mut self, core: &ServerStats) {
        let s = &mut self.stats;
        s.accepted = core.accepted;
        s.active = core.active;
        s.framing_errors = core.framing_errors;
        s.stalled_dropped = core.stalled_dropped;
        s.connections_rejected = core.connections_rejected;
        self.publish();
        let s = &self.stats;
        self.group.set_all(&[
            s.accepted,
            s.active as u64,
            s.batches_applied,
            s.batches_duplicate,
            s.digests,
            s.acks_sent,
            s.framing_errors,
            s.payload_errors,
            s.stalled_dropped,
            s.unsupported_frames,
            s.connections_rejected,
            s.sources_rejected,
        ]);
    }
}

impl Ingest {
    fn new(
        max_sources: usize,
        sink: BatchSink,
        metrics: &MetricsRegistry,
        recorder: Option<FlightRecorder>,
    ) -> Self {
        Self {
            max_sources,
            sink,
            dedup: BTreeMap::new(),
            burst: Vec::new(),
            burst_source: 0,
            stats: DigestServerStats::default(),
            shared: Arc::default(),
            group: metrics.gauge_group("digest_server", &DIGEST_SERVER_OBS_FIELDS),
            clock: metrics.clock(),
            e2e_latency: metrics.histogram("ingest_e2e_latency_ns"),
            burst_digests: metrics.histogram("ingest_burst_digests"),
            recorder,
        }
    }

    /// Decodes one batch onto the burst buffer, deduplicates it (a
    /// duplicate or rejected batch takes its reports back off), and
    /// queues its ack. The ack is written after
    /// [`end_burst`](FrameHandler::end_burst) has handed the batch to
    /// the sink.
    fn batch(&mut self, payload: &[u8], reply: &mut Vec<u8>) {
        let mark = self.burst.len();
        let Ok(batch) = DigestBatch::decode_append(payload, &mut self.burst) else {
            // The envelope was valid, so the stream is still in sync —
            // count the bad payload, keep the connection. The decoder
            // left no reports behind, and `(source, seq)` stays unseen
            // so a good retransmission is applied.
            self.stats.payload_errors += 1;
            return;
        };
        if !self.dedup.contains_key(&batch.source) && self.dedup.len() >= self.max_sources {
            self.burst.truncate(mark);
            self.stats.sources_rejected += 1;
            return; // never acked; the sender will shed it
        }
        let fresh = self
            .dedup
            .entry(batch.source)
            .or_default()
            .observe(batch.seq);
        let status = if fresh {
            let digests = self.burst.len() - mark;
            // A sink call carries one source and at most
            // MAX_BATCH_REPORTS reports: hand over the run before this
            // batch first when the batch would break either.
            if mark > 0
                && (batch.source != self.burst_source || self.burst.len() > MAX_BATCH_REPORTS)
            {
                let this = self.burst.split_off(mark);
                self.deliver();
                self.burst = this;
            }
            self.burst_source = batch.source;
            self.stats.batches_applied += 1;
            self.stats.digests += digests as u64;
            let now = self.clock.now_ns();
            if let Some(trace) = &batch.trace {
                // Edge→regional latency from the sender's origin stamp
                // — a true end-to-end sample, not a per-hop guess
                // (meaningful when both ends share a time base).
                self.e2e_latency.record(now.saturating_sub(trace.origin_ns));
            }
            if let Some(rec) = &self.recorder {
                rec.record_at(
                    batch.source as u32,
                    TraceStage::ServerApplied,
                    batch.source,
                    batch.seq,
                    now,
                );
            }
            AckStatus::Applied
        } else {
            self.burst.truncate(mark);
            self.stats.batches_duplicate += 1;
            if let Some(rec) = &self.recorder {
                rec.record(
                    batch.source as u32,
                    TraceStage::ServerDuplicate,
                    batch.source,
                    batch.seq,
                );
            }
            AckStatus::Duplicate
        };
        let ack = BatchAck {
            seq: batch.seq,
            status,
        };
        reply.extend_from_slice(&ack.to_frame_bytes());
        self.stats.acks_sent += 1;
    }

    /// Hands the buffered run to the sink, if there is one.
    fn deliver(&mut self) {
        if self.burst.is_empty() {
            return;
        }
        let reports = std::mem::take(&mut self.burst);
        self.burst_digests.record(reports.len() as u64);
        (self.sink)(self.burst_source, reports);
    }

    /// Makes the counters visible to [`DigestServer::stats`].
    fn publish(&self) {
        *self.shared.lock().expect("digest server stats poisoned") = self.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetConfig, FleetServer};
    use pint_query::remote::{QueryRequest, QueryResponder};
    use pint_query::{QueryBackend, QueryError, QueryPlan, QueryResult, TelemetryQuery};
    use pint_wire::{FrameReader, WireDecode, WireEncode};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Blocks until the server closes `stream`, failing after `within`.
    fn expect_closed(stream: &mut TcpStream, within: Duration, what: &str) {
        stream.set_read_timeout(Some(within)).unwrap();
        let mut buf = [0u8; 256];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return,
                Err(e) => panic!("{what}: not closed within {within:?} ({e})"),
            }
        }
    }

    /// One server under attack: a garbage peer, a slow-loris prefix and
    /// a half-open socket, then one well-behaved request that must
    /// still get its `reply` frame. Both hostile streams must be
    /// reaped — garbage at once, the slow-loris prefix after
    /// `read_deadline` — while the half-open peer stays parked.
    fn survives_hostile_peers(
        addr: SocketAddr,
        read_deadline: Duration,
        request: &[u8],
        reply: FrameType,
    ) -> Vec<u8> {
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"PINT\x01").unwrap();
        let mut half_open = TcpStream::connect(addr).unwrap();

        let mut good = TcpStream::connect(addr).unwrap();
        good.write_all(request).unwrap();
        good.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (ty, payload) = FrameReader::new(good).read_frame().unwrap().unwrap();
        assert_eq!(ty, reply);

        expect_closed(&mut garbage, Duration::from_secs(10), "garbage peer");
        expect_closed(&mut loris, read_deadline * 5, "slow-loris peer");
        // Idle at a frame boundary is legal: still open.
        half_open
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let err = half_open.read(&mut [0u8; 1]).unwrap_err();
        assert!(matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ));
        payload
    }

    struct Fixed;
    impl QueryBackend for Fixed {
        fn query(&self, _plan: &QueryPlan) -> Result<QueryResult, QueryError> {
            Ok(QueryResult::PathCompletion {
                complete: 1,
                total: 1,
            })
        }
    }

    /// `max_sources` is the only bound on dedup state: a batch from a
    /// source beyond it is counted and never acked, while the sources
    /// already tracked keep their `Applied`/`Duplicate` acks.
    #[test]
    fn sources_beyond_max_sources_are_rejected_unacked() {
        let metrics = MetricsRegistry::new();
        let server = DigestServer::bind(
            "127.0.0.1:0",
            DigestServerConfig {
                max_sources: 2,
                metrics: Some(metrics.clone()),
                ..DigestServerConfig::default()
            },
            Box::new(|_src, _reports| {}),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        let mut send = |source: u64, seq: u64| {
            let batch = DigestBatch {
                source,
                seq,
                reports: vec![DigestReport::new(9, seq, pint_core::Digest::new(1), 3, 0)],
                trace: None,
            };
            stream.write_all(&batch.to_frame_bytes()).unwrap();
        };
        let mut next_ack = || {
            let (ty, payload) = reader.read_frame().unwrap().unwrap();
            assert_eq!(ty, FrameType::BatchAck);
            let ack = BatchAck::decode(&payload).unwrap();
            (ack.seq, ack.status)
        };

        send(1, 1);
        assert_eq!(next_ack(), (1, AckStatus::Applied));
        send(2, 2);
        assert_eq!(next_ack(), (2, AckStatus::Applied));
        // The third source is over the cap. Acks carry only the seq, so
        // the rejected batch's seq (3) is unique: the next ack on the
        // stream must be the following batch's.
        send(3, 3);
        send(1, 4);
        assert_eq!(next_ack(), (4, AckStatus::Applied));
        send(1, 1);
        assert_eq!(next_ack(), (1, AckStatus::Duplicate));
        send(2, 2);
        assert_eq!(next_ack(), (2, AckStatus::Duplicate));

        let published = || {
            metrics
                .snapshot()
                .gauge("digest_server_sources_rejected", None)
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while published() != Some(1) {
            assert!(std::time::Instant::now() < deadline, "gauge not published");
            std::thread::sleep(Duration::from_millis(5));
        }
        let s = server.shutdown();
        assert_eq!(s.sources_rejected, 1);
        assert_eq!(
            (s.batches_applied, s.batches_duplicate, s.acks_sent),
            (3, 2, 5)
        );
    }

    /// Sink calls in order, as `(source, reports)`.
    type Calls = Arc<Mutex<Vec<(u64, Vec<DigestReport>)>>>;

    fn recording_sink() -> (Calls, BatchSink) {
        let calls = Calls::default();
        let sink_calls = Arc::clone(&calls);
        let sink: BatchSink = Box::new(move |source, reports| {
            sink_calls.lock().unwrap().push((source, reports));
        });
        (calls, sink)
    }

    /// A batch of `n` reports whose pids name `(source, seq, index)`.
    fn batch_of(source: u64, seq: u64, n: u64) -> DigestBatch {
        DigestBatch {
            source,
            seq,
            reports: (0..n)
                .map(|i| {
                    let pid = (source << 40) | (seq << 20) | i;
                    DigestReport::new(i % 7, pid, pint_core::Digest::new(1), 3, i)
                })
                .collect(),
            trace: None,
        }
    }

    /// The batches' reports concatenated in order — what one sink call
    /// carrying exactly those batches must hold.
    fn concat(batches: &[&DigestBatch]) -> Vec<DigestReport> {
        batches.iter().flat_map(|b| b.reports.clone()).collect()
    }

    /// Every ack in `bytes`, as `(seq, status)`.
    fn acks_in(bytes: &[u8]) -> Vec<(u64, AckStatus)> {
        let mut reader = FrameReader::new(bytes);
        let mut acks = Vec::new();
        while let Some((ty, payload)) = reader.read_frame().unwrap() {
            assert_eq!(ty, FrameType::BatchAck);
            let ack = BatchAck::decode(&payload).unwrap();
            acks.push((ack.seq, ack.status));
        }
        acks
    }

    /// The handler without a socket: dispatches `payloads` as one
    /// burst and returns the replies it queued.
    fn one_burst(ingest: &mut Ingest, payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut reply = Vec::new();
        for payload in payloads {
            ingest.frame(FrameType::DigestBatch, payload, &mut reply);
        }
        ingest.end_burst();
        reply
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// N frames in one write are one burst: one sink call holding the
    /// N batches' reports in order, N `Applied` acks, and no ack on the
    /// wire before that sink call has returned.
    #[test]
    fn one_write_of_frames_is_one_sink_call_acked_after_it_returns() {
        let metrics = MetricsRegistry::new();
        let calls = Calls::default();
        let returned = Arc::new(Mutex::new(None));
        let (sink_calls, sink_returned) = (Arc::clone(&calls), Arc::clone(&returned));
        let server = DigestServer::bind(
            "127.0.0.1:0",
            DigestServerConfig {
                metrics: Some(metrics.clone()),
                ..DigestServerConfig::default()
            },
            Box::new(move |source, reports| {
                sink_calls.lock().unwrap().push((source, reports));
                // A slow apply: acks must still wait for it.
                std::thread::sleep(Duration::from_millis(100));
                *sink_returned.lock().unwrap() = Some(std::time::Instant::now());
            }),
        )
        .unwrap();
        let batches: Vec<DigestBatch> = (1..=5).map(|seq| batch_of(7, seq, 10)).collect();
        let wire: Vec<u8> = batches.iter().flat_map(|b| b.to_frame_bytes()).collect();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        stream.write_all(&wire).unwrap();

        let mut acks = Vec::new();
        let mut first_ack_at = None;
        for _ in 0..batches.len() {
            let (ty, payload) = reader.read_frame().unwrap().unwrap();
            first_ack_at.get_or_insert_with(std::time::Instant::now);
            assert_eq!(ty, FrameType::BatchAck);
            let ack = BatchAck::decode(&payload).unwrap();
            acks.push((ack.seq, ack.status));
        }
        let expected: Vec<_> = (1..=5).map(|seq| (seq, AckStatus::Applied)).collect();
        assert_eq!(acks, expected);
        wait_for("the sink never returned", || {
            returned.lock().unwrap().is_some()
        });
        let returned = returned.lock().unwrap().unwrap();
        assert!(
            first_ack_at.unwrap() >= returned,
            "an ack reached the peer before its sink call returned"
        );
        let calls = calls.lock().unwrap();
        assert_eq!(calls.len(), 1, "one burst, one sink call");
        let all: Vec<&DigestBatch> = batches.iter().collect();
        assert_eq!(calls[0], (7, concat(&all)));
        drop(calls);
        // Burst telemetry: one sample, holding every applied digest.
        let snap = metrics.snapshot();
        let burst = snap
            .histogram("ingest_burst_digests", None)
            .expect("burst histogram");
        assert_eq!((burst.count(), burst.sum), (1, 50));
        let s = server.shutdown();
        assert_eq!((s.batches_applied, s.digests, s.acks_sent), (5, 50, 5));
    }

    /// A duplicate mid-burst is acked `Duplicate`; an undecodable
    /// payload is counted, unacked and leaves nothing in the burst, and
    /// its good retransmission is applied.
    #[test]
    fn bad_frames_mid_burst_leave_the_burst_intact() {
        let (calls, sink) = recording_sink();
        let mut ingest = Ingest::new(16, sink, &MetricsRegistry::new(), None);
        let (b1, b2, b3) = (batch_of(1, 1, 10), batch_of(1, 2, 10), batch_of(1, 3, 10));
        // Cut into the last report: the header and nine reports decode,
        // the tenth does not.
        let mut torn = b2.encode();
        torn.truncate(torn.len() - 3);
        let reply = one_burst(
            &mut ingest,
            &[b1.encode(), torn, b1.encode(), b3.encode(), b2.encode()],
        );
        assert_eq!(
            acks_in(&reply),
            vec![
                (1, AckStatus::Applied),
                (1, AckStatus::Duplicate),
                (3, AckStatus::Applied),
                (2, AckStatus::Applied),
            ]
        );
        assert_eq!(*calls.lock().unwrap(), vec![(1, concat(&[&b1, &b3, &b2]))]);
        let s = ingest.stats;
        assert_eq!(
            (s.payload_errors, s.batches_applied, s.batches_duplicate),
            (1, 3, 1)
        );
        assert_eq!(s.digests, 30);
    }

    /// Batches from two sources on one connection are two sink calls,
    /// each with one source's reports only.
    #[test]
    fn two_sources_in_one_burst_are_two_sink_calls() {
        let (calls, sink) = recording_sink();
        let mut ingest = Ingest::new(16, sink, &MetricsRegistry::new(), None);
        let (a1, a2) = (batch_of(1, 1, 4), batch_of(1, 2, 4));
        let (b1, b2) = (batch_of(2, 1, 4), batch_of(2, 2, 4));
        let reply = one_burst(
            &mut ingest,
            &[a1.encode(), a2.encode(), b1.encode(), b2.encode()],
        );
        assert_eq!(acks_in(&reply).len(), 4);
        assert_eq!(
            *calls.lock().unwrap(),
            vec![(1, concat(&[&a1, &a2])), (2, concat(&[&b1, &b2]))]
        );
    }

    /// A framing error right after valid frames in the same read drops
    /// the connection, but the frames before it are applied — once.
    #[test]
    fn frames_before_a_framing_error_are_applied_exactly_once() {
        let (calls, sink) = recording_sink();
        let server =
            DigestServer::bind("127.0.0.1:0", DigestServerConfig::default(), sink).unwrap();
        let batches: Vec<DigestBatch> = (1..=3).map(|seq| batch_of(4, seq, 6)).collect();
        let frames: Vec<u8> = batches.iter().flat_map(|b| b.to_frame_bytes()).collect();
        let mut poisoned = frames.clone();
        poisoned.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&poisoned).unwrap();
        wait_for("the frames before the garbage were never applied", || {
            !calls.lock().unwrap().is_empty()
        });
        expect_closed(&mut stream, Duration::from_secs(10), "garbage peer");
        let all: Vec<&DigestBatch> = batches.iter().collect();
        assert_eq!(*calls.lock().unwrap(), vec![(4, concat(&all))]);

        // The acks went down with the connection; the retransmission is
        // recognized, not applied again.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        stream.write_all(&frames).unwrap();
        for seq in 1..=3 {
            let (_, payload) = reader.read_frame().unwrap().unwrap();
            let ack = BatchAck::decode(&payload).unwrap();
            assert_eq!((ack.seq, ack.status), (seq, AckStatus::Duplicate));
        }
        assert_eq!(calls.lock().unwrap().len(), 1);
        let s = server.shutdown();
        assert_eq!(s.framing_errors, 1);
        assert_eq!((s.batches_applied, s.batches_duplicate), (3, 3));
    }

    /// A burst whose frames sum past `MAX_BATCH_REPORTS` is split: no
    /// sink call holds more than that (plus at most one frame), and the
    /// calls together hold every report in order.
    #[test]
    fn bursts_past_max_batch_reports_are_split() {
        let (calls, sink) = recording_sink();
        let mut ingest = Ingest::new(16, sink, &MetricsRegistry::new(), None);
        let per_frame = 20_000u64;
        let batches: Vec<DigestBatch> = (1..=5).map(|seq| batch_of(3, seq, per_frame)).collect();
        let payloads: Vec<Vec<u8>> = batches.iter().map(|b| b.encode()).collect();
        one_burst(&mut ingest, &payloads);
        let calls = calls.lock().unwrap();
        assert!(calls.len() > 1, "a 100 000-report burst went in one call");
        for (source, reports) in calls.iter() {
            assert_eq!(*source, 3);
            assert!(reports.len() <= MAX_BATCH_REPORTS + per_frame as usize);
        }
        let delivered: Vec<DigestReport> = calls.iter().flat_map(|(_, r)| r.clone()).collect();
        let all: Vec<&DigestBatch> = batches.iter().collect();
        assert!(delivered == concat(&all), "reports lost or reordered");
    }

    #[test]
    fn server_survives_garbage_slow_and_half_open_peers() {
        let query = QueryRequest {
            request_id: 1,
            plan: TelemetryQuery::new().stats().plan().unwrap(),
        }
        .to_frame_bytes();

        // The digest server, with a short deadline and a counting sink.
        let digest = std::thread::spawn(|| {
            let applied = Arc::new(Mutex::new(0u64));
            let sink_applied = Arc::clone(&applied);
            let deadline = Duration::from_millis(100);
            let server = DigestServer::bind(
                "127.0.0.1:0",
                DigestServerConfig {
                    read_deadline: deadline,
                    ..DigestServerConfig::default()
                },
                Box::new(move |_src, reports| {
                    *sink_applied.lock().unwrap() += reports.len() as u64;
                }),
            )
            .unwrap();
            let batch = DigestBatch {
                source: 1,
                seq: 1,
                reports: vec![DigestReport::new(9, 100, pint_core::Digest::new(1), 3, 0)],
                trace: None,
            };
            let ack = survives_hostile_peers(
                server.local_addr(),
                deadline,
                &batch.to_frame_bytes(),
                FrameType::BatchAck,
            );
            let ack = BatchAck::decode(&ack).unwrap();
            assert_eq!((ack.seq, ack.status), (1, AckStatus::Applied));
            assert_eq!(*applied.lock().unwrap(), 1);
            let s = server.shutdown();
            assert!(s.framing_errors >= 1 && s.stalled_dropped >= 1, "{s:?}");
            assert_eq!((s.batches_applied, s.digests, s.acks_sent), (1, 1, 1));
        });

        // The fleet and query servers run the core's default deadline.
        let fleet_query = query.clone();
        let fleet = std::thread::spawn(move || {
            let server = FleetServer::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
            survives_hostile_peers(
                server.local_addr(),
                READ_DEADLINE,
                &fleet_query,
                FrameType::QueryResponse,
            );
            assert!(server.with_aggregator(|a| a.stats().decode_errors) >= 1);
        });
        let responder = QueryResponder::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        survives_hostile_peers(
            responder.local_addr(),
            READ_DEADLINE,
            &query,
            FrameType::QueryResponse,
        );
        digest.join().unwrap();
        fleet.join().unwrap();
    }
}
