//! The edge side of digest shipping: a [`DigestForwarder`] tails a
//! digest sink at an edge process and ships sequence-numbered
//! [`DigestBatch`] frames upstream to a
//! [`DigestServer`](crate::DigestServer).
//!
//! The hot path ([`push`](DigestForwarder::push)) never touches the
//! network: it buffers into the current batch and, when the batch
//! seals, moves it onto a bounded pending queue. A background worker
//! owns the socket — connecting with exponential backoff plus seeded
//! jitter, (re)transmitting pending batches oldest-first, and retiring
//! them as [`BatchAck`] frames come back. Under overload or a long
//! outage the queue sheds its **oldest** batch (counted, never
//! silent) instead of blocking the edge.
//!
//! Delivery is at-least-once with exact accounting: every sealed
//! batch ends in exactly one of `delivered`, `deduped`, or `shed`, so
//! after [`shutdown`](DigestForwarder::shutdown)
//! `delivered + deduped + shed == sent` holds exactly
//! ([`ForwarderStats::accounted`]).

use pint_core::hash::mix64;
use pint_core::DigestReport;
use pint_obs::{ClockHandle, FlightRecorder, GaugeGroup, MetricsRegistry, TraceStage};
use pint_store::SpillQueue;
use pint_wire::{
    parse_frame, AckStatus, BatchAck, DigestBatch, FaultInjector, FrameReader, FrameType,
    TraceContext, WireDecode,
};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the worker blocks waiting for acks before re-checking the
/// queue for due retransmissions.
const ACK_POLL: Duration = Duration::from_millis(5);

/// Tuning knobs of a [`DigestForwarder`].
#[derive(Debug, Clone, Copy)]
pub struct ForwarderConfig {
    /// Identifies this edge process in every batch; the server dedups
    /// per source, so two forwarders must not share an id.
    pub source: u64,
    /// Digests per sealed batch.
    pub batch_digests: usize,
    /// Sealed batches buffered while upstream is slow or down; beyond
    /// this the **oldest** batch is shed (counted in
    /// [`ForwarderStats::shed`]).
    pub queue_batches: usize,
    /// First reconnect delay; doubles per failure up to `retry_max`.
    pub retry_base: Duration,
    /// Reconnect delay ceiling.
    pub retry_max: Duration,
    /// Retransmit a sent-but-unacked batch after this long.
    pub rto: Duration,
    /// Seeds the backoff jitter (deterministic per seed).
    pub seed: u64,
}

impl Default for ForwarderConfig {
    fn default() -> Self {
        Self {
            source: 0,
            batch_digests: 128,
            queue_batches: 64,
            retry_base: Duration::from_millis(10),
            retry_max: Duration::from_secs(1),
            rto: Duration::from_millis(100),
            seed: 0,
        }
    }
}

/// Live counters of a [`DigestForwarder`]. Batch counters satisfy
/// `delivered + deduped + shed == sent` once the forwarder has shut
/// down (while running, recently sealed batches may still be in
/// flight).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwarderStats {
    /// Batches sealed onto the pending queue.
    pub sent: u64,
    /// Batches acked `Applied` while still pending.
    pub delivered: u64,
    /// Batches acked `Duplicate` while still pending — the wire
    /// delivered a retransmission twice; the data was applied once.
    pub deduped: u64,
    /// Batches dropped: queue overflow while upstream lagged, plus any
    /// still undelivered when `shutdown`'s drain window expired.
    pub shed: u64,
    /// Extra transmissions beyond the first per batch.
    pub retransmits: u64,
    /// Connections established after the first.
    pub reconnects: u64,
    /// Digests pushed into the forwarder.
    pub digests: u64,
    /// Digests inside delivered or deduped batches.
    pub digests_delivered: u64,
    /// Digests inside shed batches.
    pub digests_shed: u64,
    /// Batches displaced from a full queue into the on-disk spill
    /// instead of being shed ([`DigestForwarder::connect_spilling`]).
    /// A spilled batch is not yet accounted: it re-enters the queue
    /// (`resumed`) when the link catches up, or is counted as shed at
    /// shutdown if still on disk (where it stays persisted for a
    /// successor forwarder to resume).
    pub spilled: u64,
    /// Batches resumed from the spill back onto the pending queue —
    /// including leftovers persisted by a previous run, which are
    /// counted into `sent` (and `digests`) at resumption so
    /// [`accounted`](Self::accounted) stays exact per run.
    pub resumed: u64,
}

impl ForwarderStats {
    /// Whether every sealed batch has been accounted for — holds
    /// exactly after [`DigestForwarder::shutdown`].
    pub fn accounted(&self) -> bool {
        self.delivered + self.deduped + self.shed == self.sent
    }
}

/// One sealed batch awaiting an ack.
struct Pending {
    seq: u64,
    frame: Vec<u8>,
    digests: u64,
    /// When it last went on the wire; `None` = due for (re)send.
    sent_at: Option<Instant>,
}

/// `set_all` field order of the per-source `forwarder` gauge group.
/// `in_flight` is the live pending-queue depth, which closes the
/// accounting mid-run: `delivered + deduped + shed + in_flight ==
/// sent` holds in *every* published snapshot, not only after shutdown
/// — the group is republished whole under the state mutex at each
/// transition, so a concurrent reader can never observe a batch that
/// is in no bucket. With a spill attached the mid-run equation gains
/// the on-disk bucket: `... + in_flight + spill_depth == sent`
/// (modulo prior-run leftovers, which enter `sent` only on resume).
const FORWARDER_OBS_FIELDS: [&str; 14] = [
    "source",
    "sent",
    "delivered",
    "deduped",
    "shed",
    "in_flight",
    "retransmits",
    "reconnects",
    "digests",
    "digests_delivered",
    "digests_shed",
    "spilled",
    "resumed",
    "spill_depth",
];

struct Inner {
    queue: VecDeque<Pending>,
    batch: Vec<DigestReport>,
    next_seq: u64,
    stats: ForwarderStats,
    stop: bool,
    source: u64,
    obs: GaugeGroup,
    /// Stamps each sealed batch's trace-context origin timestamp —
    /// the metrics registry's clock, so simulations share one
    /// `VirtualClock` across stamping and recording.
    clock: ClockHandle,
    /// Flight recorder for `ForwarderSealed` events, when tracing.
    recorder: Option<FlightRecorder>,
    /// Durable overflow: batches a full queue would shed go here
    /// instead and resume when the link catches up.
    spill: Option<SpillQueue>,
    /// `(batches, digests)` still in the spill from a *previous* run —
    /// not in this run's `sent`; counted in as they resume.
    spill_leftover: (u64, u64),
}

impl Inner {
    /// Republishes the whole gauge group from the current stats +
    /// queue depth, under the state mutex — the mid-flight invariant
    /// `delivered + deduped + shed + in_flight == sent` is intact in
    /// every snapshot. (The `digests` gauge advances at seal/ack
    /// granularity, not per push.)
    fn publish_obs(&self) {
        let s = &self.stats;
        self.obs.set_all(&[
            self.source,
            s.sent,
            s.delivered,
            s.deduped,
            s.shed,
            self.queue.len() as u64,
            s.retransmits,
            s.reconnects,
            s.digests,
            s.digests_delivered,
            s.digests_shed,
            s.spilled,
            s.resumed,
            self.spill.as_ref().map(|s| s.len() as u64).unwrap_or(0),
        ]);
    }

    /// Moves a displaced pending batch into the spill. `false` (caller
    /// sheds instead) without a spill or when the disk write fails —
    /// durability degrades before correctness does.
    fn spill_displaced(&mut self, old: &Pending) -> bool {
        let Some(spill) = &mut self.spill else {
            return false;
        };
        // The pending entry holds the encoded frame; the spill stores
        // decoded batches, so round-trip it (overload path only).
        let Ok((FrameType::DigestBatch, payload)) = parse_frame(&old.frame) else {
            return false;
        };
        let Ok(batch) = DigestBatch::decode(payload) else {
            return false;
        };
        spill.push(&batch).is_ok()
    }

    /// Seals the current batch onto the queue, shedding the oldest
    /// pending batch if the queue is full.
    fn seal(&mut self, config: &ForwarderConfig) {
        if self.batch.is_empty() {
            return;
        }
        let reports = std::mem::take(&mut self.batch);
        let digests = reports.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        // Every batch carries its origin stamp; the trace id is
        // derived deterministically from (source, seq) so same-seed
        // runs produce identical ids without a randomness source.
        let origin_ns = self.clock.now_ns();
        let trace = TraceContext {
            origin_ns,
            trace_id: mix64(config.source ^ mix64(seq)),
        };
        if let Some(rec) = &self.recorder {
            rec.record_at(
                config.source as u32,
                TraceStage::ForwarderSealed,
                config.source,
                seq,
                origin_ns,
            );
        }
        let frame = DigestBatch {
            source: config.source,
            seq,
            reports,
            trace: Some(trace),
        }
        .to_frame_bytes();
        if self.queue.len() >= config.queue_batches {
            if let Some(old) = self.queue.pop_front() {
                if self.spill_displaced(&old) {
                    self.stats.spilled += 1;
                } else {
                    self.stats.shed += 1;
                    self.stats.digests_shed += old.digests;
                }
            }
        }
        self.queue.push_back(Pending {
            seq,
            frame,
            digests,
            sent_at: None,
        });
        self.stats.sent += 1;
        self.publish_obs();
    }

    /// Moves spilled batches back onto the pending queue while it has
    /// headroom (only up to half the queue bound, so resumed batches
    /// are not immediately displaced again by fresh seals). Called by
    /// the worker each transmit pass, under the state mutex.
    ///
    /// Leftovers persisted by a previous run enter this run's books at
    /// resumption: `sent` and `digests` advance with them, keeping
    /// `delivered + deduped + shed == sent` exact per run.
    fn resume_spilled(&mut self, config: &ForwarderConfig) {
        let mut moved = false;
        while self.queue.len() < config.queue_batches.div_ceil(2) {
            let popped = match &mut self.spill {
                Some(spill) => spill.pop(),
                None => Ok(None),
            };
            match popped {
                Ok(Some(batch)) => {
                    let digests = batch.reports.len() as u64;
                    self.queue.push_back(Pending {
                        seq: batch.seq,
                        frame: batch.to_frame_bytes(),
                        digests,
                        sent_at: None,
                    });
                    self.stats.resumed += 1;
                    if self.spill_leftover.0 > 0 {
                        self.spill_leftover.0 -= 1;
                        self.spill_leftover.1 = self.spill_leftover.1.saturating_sub(digests);
                        self.stats.sent += 1;
                        self.stats.digests += digests;
                    }
                    moved = true;
                }
                Ok(None) => break,
                Err(_) => {
                    // A torn or corrupt record is consumed by the
                    // failed pop; book it as shed so no batch of this
                    // run silently vanishes from the accounting.
                    if self.spill_leftover.0 > 0 {
                        self.spill_leftover.0 -= 1;
                    } else {
                        self.stats.shed += 1;
                    }
                }
            }
        }
        if moved {
            self.publish_obs();
        }
    }

    /// Retires the pending batch `ack` covers, if it is still queued.
    /// A late ack for an already-shed batch changes nothing — that
    /// batch was already accounted as shed.
    fn apply_ack(&mut self, ack: &BatchAck) {
        if let Some(pos) = self.queue.iter().position(|p| p.seq == ack.seq) {
            let p = self.queue.remove(pos).expect("position just found");
            match ack.status {
                AckStatus::Applied => self.stats.delivered += 1,
                AckStatus::Duplicate => self.stats.deduped += 1,
            }
            self.stats.digests_delivered += p.digests;
            self.publish_obs();
        }
    }
}

/// The edge-side shipping half of the ingest path (see module docs;
/// a usage example lives on [`DigestServer`](crate::DigestServer)).
pub struct DigestForwarder {
    shared: Arc<(Mutex<Inner>, Condvar)>,
    config: ForwarderConfig,
    worker: Option<JoinHandle<()>>,
    metrics: MetricsRegistry,
}

impl DigestForwarder {
    /// Starts a forwarder shipping to `addr`. The connection is
    /// established (and re-established) in the background; pushes
    /// before or between connections just queue.
    pub fn connect(addr: SocketAddr, config: ForwarderConfig) -> Self {
        Self::spawn(addr, config, None, MetricsRegistry::new(), None, None)
    }

    /// Like [`connect`](Self::connect), publishing the per-source
    /// `forwarder` gauge group (queue depth, delivery accounting) into
    /// a shared registry. The group is sharded by the low 32 bits of
    /// [`ForwarderConfig::source`], with the full id carried in the
    /// `forwarder_source` field.
    pub fn connect_observed(
        addr: SocketAddr,
        config: ForwarderConfig,
        metrics: MetricsRegistry,
    ) -> Self {
        Self::spawn(addr, config, None, metrics, None, None)
    }

    /// Like [`connect_observed`](Self::connect_observed), with a
    /// durable overflow: batches a full pending queue would shed are
    /// spilled to `spill`'s on-disk log instead and resume
    /// (oldest-first) once the link catches up — so an outage longer
    /// than the in-memory queue becomes persist-and-resume, not loss.
    /// Batches still spilled at [`shutdown`](Self::shutdown) are
    /// counted as shed for this run's accounting but stay persisted;
    /// a successor forwarder opened on the same spill file resumes
    /// them (counting them into its own `sent` as it does, and
    /// numbering its fresh batches above [`SpillQueue::max_seq`] so
    /// generations never collide). Delivery stays at-least-once: the
    /// receiver's per-source dedup absorbs any replays.
    pub fn connect_spilling(
        addr: SocketAddr,
        config: ForwarderConfig,
        metrics: MetricsRegistry,
        spill: SpillQueue,
    ) -> Self {
        Self::spawn(addr, config, None, metrics, None, Some(spill))
    }

    /// Like [`connect_observed`](Self::connect_observed), additionally
    /// recording a [`TraceStage::ForwarderSealed`] event into
    /// `recorder` for every sealed batch. Pair the recorder's clock
    /// with the registry's ([`MetricsRegistry::with_clock`]) so event
    /// ticks and trace-context stamps share one time base.
    pub fn connect_traced(
        addr: SocketAddr,
        config: ForwarderConfig,
        metrics: MetricsRegistry,
        recorder: FlightRecorder,
    ) -> Self {
        Self::spawn(addr, config, None, metrics, Some(recorder), None)
    }

    /// Like [`connect`](Self::connect), but every outgoing frame
    /// passes through `faults` — the test/chaos hook that drops,
    /// duplicates, reorders, corrupts, truncates, and stalls frames
    /// deterministically.
    pub fn connect_faulty(
        addr: SocketAddr,
        config: ForwarderConfig,
        faults: FaultInjector,
    ) -> Self {
        Self::spawn(
            addr,
            config,
            Some(faults),
            MetricsRegistry::new(),
            None,
            None,
        )
    }

    fn spawn(
        addr: SocketAddr,
        config: ForwarderConfig,
        faults: Option<FaultInjector>,
        metrics: MetricsRegistry,
        recorder: Option<FlightRecorder>,
        spill: Option<SpillQueue>,
    ) -> Self {
        let obs =
            metrics.gauge_group_shard("forwarder", config.source as u32, &FORWARDER_OBS_FIELDS);
        // A reopened spill may hold leftovers from a previous run; they
        // join this run's accounting as they resume, and fresh batches
        // are numbered above anything ever spilled so the two
        // generations never collide at the receiver's dedup window.
        let spill_leftover = spill
            .as_ref()
            .map(|s| (s.len() as u64, s.digests()))
            .unwrap_or((0, 0));
        let next_seq = spill.as_ref().map(|s| s.max_seq() + 1).unwrap_or(1);
        let shared = Arc::new((
            Mutex::new(Inner {
                queue: VecDeque::new(),
                batch: Vec::new(),
                next_seq,
                stats: ForwarderStats::default(),
                stop: false,
                source: config.source,
                obs,
                clock: metrics.clock(),
                recorder,
                spill,
                spill_leftover,
            }),
            Condvar::new(),
        ));
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("pint-digest-forward".into())
            .spawn(move || worker_loop(addr, config, faults, worker_shared))
            .expect("spawn digest forwarder thread");
        Self {
            shared,
            config,
            worker: Some(worker),
            metrics,
        }
    }

    /// The registry the `forwarder` gauge group publishes into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Queues one digest; never blocks on the network. Seals a batch
    /// onto the pending queue every
    /// [`batch_digests`](ForwarderConfig::batch_digests) pushes.
    pub fn push(&self, report: DigestReport) {
        push_into(&self.shared, &self.config, report);
    }

    /// Seals the partial batch, if any, so it ships without waiting to
    /// fill.
    pub fn flush(&self) {
        let (lock, cvar) = &*self.shared;
        let mut inner = lock.lock().expect("forwarder state poisoned");
        inner.seal(&self.config);
        cvar.notify_all();
    }

    /// A `FnMut(DigestReport)` handle for plumbing this forwarder in
    /// as an edge digest sink without sharing the forwarder itself.
    pub fn digest_sink(&self) -> impl FnMut(DigestReport) + Send + 'static {
        let shared = Arc::clone(&self.shared);
        let config = self.config;
        move |report| push_into(&shared, &config, report)
    }

    /// A copy of the live counters.
    pub fn stats(&self) -> ForwarderStats {
        self.shared
            .0
            .lock()
            .expect("forwarder state poisoned")
            .stats
    }

    /// Flushes, waits up to `drain` for the queue (and any attached
    /// spill) to empty, then stops the worker. Batches still
    /// undelivered when the window expires are shed (counted), so the
    /// returned stats always satisfy [`ForwarderStats::accounted`] —
    /// though batches shed *from the spill* remain persisted on disk
    /// for a successor forwarder to resume.
    pub fn shutdown(mut self, drain: Duration) -> ForwarderStats {
        self.flush();
        let deadline = Instant::now() + drain;
        let (lock, cvar) = &*self.shared;
        {
            let draining = |inner: &Inner| {
                !inner.queue.is_empty() || inner.spill.as_ref().is_some_and(|s| !s.is_empty())
            };
            let mut inner = lock.lock().expect("forwarder state poisoned");
            while draining(&inner) && Instant::now() < deadline {
                let (guard, _timeout) = cvar
                    .wait_timeout(inner, Duration::from_millis(10))
                    .expect("forwarder state poisoned");
                inner = guard;
            }
            while let Some(p) = inner.queue.pop_front() {
                inner.stats.shed += 1;
                inner.stats.digests_shed += p.digests;
            }
            // Batches still spilled are shed from *this run's* books
            // (leftovers a prior run persisted were never in this
            // run's `sent` and stay off them) — but the file keeps
            // them, so a successor forwarder resumes rather than
            // loses them.
            if let Some((batches, digests)) =
                inner.spill.as_ref().map(|s| (s.len() as u64, s.digests()))
            {
                inner.stats.shed += batches.saturating_sub(inner.spill_leftover.0);
                inner.stats.digests_shed += digests.saturating_sub(inner.spill_leftover.1);
            }
            inner.publish_obs();
            inner.stop = true;
            cvar.notify_all();
        }
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        let stats = self.stats();
        debug_assert!(stats.accounted(), "unaccounted batches: {stats:?}");
        stats
    }
}

impl Drop for DigestForwarder {
    fn drop(&mut self) {
        self.shared.0.lock().expect("forwarder state poisoned").stop = true;
        self.shared.1.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// The one body behind [`DigestForwarder::push`] and
/// [`DigestForwarder::digest_sink`]: buffers `report`, sealing the
/// batch onto the pending queue when it is full.
fn push_into(shared: &(Mutex<Inner>, Condvar), config: &ForwarderConfig, report: DigestReport) {
    let (lock, cvar) = shared;
    let mut inner = lock.lock().expect("forwarder state poisoned");
    inner.stats.digests += 1;
    inner.batch.push(report);
    if inner.batch.len() >= config.batch_digests {
        inner.seal(config);
        cvar.notify_all();
    }
}

fn worker_loop(
    addr: SocketAddr,
    config: ForwarderConfig,
    mut faults: Option<FaultInjector>,
    shared: Arc<(Mutex<Inner>, Condvar)>,
) {
    let (lock, cvar) = &*shared;
    let mut backoff = config.retry_base;
    let mut jitter_state = config.seed;
    let mut connected_before = false;
    'connect: loop {
        if lock.lock().expect("forwarder state poisoned").stop {
            return;
        }
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                // Exponential backoff with deterministic jitter, so a
                // fleet of forwarders does not thunder back in sync.
                jitter_state = jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let jitter_ns = mix64(jitter_state) % (backoff.as_nanos().max(1) as u64 / 2 + 1);
                std::thread::sleep(backoff + Duration::from_nanos(jitter_ns));
                backoff = (backoff * 2).min(config.retry_max);
                continue;
            }
        };
        backoff = config.retry_base;
        if connected_before {
            let mut inner = lock.lock().expect("forwarder state poisoned");
            inner.stats.reconnects += 1;
            inner.publish_obs();
        }
        connected_before = true;
        stream.set_nodelay(true).ok();
        if stream.set_read_timeout(Some(ACK_POLL)).is_err() {
            continue;
        }
        let reader_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let mut reader = FrameReader::new(reader_stream);
        let mut writer = stream;
        // Everything unacked must be assumed lost with the old
        // connection: mark it due for retransmission.
        for p in &mut lock.lock().expect("forwarder state poisoned").queue {
            p.sent_at = None;
        }

        loop {
            // Collect frames due for (re)transmission without holding
            // the lock across socket writes.
            let due: Vec<Vec<u8>> = {
                let mut guard = lock.lock().expect("forwarder state poisoned");
                if guard.stop {
                    return;
                }
                let inner = &mut *guard;
                // The link is up and we hold the lock: pull spilled
                // batches back in while the queue has headroom.
                inner.resume_spilled(&config);
                let now = Instant::now();
                let rto = config.rto;
                let mut frames = Vec::new();
                for p in &mut inner.queue {
                    let resend = match p.sent_at {
                        None => true,
                        Some(at) => now.duration_since(at) >= rto,
                    };
                    if resend {
                        if p.sent_at.is_some() {
                            inner.stats.retransmits += 1;
                        }
                        p.sent_at = Some(now);
                        frames.push(p.frame.clone());
                    }
                }
                if !frames.is_empty() {
                    inner.publish_obs();
                }
                frames
            };
            for frame in &due {
                let sent = match &mut faults {
                    Some(inj) => inj.transmit(frame, &mut writer),
                    None => writer.write_all(frame),
                };
                if sent.is_err() {
                    continue 'connect;
                }
            }
            if !due.is_empty() && writer.flush().is_err() {
                continue 'connect;
            }

            // Drain acks; the read timeout doubles as the pacing tick.
            match reader.read_frame() {
                Ok(Some((FrameType::BatchAck, payload))) => {
                    if let Ok(ack) = BatchAck::decode(&payload) {
                        let mut inner = lock.lock().expect("forwarder state poisoned");
                        inner.apply_ack(&ack);
                        cvar.notify_all();
                    }
                }
                Ok(Some(_)) => {} // tolerate unrelated frames
                Ok(None) => continue 'connect,
                Err(pint_wire::ReadFrameError::Io(e))
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => continue 'connect,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{DigestServer, DigestServerConfig};
    use pint_core::Digest;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn report(flow: u64, pid: u64) -> DigestReport {
        DigestReport::new(flow, pid, Digest::new(1), 3, pid)
    }

    #[test]
    fn delivers_exactly_once_over_clean_loopback() {
        let applied = Arc::new(AtomicU64::new(0));
        let sink_applied = Arc::clone(&applied);
        let server = DigestServer::bind(
            "127.0.0.1:0",
            DigestServerConfig::default(),
            Box::new(move |_src, reports| {
                sink_applied.fetch_add(reports.len() as u64, Ordering::Relaxed);
            }),
        )
        .unwrap();
        let fwd = DigestForwarder::connect(
            server.local_addr(),
            ForwarderConfig {
                source: 1,
                batch_digests: 16,
                ..ForwarderConfig::default()
            },
        );
        for pid in 0..100 {
            fwd.push(report(pid % 7, pid));
        }
        let stats = fwd.shutdown(Duration::from_secs(10));
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(stats.shed, 0, "clean link sheds nothing: {stats:?}");
        assert_eq!(stats.digests, 100);
        assert_eq!(stats.digests_delivered, 100);
        assert_eq!(applied.load(Ordering::Relaxed), 100);
        let s = server.shutdown();
        assert_eq!(s.digests, 100);
    }

    #[test]
    fn queues_through_an_outage_and_reconnects() {
        // Reserve an address with no listener yet.
        let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = placeholder.local_addr().unwrap();
        drop(placeholder);

        let fwd = DigestForwarder::connect(
            addr,
            ForwarderConfig {
                source: 2,
                batch_digests: 8,
                retry_base: Duration::from_millis(5),
                retry_max: Duration::from_millis(50),
                ..ForwarderConfig::default()
            },
        );
        for pid in 0..40 {
            fwd.push(report(1, pid));
        }
        fwd.flush();
        std::thread::sleep(Duration::from_millis(50)); // outage window

        // Upstream comes back on the same port.
        let applied = Arc::new(AtomicU64::new(0));
        let sink_applied = Arc::clone(&applied);
        let server = DigestServer::bind(
            addr,
            DigestServerConfig::default(),
            Box::new(move |_src, reports| {
                sink_applied.fetch_add(reports.len() as u64, Ordering::Relaxed);
            }),
        )
        .unwrap();
        let stats = fwd.shutdown(Duration::from_secs(10));
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(
            stats.digests_delivered + stats.digests_shed,
            40,
            "{stats:?}"
        );
        assert_eq!(stats.shed, 0, "queue never overflowed: {stats:?}");
        assert_eq!(applied.load(Ordering::Relaxed), 40);
        server.shutdown();
    }

    #[test]
    fn sheds_oldest_when_upstream_never_appears() {
        let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = placeholder.local_addr().unwrap();
        drop(placeholder);

        let fwd = DigestForwarder::connect(
            addr,
            ForwarderConfig {
                source: 3,
                batch_digests: 1,
                queue_batches: 4,
                retry_base: Duration::from_millis(5),
                retry_max: Duration::from_millis(20),
                ..ForwarderConfig::default()
            },
        );
        for pid in 0..20 {
            fwd.push(report(1, pid)); // each push seals a batch
        }
        let stats = fwd.shutdown(Duration::from_millis(100));
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(stats.sent, 20);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.shed, 20, "everything sheds: {stats:?}");
        assert_eq!(stats.digests_shed, 20);
    }
}
