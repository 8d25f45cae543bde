//! The edge side of digest shipping: a [`DigestForwarder`] tails a
//! digest sink at an edge process and ships sequence-numbered
//! [`DigestBatch`] frames upstream to a
//! [`DigestServer`](crate::DigestServer).
//!
//! The hot path ([`push`](DigestForwarder::push)) never touches the
//! network: it buffers into the current batch and, when the batch
//! seals, moves it onto a bounded pending queue. Under overload or a
//! long outage the queue sheds its **oldest** batch (counted, never
//! silent) instead of blocking the edge.
//!
//! Two locks keep the producers off the connection threads' lock. The
//! open batch and the next sequence number sit behind their own
//! producer-side lock (`Open`), which `push` takes per digest. The
//! queue, the counters and the link sit behind the state lock
//! (`Inner`), shared with the two connection threads; a producer
//! takes it once per seal, after encoding the frame, only to enqueue
//! it. Lock order: `Open` before `Inner`, never the reverse.
//!
//! Two threads serve each connection, and events, not timers, wake
//! both. The **writer** owns the connection: it connects with
//! exponential backoff plus seeded jitter, then sleeps on the state
//! condvar until a batch is sealed or resumed from the spill, the
//! oldest unacked batch reaches its [`rto`](ForwarderConfig::rto)
//! deadline, the link drops, or the forwarder stops — and writes what
//! is due, oldest-first. The **ack reader** blocks on the socket with
//! no read timeout and retires each [`BatchAck`] the moment it
//! arrives; on EOF or an error it marks the link down and wakes the
//! writer, which shuts the socket down, joins the reader, and
//! reconnects.
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
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Shared with the writer while it is on the wire, so a
    /// (re)transmission never copies it.
    frame: Arc<[u8]>,
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

/// The producer side: the batch being filled and the sequence number
/// its seal will take. A seal holds this lock until its frame is
/// queued, so batches enter the queue in sequence order and
/// [`DigestForwarder::stats`] (which takes both locks, in order) counts
/// every pushed digest exactly once.
struct Open {
    batch: Vec<DigestReport>,
    next_seq: u64,
    /// Stamps each sealed batch's trace-context origin timestamp —
    /// the metrics registry's clock, so simulations share one
    /// `VirtualClock` across stamping and recording.
    clock: ClockHandle,
    /// Flight recorder for `ForwarderSealed` events, when tracing.
    recorder: Option<FlightRecorder>,
}

impl Open {
    /// Seals the open batch, if any, and queues it on `shared`.
    fn seal(&mut self, shared: &(Mutex<Inner>, Condvar), config: &ForwarderConfig) {
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
        .to_frame_bytes()
        .into();
        let sealed = Pending {
            seq,
            frame,
            digests,
            sent_at: None,
        };
        let (lock, cvar) = shared;
        lock.lock()
            .expect("forwarder state poisoned")
            .enqueue(sealed, config);
        cvar.notify_all();
    }
}

struct Inner {
    queue: VecDeque<Pending>,
    /// `digests` counts sealed digests here; the open batch's join it
    /// in [`DigestForwarder::stats`].
    stats: ForwarderStats,
    stop: bool,
    /// Something new is due on the wire — a sealed or resumed batch,
    /// or a fresh connection — so the writer must take a pass.
    due: bool,
    /// The live connection, so [`DigestForwarder`] can shut it down and
    /// unblock both threads when it stops; `None` between connections.
    link: Option<TcpStream>,
    /// Set by the ack reader when the connection fails; the writer then
    /// tears it down and reconnects.
    link_down: bool,
    source: u64,
    obs: GaugeGroup,
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
    /// every snapshot. (The `digests` gauge counts sealed digests: it
    /// advances per seal, not per push.)
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

    /// Queues a sealed batch, shedding (or spilling) the oldest
    /// pending batch if the queue is full.
    fn enqueue(&mut self, sealed: Pending, config: &ForwarderConfig) {
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
        self.stats.sent += 1;
        self.stats.digests += sealed.digests;
        self.queue.push_back(sealed);
        self.due = true;
        self.publish_obs();
    }

    /// Moves spilled batches back onto the pending queue while it has
    /// headroom (only up to half the queue bound, so resumed batches
    /// are not immediately displaced again by fresh seals). Called by
    /// the writer each transmit pass, under the state mutex.
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
                        frame: batch.to_frame_bytes().into(),
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
    /// batch was already accounted as shed. `true` when a waiter needs
    /// waking: the queue drained (a draining `shutdown`), or the ack
    /// freed the headroom spilled batches resume into, which marks the
    /// queue due so the writer resumes them.
    fn apply_ack(&mut self, ack: &BatchAck, config: &ForwarderConfig) -> bool {
        let Some(pos) = self.queue.iter().position(|p| p.seq == ack.seq) else {
            return false;
        };
        let p = self.queue.remove(pos).expect("position just found");
        match ack.status {
            AckStatus::Applied => self.stats.delivered += 1,
            AckStatus::Duplicate => self.stats.deduped += 1,
        }
        self.stats.digests_delivered += p.digests;
        self.publish_obs();
        let resume = !self.due
            && self.queue.len() < config.queue_batches.div_ceil(2)
            && self.spill.as_ref().is_some_and(|s| !s.is_empty());
        self.due |= resume;
        resume || self.queue.is_empty()
    }

    /// Collects the frames due on the wire — unsent batches and those
    /// whose `rto` ran out — and stamps them sent. Returns the earliest
    /// retransmit deadline left; an ack that retires that batch only
    /// makes the writer's next wake-up early.
    fn take_due(
        &mut self,
        config: &ForwarderConfig,
        frames: &mut Vec<Arc<[u8]>>,
    ) -> Option<Instant> {
        self.due = false;
        // The link is up and we hold the lock: pull spilled batches
        // back in while the queue has headroom.
        self.resume_spilled(config);
        let now = Instant::now();
        let mut earliest = now + config.rto;
        let mut resent = 0;
        for p in &mut self.queue {
            match p.sent_at {
                Some(at) if now.duration_since(at) < config.rto => {
                    earliest = earliest.min(at + config.rto);
                    continue;
                }
                Some(_) => resent += 1,
                None => {}
            }
            p.sent_at = Some(now);
            frames.push(Arc::clone(&p.frame));
        }
        if resent > 0 {
            self.stats.retransmits += resent;
            self.publish_obs();
        }
        (!self.queue.is_empty()).then_some(earliest)
    }
}

/// The edge-side shipping half of the ingest path (see module docs;
/// a usage example lives on [`DigestServer`](crate::DigestServer)).
pub struct DigestForwarder {
    open: Arc<Mutex<Open>>,
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
        let open = Arc::new(Mutex::new(Open {
            batch: Vec::new(),
            next_seq: spill.as_ref().map(|s| s.max_seq() + 1).unwrap_or(1),
            clock: metrics.clock(),
            recorder,
        }));
        let shared = Arc::new((
            Mutex::new(Inner {
                queue: VecDeque::new(),
                stats: ForwarderStats::default(),
                stop: false,
                due: false,
                link: None,
                link_down: false,
                source: config.source,
                obs,
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
            open,
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
        push_into(&self.open, &self.shared, &self.config, report);
    }

    /// Seals the partial batch, if any, so it ships without waiting to
    /// fill.
    pub fn flush(&self) {
        self.open
            .lock()
            .expect("forwarder batch poisoned")
            .seal(&self.shared, &self.config);
    }

    /// A `FnMut(DigestReport)` handle for plumbing this forwarder in
    /// as an edge digest sink without sharing the forwarder itself.
    pub fn digest_sink(&self) -> impl FnMut(DigestReport) + Send + 'static {
        let open = Arc::clone(&self.open);
        let shared = Arc::clone(&self.shared);
        let config = self.config;
        move |report| push_into(&open, &shared, &config, report)
    }

    /// A copy of the live counters; `digests` includes the open batch.
    pub fn stats(&self) -> ForwarderStats {
        let open = self.open.lock().expect("forwarder batch poisoned");
        let mut stats = self
            .shared
            .0
            .lock()
            .expect("forwarder state poisoned")
            .stats;
        stats.digests += open.batch.len() as u64;
        stats
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
        }
        self.stop_worker();
        let stats = self.stats();
        debug_assert!(stats.accounted(), "unaccounted batches: {stats:?}");
        stats
    }

    /// Stops the writer and joins it. Shutting the live connection
    /// down here too means neither a blocked ack read nor a write
    /// blocked on a peer that stopped reading can hold up the join.
    fn stop_worker(&mut self) {
        {
            let (lock, cvar) = &*self.shared;
            let mut inner = lock.lock().expect("forwarder state poisoned");
            inner.stop = true;
            if let Some(link) = &inner.link {
                let _ = link.shutdown(Shutdown::Both);
            }
            cvar.notify_all();
        }
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl Drop for DigestForwarder {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

/// The one body behind [`DigestForwarder::push`] and
/// [`DigestForwarder::digest_sink`]: buffers `report`, sealing the
/// batch onto the pending queue when it is full.
fn push_into(
    open: &Mutex<Open>,
    shared: &(Mutex<Inner>, Condvar),
    config: &ForwarderConfig,
    report: DigestReport,
) {
    let mut open = open.lock().expect("forwarder batch poisoned");
    open.batch.push(report);
    if open.batch.len() >= config.batch_digests {
        open.seal(shared, config);
    }
}

/// The writer: connects (with backoff), serves each connection until it
/// drops, and returns once the forwarder stops.
fn worker_loop(
    addr: SocketAddr,
    config: ForwarderConfig,
    mut faults: Option<FaultInjector>,
    shared: Arc<(Mutex<Inner>, Condvar)>,
) {
    let lock = &shared.0;
    let mut backoff = config.retry_base;
    let mut jitter_state = config.seed;
    let mut connected_before = false;
    loop {
        if lock.lock().expect("forwarder state poisoned").stop {
            return;
        }
        let Some((mut stream, reader)) = open_link(addr, config, &shared) else {
            // Exponential backoff with deterministic jitter, so a fleet
            // of forwarders does not thunder back in sync.
            jitter_state = jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let jitter_ns = mix64(jitter_state) % (backoff.as_nanos().max(1) as u64 / 2 + 1);
            std::thread::sleep(backoff + Duration::from_nanos(jitter_ns));
            backoff = (backoff * 2).min(config.retry_max);
            continue;
        };
        backoff = config.retry_base;
        if connected_before {
            let mut inner = lock.lock().expect("forwarder state poisoned");
            inner.stats.reconnects += 1;
            inner.publish_obs();
        }
        connected_before = true;
        write_due(&mut stream, &config, &mut faults, &shared);
        // Closing both directions ends the reader's blocked read.
        let _ = stream.shutdown(Shutdown::Both);
        let _ = reader.join();
        lock.lock().expect("forwarder state poisoned").link = None;
    }
}

/// Connects and starts the connection's ack reader, returning the
/// writer's half of the stream and the reader's handle. `None` — close,
/// back off, retry — when the connect, a stream clone, or the reader
/// spawn fails.
fn open_link(
    addr: SocketAddr,
    config: ForwarderConfig,
    shared: &Arc<(Mutex<Inner>, Condvar)>,
) -> Option<(TcpStream, JoinHandle<()>)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone().ok()?;
    let owner_half = stream.try_clone().ok()?;
    {
        let mut inner = shared.0.lock().expect("forwarder state poisoned");
        // Everything unacked must be assumed lost with the old
        // connection: the whole queue is due again.
        for p in &mut inner.queue {
            p.sent_at = None;
        }
        inner.due = true;
        inner.link_down = false;
        inner.link = Some(owner_half);
    }
    let reader_shared = Arc::clone(shared);
    match std::thread::Builder::new()
        .name("pint-digest-acks".into())
        .spawn(move || read_acks(read_half, config, reader_shared))
    {
        Ok(reader) => Some((stream, reader)),
        Err(_) => {
            shared.0.lock().expect("forwarder state poisoned").link = None;
            None
        }
    }
}

/// Writes due frames until the link goes down, a write fails, or the
/// forwarder stops. Sleeps on the condvar in between: a seal, a spill
/// resume, a dropped link or `stop` wakes it, and so does the earliest
/// retransmit deadline, as the wait's timeout.
fn write_due(
    stream: &mut TcpStream,
    config: &ForwarderConfig,
    faults: &mut Option<FaultInjector>,
    shared: &(Mutex<Inner>, Condvar),
) {
    let (lock, cvar) = shared;
    let mut frames: Vec<Arc<[u8]>> = Vec::new();
    let mut deadline: Option<Instant> = None;
    loop {
        {
            let mut inner = lock.lock().expect("forwarder state poisoned");
            loop {
                if inner.stop || inner.link_down {
                    return;
                }
                let now = Instant::now();
                if inner.due || deadline.is_some_and(|d| now >= d) {
                    break;
                }
                inner = match deadline {
                    Some(d) => {
                        cvar.wait_timeout(inner, d - now)
                            .expect("forwarder state poisoned")
                            .0
                    }
                    None => cvar.wait(inner).expect("forwarder state poisoned"),
                };
            }
            deadline = inner.take_due(config, &mut frames);
        }
        for frame in frames.drain(..) {
            let sent = match faults {
                Some(inj) => inj.transmit(&frame, stream),
                None => stream.write_all(&frame),
            };
            if sent.is_err() {
                return;
            }
        }
    }
}

/// The ack reader: blocks on the socket with no read timeout and
/// applies each [`BatchAck`] as it arrives. On EOF or an error it marks
/// the link down and wakes the writer.
fn read_acks(stream: TcpStream, config: ForwarderConfig, shared: Arc<(Mutex<Inner>, Condvar)>) {
    let (lock, cvar) = &*shared;
    let mut reader = FrameReader::new(stream);
    while let Ok(Some((ty, payload))) = reader.read_frame() {
        // Tolerate unrelated frames and undecodable acks.
        if ty != FrameType::BatchAck {
            continue;
        }
        let Ok(ack) = BatchAck::decode(&payload) else {
            continue;
        };
        let wake = lock
            .lock()
            .expect("forwarder state poisoned")
            .apply_ack(&ack, &config);
        if wake {
            cvar.notify_all();
        }
    }
    lock.lock().expect("forwarder state poisoned").link_down = true;
    cvar.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{DigestServer, DigestServerConfig};
    use pint_core::Digest;
    use std::io::Read;
    use std::net::TcpListener;
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

    #[test]
    fn flushes_go_on_the_wire_without_waiting_for_a_timer() {
        // The peer reads everything and acks nothing; with a 60 s rto
        // nothing is retransmitted, so a flushed batch reaches it
        // promptly only if the seal itself wakes the writer.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            while let Ok(n) = conn.read(&mut buf) {
                if n == 0 || tx.send(Instant::now()).is_err() {
                    break;
                }
            }
        });
        let fwd = DigestForwarder::connect(
            addr,
            ForwarderConfig {
                source: 4,
                rto: Duration::from_secs(60),
                ..ForwarderConfig::default()
            },
        );
        // The first batch also waits out the connect; it is not timed.
        fwd.push(report(1, 0));
        fwd.flush();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("first batch never arrived");
        let mut trips: Vec<Duration> = (1..=10)
            .map(|pid| {
                while rx.try_recv().is_ok() {}
                fwd.push(report(1, pid));
                let flushed = Instant::now();
                fwd.flush();
                let arrived = rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("flushed batch never arrived");
                arrived.saturating_duration_since(flushed)
            })
            .collect();
        trips.sort();
        let median = trips[trips.len() / 2];
        assert!(
            median < Duration::from_millis(2),
            "flush -> wire median {median:?}: {trips:?}"
        );
        drop(fwd);
        peer.join().unwrap();
    }

    #[test]
    fn teardown_never_hangs_on_a_peer_that_never_reads() {
        // The peer accepts and then neither reads nor acks, so the
        // reader blocks for good and, once the socket buffers fill, so
        // does the writer. Both `shutdown` and `Drop` must still return.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ForwarderConfig {
            source: 5,
            batch_digests: 256,
            queue_batches: 1024,
            ..ForwarderConfig::default()
        };
        for graceful in [true, false] {
            let fwd = DigestForwarder::connect(addr, config);
            let (silent, _) = listener.accept().unwrap();
            for pid in 0..128 * 1024 {
                fwd.push(report(pid % 64, pid));
            }
            fwd.flush();
            // Tear down on a helper thread, so a hang fails the test
            // instead of stalling the suite.
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let started = Instant::now();
                let stats = if graceful {
                    Some(fwd.shutdown(Duration::from_millis(100)))
                } else {
                    drop(fwd);
                    None
                };
                let _ = done.send((started.elapsed(), stats));
            });
            let (took, stats) = finished
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("teardown (graceful: {graceful}) hung"));
            assert!(
                took < Duration::from_secs(1),
                "teardown (graceful: {graceful}) took {took:?}"
            );
            if let Some(stats) = stats {
                assert!(stats.accounted(), "{stats:?}");
                assert_eq!(stats.delivered, 0, "{stats:?}");
                assert_eq!(stats.shed, stats.sent, "{stats:?}");
            }
            drop(silent);
        }
    }

    #[test]
    fn reconnects_after_the_peer_closes_mid_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fwd = DigestForwarder::connect(
            addr,
            ForwarderConfig {
                source: 6,
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
        // The first peer takes part of the stream, acks nothing, and
        // goes away with its listener.
        let (mut conn, _) = listener.accept().unwrap();
        let mut head = [0u8; 64];
        conn.read_exact(&mut head).unwrap();
        drop(conn);
        drop(listener);

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
        for pid in 40..80 {
            fwd.push(report(2, pid));
        }
        let stats = fwd.shutdown(Duration::from_secs(10));
        assert!(stats.accounted(), "{stats:?}");
        assert!(stats.reconnects >= 1, "{stats:?}");
        assert_eq!(stats.shed, 0, "{stats:?}");
        assert_eq!(stats.digests_delivered, 80, "{stats:?}");
        assert_eq!(applied.load(Ordering::Relaxed), 80);
        server.shutdown();
    }
}
