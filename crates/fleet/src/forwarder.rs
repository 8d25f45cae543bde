//! The edge side of digest shipping: a [`DigestForwarder`] tails a
//! digest sink at an edge process and ships sequence-numbered
//! [`DigestBatch`] frames upstream to a
//! [`DigestServer`](crate::DigestServer).
//!
//! The hot path ([`push`](DigestForwarder::push)) never touches the
//! network: it buffers into the current batch and, when the batch
//! seals, moves it onto a bounded pending queue. Under overload or a
//! long outage the queue sheds its **oldest** batch (counted, never
//! silent) instead of blocking the edge — or, with a
//! [`spill`](ForwarderConfig::spill) attached, moves it to disk to
//! resume once the link catches up.
//!
//! [`DigestForwarder::connect`] is the one constructor: a
//! [`ForwarderConfig`] carries the knobs and, as optional fields, the
//! metrics registry, flight recorder, spill queue and fault mix, in any
//! combination.
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
    parse_frame, AckStatus, BatchAck, DigestBatch, FaultConfig, FaultInjector, FrameReader,
    FrameType, TraceContext, WireDecode,
};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`DigestForwarder`] ships: batching and retry knobs, plus the
/// optional pieces — metrics, tracing, a durable spill and fault
/// injection — each a field that combines freely with the others.
#[derive(Debug)]
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
    /// Registry the `forwarder` gauge group (queue depth, delivery
    /// accounting) publishes into, sharded by the low 32 bits of
    /// `source`; its clock stamps each batch's origin. `None` gives a
    /// private registry (read it via [`DigestForwarder::metrics`]).
    pub metrics: Option<MetricsRegistry>,
    /// Flight recorder for a [`TraceStage::ForwarderSealed`] event per
    /// sealed batch. Drive it from the same clock as `metrics`
    /// ([`MetricsRegistry::with_clock`]) so event ticks and origin
    /// stamps share one time base. `None` disables tracing.
    pub trace: Option<FlightRecorder>,
    /// Durable overflow: batches a full queue would shed go to this
    /// on-disk queue instead and resume, oldest first, once the link
    /// catches up. Batches still spilled at
    /// [`shutdown`](DigestForwarder::shutdown) count as shed for this
    /// run but stay on disk; a successor forwarder on the same file
    /// resumes them (into its own `sent`) and numbers its fresh batches
    /// above [`SpillQueue::max_seq`]. Receiver dedup absorbs replays.
    pub spill: Option<SpillQueue>,
    /// Pass every outgoing frame through a [`FaultInjector`] built from
    /// this — the test/chaos hook that drops, duplicates, reorders,
    /// corrupts, truncates and stalls frames. The stream is
    /// deterministic per [`FaultConfig::seed`].
    pub faults: Option<FaultConfig>,
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
            metrics: None,
            trace: None,
            spill: None,
            faults: None,
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
    /// instead of being shed ([`ForwarderConfig::spill`]).
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
    fn seal(&mut self, shared: &Shared) {
        if self.batch.is_empty() {
            return;
        }
        let reports = std::mem::take(&mut self.batch);
        let digests = reports.len() as u64;
        let (seq, source) = (self.next_seq, shared.config.source);
        self.next_seq += 1;
        // Every batch carries its origin stamp; the trace id is
        // derived deterministically from (source, seq) so same-seed
        // runs produce identical ids without a randomness source.
        let origin_ns = self.clock.now_ns();
        let trace = TraceContext {
            origin_ns,
            trace_id: mix64(source ^ mix64(seq)),
        };
        if let Some(rec) = &self.recorder {
            rec.record_at(
                source as u32,
                TraceStage::ForwarderSealed,
                source,
                seq,
                origin_ns,
            );
        }
        let frame = DigestBatch {
            source,
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
        shared.lock().enqueue(sealed, &shared.config);
        shared.wake.notify_all();
    }
}

/// What the handle and both connection threads share: the state lock,
/// the condvar that wakes the writer (and a draining `shutdown`), and
/// the knobs, whose optional pieces `connect` has moved out.
struct Shared {
    state: Mutex<Inner>,
    wake: Condvar,
    config: ForwarderConfig,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.state.lock().expect("forwarder state poisoned")
    }

    /// Sleeps on the condvar, for at most `t` when one is given.
    fn wait<'a>(&self, inner: MutexGuard<'a, Inner>, t: Option<Duration>) -> MutexGuard<'a, Inner> {
        let poisoned = "forwarder state poisoned";
        match t {
            Some(t) => self.wake.wait_timeout(inner, t).expect(poisoned).0,
            None => self.wake.wait(inner).expect(poisoned),
        }
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
    open: Mutex<Open>,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    metrics: MetricsRegistry,
}

impl DigestForwarder {
    /// Starts a forwarder shipping to `addr`. The connection is
    /// established (and re-established) in the background; pushes
    /// before or between connections just queue. The optional pieces
    /// of `config` (metrics, trace, spill, faults) move into the
    /// forwarder.
    pub fn connect(addr: SocketAddr, mut config: ForwarderConfig) -> Self {
        let metrics = config.metrics.take().unwrap_or_default();
        let spill = config.spill.take();
        let faults = config.faults.take().map(FaultInjector::new);
        let obs =
            metrics.gauge_group_shard("forwarder", config.source as u32, &FORWARDER_OBS_FIELDS);
        // A reopened spill may hold leftovers from a previous run; they
        // join this run's accounting as they resume, and fresh batches
        // are numbered above anything ever spilled so the two
        // generations never collide at the receiver's dedup window.
        let spill_leftover = spill
            .as_ref()
            .map_or((0, 0), |s| (s.len() as u64, s.digests()));
        let open = Mutex::new(Open {
            batch: Vec::new(),
            next_seq: spill.as_ref().map_or(1, |s| s.max_seq() + 1),
            clock: metrics.clock(),
            recorder: config.trace.take(),
        });
        let shared = Arc::new(Shared {
            state: Mutex::new(Inner {
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
            wake: Condvar::new(),
            config,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("pint-digest-forward".into())
            .spawn(move || worker_loop(addr, faults, worker_shared))
            .expect("spawn digest forwarder thread");
        Self {
            open,
            shared,
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
        let mut open = self.open.lock().expect("forwarder batch poisoned");
        open.batch.push(report);
        if open.batch.len() >= self.shared.config.batch_digests {
            open.seal(&self.shared);
        }
    }

    /// Seals the partial batch, if any, so it ships without waiting to
    /// fill.
    pub fn flush(&self) {
        self.open
            .lock()
            .expect("forwarder batch poisoned")
            .seal(&self.shared);
    }

    /// A copy of the live counters; `digests` includes the open batch.
    pub fn stats(&self) -> ForwarderStats {
        let open = self.open.lock().expect("forwarder batch poisoned");
        let mut stats = self.shared.lock().stats;
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
        {
            let draining = |inner: &Inner| {
                !inner.queue.is_empty() || inner.spill.as_ref().is_some_and(|s| !s.is_empty())
            };
            let mut inner = self.shared.lock();
            while draining(&inner) && Instant::now() < deadline {
                inner = self.shared.wait(inner, Some(Duration::from_millis(10)));
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
            let mut inner = self.shared.lock();
            inner.stop = true;
            if let Some(link) = &inner.link {
                let _ = link.shutdown(Shutdown::Both);
            }
            self.shared.wake.notify_all();
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

/// The writer: connects (with backoff), serves each connection until it
/// drops, and returns once the forwarder stops.
fn worker_loop(addr: SocketAddr, mut faults: Option<FaultInjector>, shared: Arc<Shared>) {
    let config = &shared.config;
    let mut backoff = config.retry_base;
    let mut jitter_state = config.seed;
    let mut connected_before = false;
    loop {
        if shared.lock().stop {
            return;
        }
        let Some((mut stream, reader)) = open_link(addr, &shared) else {
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
            let mut inner = shared.lock();
            inner.stats.reconnects += 1;
            inner.publish_obs();
        }
        connected_before = true;
        write_due(&mut stream, &mut faults, &shared);
        // Closing both directions ends the reader's blocked read.
        let _ = stream.shutdown(Shutdown::Both);
        let _ = reader.join();
        shared.lock().link = None;
    }
}

/// Connects and starts the connection's ack reader, returning the
/// writer's half of the stream and the reader's handle. `None` — close,
/// back off, retry — when the connect, a stream clone, or the reader
/// spawn fails.
fn open_link(addr: SocketAddr, shared: &Arc<Shared>) -> Option<(TcpStream, JoinHandle<()>)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone().ok()?;
    let owner_half = stream.try_clone().ok()?;
    {
        let mut inner = shared.lock();
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
        .spawn(move || read_acks(read_half, reader_shared))
    {
        Ok(reader) => Some((stream, reader)),
        Err(_) => {
            shared.lock().link = None;
            None
        }
    }
}

/// Writes due frames until the link goes down, a write fails, or the
/// forwarder stops. Sleeps on the condvar in between: a seal, a spill
/// resume, a dropped link or `stop` wakes it, and so does the earliest
/// retransmit deadline, as the wait's timeout.
fn write_due(stream: &mut TcpStream, faults: &mut Option<FaultInjector>, shared: &Shared) {
    let mut frames: Vec<Arc<[u8]>> = Vec::new();
    let mut deadline: Option<Instant> = None;
    loop {
        {
            let mut inner = shared.lock();
            loop {
                if inner.stop || inner.link_down {
                    return;
                }
                let now = Instant::now();
                if inner.due || deadline.is_some_and(|d| now >= d) {
                    break;
                }
                inner = shared.wait(inner, deadline.map(|d| d - now));
            }
            deadline = inner.take_due(&shared.config, &mut frames);
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
fn read_acks(stream: TcpStream, shared: Arc<Shared>) {
    let mut reader = FrameReader::new(stream);
    while let Ok(Some((ty, payload))) = reader.read_frame() {
        // Tolerate unrelated frames and undecodable acks.
        if ty != FrameType::BatchAck {
            continue;
        }
        let Ok(ack) = BatchAck::decode(&payload) else {
            continue;
        };
        if shared.lock().apply_ack(&ack, &shared.config) {
            shared.wake.notify_all();
        }
    }
    shared.lock().link_down = true;
    shared.wake.notify_all();
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

    /// A server on `addr` whose sink counts the digests it applies.
    fn counting_server(addr: impl std::net::ToSocketAddrs) -> (DigestServer, Arc<AtomicU64>) {
        let applied = Arc::new(AtomicU64::new(0));
        let sink_applied = Arc::clone(&applied);
        let sink = Box::new(move |_src, reports: Vec<DigestReport>| {
            sink_applied.fetch_add(reports.len() as u64, Ordering::Relaxed);
        });
        let server = DigestServer::bind(addr, DigestServerConfig::default(), sink).unwrap();
        (server, applied)
    }

    /// An address with no listener.
    fn dead_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap()
    }

    #[test]
    fn delivers_exactly_once_over_clean_loopback() {
        let (server, applied) = counting_server("127.0.0.1:0");
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
        let addr = dead_addr();

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
        let (server, applied) = counting_server(addr);
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
        let addr = dead_addr();

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
        let config = || ForwarderConfig {
            source: 5,
            batch_digests: 256,
            queue_batches: 1024,
            ..ForwarderConfig::default()
        };
        for graceful in [true, false] {
            let fwd = DigestForwarder::connect(addr, config());
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

        let (server, applied) = counting_server(addr);
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
