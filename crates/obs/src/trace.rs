//! Flight recorder: a lock-free bounded ring of structured trace
//! events, one per pipeline stage a batch passes through.
//!
//! The metrics registry answers "how many, how fast per stage"; the
//! flight recorder answers "where did *this* batch go". Every tier
//! records a fixed-size [`TraceEvent`] — stage, source id, batch
//! sequence number, clock tick — into a per-shard overwrite-oldest
//! ring. Recording is wait-free and allocation-free: one `fetch_add`
//! to claim a slot plus four relaxed stores, guarded by a seqlock-style
//! version word so concurrent snapshots skip torn slots instead of
//! blocking writers.
//!
//! Draining yields a deterministic [`TraceDump`] (`PartialEq`, events
//! sorted by `(tick_ns, shard, stage, source, seq)`), so two same-seed
//! simulation runs under a [`VirtualClock`](crate::VirtualClock)
//! produce byte-identical dumps — the property the netsim tests pin.

use crate::clock::{ClockHandle, MonotonicClock};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Which pipeline stage recorded an event.
///
/// The numeric discriminants are wire-stable: `pint-wire` serializes
/// them in `TraceDump` frames, so renumbering is a protocol break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceStage {
    /// A `DigestForwarder` sealed a batch and stamped its trace
    /// context (origin timestamp + trace id) onto the frame.
    ForwarderSealed = 0,
    /// A `DigestServer` applied a fresh batch to its sink.
    ServerApplied = 1,
    /// A `DigestServer` recognized a retransmission and acked it
    /// without re-applying.
    ServerDuplicate = 2,
    /// A collector shard worker applied one ring batch.
    CollectorBatch = 3,
    /// A `FleetAggregator` applied a collector snapshot.
    AggregatorApplied = 4,
    /// A simulated sink delivered a digest report (netsim tap).
    SinkDelivered = 5,
}

impl TraceStage {
    /// Decodes a wire discriminant; `None` for unknown values (future
    /// versions), so decoders skip rather than panic.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Self::ForwarderSealed,
            1 => Self::ServerApplied,
            2 => Self::ServerDuplicate,
            3 => Self::CollectorBatch,
            4 => Self::AggregatorApplied,
            5 => Self::SinkDelivered,
            _ => return None,
        })
    }
}

/// One recorded pipeline event. Fixed-size, `Copy`, no payload —
/// everything needed to line up a batch's journey across tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceEvent {
    /// Clock reading when the event was recorded (the recorder's
    /// [`Clock`](crate::Clock) — virtual in simulation).
    pub tick_ns: u64,
    /// Stage that recorded the event.
    pub stage: TraceStage,
    /// Source / collector / flow id, stage-dependent (the identity the
    /// stage keys its work on).
    pub source: u64,
    /// Batch sequence number (or packet id for per-report stages).
    pub seq: u64,
    /// Recorder shard the event landed in (= the recording thread's
    /// chosen lane).
    pub shard: u32,
}

/// A deterministic drain of a [`FlightRecorder`].
///
/// Events are globally sorted by `(tick_ns, shard, stage, source,
/// seq)`; `dropped` counts events overwritten before they could be
/// read (ring overflow), so consumers know when the window slid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// Surviving events, oldest first (sorted, see type docs).
    pub events: Vec<TraceEvent>,
    /// Events lost to overwrite-oldest across all shards.
    pub dropped: u64,
}

impl TraceDump {
    /// Events of one stage, in dump order.
    pub fn stage(&self, stage: TraceStage) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.stage == stage)
    }

    /// True when no events were recorded or survived.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One slot of a shard ring: a seqlock version word plus the event
/// fields as plain atomics (this crate forbids `unsafe`, so torn-read
/// protection is the version protocol and fences, all safe code).
///
/// Protocol: the version names the ordinal the slot holds. The writer
/// of ordinal `o` stores `2o + 1` (write in progress), a release
/// fence, the fields (relaxed), then `2o + 2` (release). A reader that
/// expects ordinal `o` loads the version (acquire), copies the fields,
/// takes an acquire fence and re-reads the version; it keeps the event
/// only if both reads are `2o + 2`. So a slot whose ordinal was claimed
/// but not yet written (or still holds an older ordinal) is skipped,
/// never read as zeroed fields.
#[derive(Debug)]
struct Slot {
    version: AtomicU64,
    tick_ns: AtomicU64,
    stage: AtomicU64,
    source: AtomicU64,
    seq: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            tick_ns: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            source: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        }
    }
}

/// One shard's ring: a monotone head claiming slots modulo capacity.
#[derive(Debug)]
struct ShardRing {
    /// Next slot ordinal to claim; `head - capacity` slots have been
    /// overwritten.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

struct Inner {
    shards: Box<[ShardRing]>,
    clock: ClockHandle,
}

/// Lock-free bounded flight recorder for pipeline stage events.
///
/// Clones share the same rings (`Arc` inner), so one recorder can be
/// handed to every tier of a pipeline and drained once at the end.
/// Each shard is a single-writer ring in the intended deployment (one
/// recording thread per shard index); concurrent writers to *one*
/// shard stay memory-safe but may tear each other's slots, which
/// readers then skip — pick distinct shard indices per thread.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("shards", &self.shards())
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

/// The version a slot holds once ordinal `ordinal` is written in it
/// (the write in progress is one less).
#[inline]
fn written(ordinal: u64) -> u64 {
    ordinal.wrapping_mul(2).wrapping_add(2)
}

impl FlightRecorder {
    /// A recorder with `shards` rings of `capacity` events each, timed
    /// by the default [`MonotonicClock`].
    pub fn new(shards: usize, capacity: usize) -> Self {
        Self::with_clock(shards, capacity, Arc::new(MonotonicClock::new()))
    }

    /// A recorder timed by an explicit clock — hand it the same
    /// [`VirtualClock`](crate::VirtualClock) driving a simulation and
    /// every `tick_ns` is simulated time, making dumps reproducible.
    pub fn with_clock(shards: usize, capacity: usize, clock: ClockHandle) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        let rings = (0..shards)
            .map(|_| ShardRing {
                head: AtomicU64::new(0),
                slots: (0..capacity).map(|_| Slot::new()).collect(),
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                shards: rings,
                clock,
            }),
        }
    }

    /// Number of shard rings.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Events each shard ring holds before overwriting the oldest.
    pub fn capacity(&self) -> usize {
        self.inner.shards[0].slots.len()
    }

    /// The clock stamping `tick_ns` on recorded events.
    pub fn clock(&self) -> ClockHandle {
        Arc::clone(&self.inner.clock)
    }

    /// Records one event into shard `shard % shards` (wrapping keeps
    /// any caller-supplied lane valid). Wait-free, zero allocation:
    /// one `fetch_add`, six stores and a fence.
    pub fn record(&self, shard: u32, stage: TraceStage, source: u64, seq: u64) {
        self.record_at(shard, stage, source, seq, self.inner.clock.now_ns());
    }

    /// [`record`](Self::record) with an explicit tick — for stages
    /// that already read the clock (e.g. to compute a latency) and
    /// must not read it twice.
    pub fn record_at(&self, shard: u32, stage: TraceStage, source: u64, seq: u64, tick_ns: u64) {
        let ring = &self.inner.shards[shard as usize % self.inner.shards.len()];
        let ordinal = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(ordinal % ring.slots.len() as u64) as usize];
        // Odd = write in progress; readers skip. The fence keeps the
        // field stores from being seen before the odd version.
        let v = written(ordinal);
        slot.version.store(v.wrapping_sub(1), Ordering::Relaxed);
        fence(Ordering::Release);
        slot.tick_ns.store(tick_ns, Ordering::Relaxed);
        slot.stage.store(stage as u64, Ordering::Relaxed);
        slot.source.store(source, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.version.store(v, Ordering::Release);
    }

    /// Non-destructive drain: copies every stable slot of every shard
    /// into a sorted, deterministic [`TraceDump`]. Torn slots (a write
    /// in flight during the copy) are skipped, never blocked on.
    pub fn snapshot(&self) -> TraceDump {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for (shard, ring) in self.inner.shards.iter().enumerate() {
            let head = ring.head.load(Ordering::Acquire);
            let cap = ring.slots.len() as u64;
            dropped += head.saturating_sub(cap);
            let live = head.min(cap);
            for ordinal in head - live..head {
                let slot = &ring.slots[(ordinal % cap) as usize];
                let v = written(ordinal);
                if slot.version.load(Ordering::Acquire) != v {
                    continue; // claimed but unwritten, in progress, or lapped
                }
                let tick_ns = slot.tick_ns.load(Ordering::Relaxed);
                let stage = slot.stage.load(Ordering::Relaxed);
                let source = slot.source.load(Ordering::Relaxed);
                let seq = slot.seq.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if slot.version.load(Ordering::Relaxed) != v {
                    continue; // torn by a concurrent writer
                }
                let Some(stage) = TraceStage::from_u8(stage as u8) else {
                    continue;
                };
                events.push(TraceEvent {
                    tick_ns,
                    stage,
                    source,
                    seq,
                    shard: shard as u32,
                });
            }
        }
        events.sort_unstable_by_key(|e| (e.tick_ns, e.shard, e.stage, e.source, e.seq));
        TraceDump { events, dropped }
    }

    /// Destructive drain: a [`snapshot`](Self::snapshot), then every
    /// ring is reset to empty (head back to zero, dropped count
    /// forgotten). Not linearizable against concurrent writers — call
    /// it at quiesce points.
    pub fn drain(&self) -> TraceDump {
        let dump = self.snapshot();
        for ring in self.inner.shards.iter() {
            ring.head.store(0, Ordering::Release);
            for slot in ring.slots.iter() {
                // No ordinal writes version 0, so a reset slot is
                // skipped until its next ordinal is written.
                slot.version.store(0, Ordering::Relaxed);
            }
        }
        dump
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VirtualClock;

    #[test]
    fn records_and_snapshots_in_deterministic_order() {
        let clock = VirtualClock::new();
        let rec = FlightRecorder::with_clock(2, 8, Arc::new(clock.clone()));
        clock.set(10);
        rec.record(1, TraceStage::ServerApplied, 7, 2);
        rec.record(0, TraceStage::ForwarderSealed, 7, 2);
        clock.set(5); // out-of-order tick still sorts first
        rec.record(0, TraceStage::ForwarderSealed, 7, 1);
        let dump = rec.snapshot();
        assert_eq!(dump.dropped, 0);
        let ticks: Vec<u64> = dump.events.iter().map(|e| e.tick_ns).collect();
        assert_eq!(ticks, vec![5, 10, 10]);
        assert_eq!(dump.events[1].shard, 0, "tick ties break by shard");
        assert_eq!(dump, rec.snapshot(), "snapshot is non-destructive");
    }

    #[test]
    fn overwrites_oldest_and_counts_drops() {
        let clock = VirtualClock::new();
        let rec = FlightRecorder::with_clock(1, 4, Arc::new(clock.clone()));
        for i in 0..10u64 {
            clock.set(i);
            rec.record(0, TraceStage::CollectorBatch, 1, i);
        }
        let dump = rec.snapshot();
        assert_eq!(dump.dropped, 6);
        let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest four survive");
    }

    #[test]
    fn drain_resets_the_rings() {
        let rec = FlightRecorder::new(2, 4);
        for i in 0..20u64 {
            rec.record((i % 2) as u32, TraceStage::SinkDelivered, 3, i);
        }
        let first = rec.drain();
        assert_eq!(first.events.len(), 8);
        assert!(first.dropped > 0);
        let second = rec.drain();
        assert!(second.is_empty());
        assert_eq!(second.dropped, 0);
    }

    #[test]
    fn clones_share_rings() {
        let rec = FlightRecorder::new(1, 8);
        let clone = rec.clone();
        clone.record(0, TraceStage::AggregatorApplied, 9, 1);
        assert_eq!(rec.snapshot().events.len(), 1);
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_snapshot() {
        let rec = FlightRecorder::new(4, 64);
        std::thread::scope(|s| {
            for shard in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        rec.record(shard, TraceStage::CollectorBatch, u64::from(shard), i);
                    }
                });
            }
            for _ in 0..50 {
                // Every surviving event must be internally consistent.
                for e in rec.snapshot().events {
                    assert_eq!(e.source, u64::from(e.shard));
                    assert!(e.seq < 1_000);
                }
            }
        });
        let dump = rec.snapshot();
        assert_eq!(dump.events.len(), 4 * 64);
        assert_eq!(dump.dropped, 4 * (1_000 - 64));
    }

    #[test]
    fn a_claimed_but_unwritten_slot_is_never_read() {
        let rec = FlightRecorder::new(1, 4);
        let ring = &rec.inner.shards[0];
        // A writer has claimed ordinal 0 but not yet stored anything:
        // the slot still holds its zeroed fields.
        ring.head.fetch_add(1, Ordering::Relaxed);
        assert!(rec.snapshot().is_empty(), "zeroed slot read as an event");
        // Once the ring wraps, a claimed slot still holds the ordinal
        // one lap older; that event is gone, not returned again.
        ring.head.store(0, Ordering::Relaxed);
        for i in 0..4u64 {
            rec.record(0, TraceStage::ServerApplied, 9, i);
        }
        ring.head.fetch_add(1, Ordering::Relaxed);
        let seqs: Vec<u64> = rec.snapshot().events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn stage_roundtrips_through_u8() {
        for s in [
            TraceStage::ForwarderSealed,
            TraceStage::ServerApplied,
            TraceStage::ServerDuplicate,
            TraceStage::CollectorBatch,
            TraceStage::AggregatorApplied,
            TraceStage::SinkDelivered,
        ] {
            assert_eq!(TraceStage::from_u8(s as u8), Some(s));
        }
        assert_eq!(TraceStage::from_u8(250), None);
    }
}
