//! Bounded lock-free SPSC ring buffers — the ingest fabric.
//!
//! Every registered producer owns one `Ring` per shard, carrying digest
//! *batches* (`Vec<DigestReport>`) at slot granularity: a slot exchange
//! costs two atomic ops amortized over `batch_size` digests. Head and
//! tail live on separate cache lines so the producer and consumer cores
//! never false-share, and each endpoint keeps a local cache of the other
//! side's position so the common case touches no shared line at all.
//!
//! Backpressure is park-based, not spin-based: a producer that finds the
//! ring full (or a shard worker that finds all its rings empty) spins
//! briefly and then parks its thread, to be unparked by the other side.
//! Parking uses a double-checked flag plus a bounded `park_timeout`, so a
//! lost wakeup costs at most one timeout, never a hang. This matters on
//! small machines: an idle thread must get *off* the core so the other
//! side can run.
//!
//! Each ring also carries a *reverse* SPSC lane — the batch pool — on
//! which the consumer hands drained `Vec<DigestReport>` buffers back to
//! the producer. A producer that finds a pooled buffer on ship reuses
//! it instead of allocating, so steady-state ingest performs zero batch
//! allocations; the lane is purely an optimization (a full lane drops
//! the buffer, an empty lane falls back to allocation).
//!
//! This is the one module in the crate that uses `unsafe` (the slot
//! arrays are shared between exactly two threads). The safety argument
//! is the classic SPSC protocol, spelled out at each unsafe block:
//!
//! * the producer writes slot `i` only while `i - head < capacity`, and
//!   publishes it with a release store of `tail = i + 1`;
//! * the consumer reads slot `i` only after an acquire load observes
//!   `tail > i`, and releases it with a release store of `head = i + 1`;
//! * `RingProducer`/`RingConsumer` are not `Clone`, so each side has
//!   exactly one owner;
//! * the pool lane runs the identical protocol with the roles swapped
//!   (the consumer is the lane's writer, the producer its reader).

#![allow(unsafe_code)]

use crate::config::{PARK_TIMEOUT, SPIN_LIMIT};
use pint_core::DigestReport;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Duration;

/// The unit of exchange: one pre-assembled digest batch.
pub(crate) type Batch = Vec<DigestReport>;

/// Pads a value to its own 64-byte cache line (head/tail separation).
#[repr(align(64))]
struct CachePadded<T>(T);

/// A parkable thread slot with a double-checked "is parked" flag.
///
/// Protocol: the sleeper calls [`prepare`](Self::prepare), re-checks its
/// wait condition, then [`park`](Self::park)s; the waker publishes its
/// state change, issues a `SeqCst` fence, and calls [`wake`](Self::wake),
/// which unparks only if the flag is set (the common-case cost for the
/// waker is one relaxed load). The bounded park timeout turns any residual
/// race into bounded latency instead of a lost wakeup.
pub(crate) struct Waiter {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    pub(crate) fn new() -> Self {
        Self {
            parked: AtomicBool::new(false),
            thread: Mutex::new(None),
        }
    }

    /// Records the calling thread as the (sole) sleeper on this waiter.
    pub(crate) fn register_current(&self) {
        *self.thread.lock().expect("waiter mutex") = Some(std::thread::current());
    }

    /// Announces intent to park. Re-check the wait condition *after* this
    /// (a `SeqCst` fence is included) and either [`cancel`](Self::cancel)
    /// or [`park`](Self::park).
    pub(crate) fn prepare(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Withdraws a [`prepare`](Self::prepare) (the re-check found work).
    pub(crate) fn cancel(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Parks for at most `timeout`; always clears the flag on return.
    pub(crate) fn park(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Unparks the sleeper iff it announced itself parked.
    pub(crate) fn wake(&self) {
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("waiter mutex").as_ref() {
                t.unpark();
            }
        }
    }
}

/// One slot; owned by the producer until published, then by the consumer
/// until taken. `None` means empty (consumed or never written).
struct Slot(UnsafeCell<Option<Batch>>);

/// The shared core of one producer→shard ring.
struct Ring {
    slots: Box<[Slot]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
    /// Next position the producer will write (monotonic, not wrapped).
    tail: CachePadded<AtomicU64>,
    /// Next position the consumer will read (monotonic, not wrapped).
    head: CachePadded<AtomicU64>,
    /// Reverse lane: drained batch buffers travelling consumer→producer
    /// (same capacity and protocol as `slots`, roles swapped).
    pool: Box<[Slot]>,
    /// Next pool position the consumer (the lane's writer) will write.
    pool_tail: CachePadded<AtomicU64>,
    /// Next pool position the producer (the lane's reader) will read.
    pool_head: CachePadded<AtomicU64>,
    /// Cleared when the producer endpoint drops: no more batches coming.
    producer_open: AtomicBool,
    /// Cleared when the consumer endpoint drops: pushes fail from now on.
    consumer_open: AtomicBool,
    /// Parking slot for a producer blocked on a full ring.
    producer_waiter: Waiter,
    /// The owning shard's waiter (shared by all rings of that shard).
    consumer_waiter: Arc<Waiter>,
    /// Times the producer had to park (collector-wide backpressure stat).
    parks: Arc<AtomicU64>,
}

// SAFETY: the `UnsafeCell` slots are the only non-Sync state; the SPSC
// protocol documented at the module level guarantees a slot is accessed
// by at most one thread at a time, with release/acquire pairs on
// tail/head ordering every hand-off.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

/// Smallest spin budget the controller decays to: enough to catch an
/// in-flight hand-off without holding the core when the other side is
/// clearly idle.
const SPIN_MIN: u32 = 4;

/// Adaptive spin/park policy for one blocked endpoint.
///
/// The controller widens the spin budget when spinning *pays* (progress
/// arrived before a park — sustained occupancy, the other side is
/// actively moving) and shrinks it toward [`SPIN_MIN`] whenever a park
/// was unavoidable (idle — get off the core early). Park timeouts start
/// at 1/16th of [`PARK_TIMEOUT`] and only ever lengthen toward it
/// (per consecutive park): the timeout is purely a safety net against
/// wakeup races, because hot-path parks are ended by the other side's
/// explicit wakes — a timer that fired *during* sustained traffic would
/// preempt the very thread being waited on, which measurably collapses
/// throughput when both endpoints share a core. Both stay inside the
/// [`SPIN_LIMIT`] and [`PARK_TIMEOUT`] bounds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BackoffController {
    spin: u32,
    park: Duration,
}

impl BackoffController {
    pub(crate) fn new() -> Self {
        Self {
            // Optimistic start: full spin budget, shortest park.
            spin: SPIN_LIMIT,
            park: PARK_TIMEOUT / 16,
        }
    }

    /// Current spin budget (polls before parking).
    pub(crate) fn spin_limit(&self) -> u32 {
        self.spin
    }

    /// Current park timeout.
    pub(crate) fn park_timeout(&self) -> Duration {
        self.park
    }

    /// Progress arrived while spinning: occupancy is sustained, widen
    /// the spin budget. The park bound is left alone: while traffic is
    /// hot the other side's explicit wakes end parks, so a short
    /// safety-net timer would only fire mid-drain and preempt the very
    /// thread being waited on (measurably brutal when endpoints share a
    /// core).
    pub(crate) fn on_spin_win(&mut self) {
        self.spin = self.spin.saturating_mul(2).clamp(SPIN_MIN, SPIN_LIMIT);
    }

    /// Spinning did not pay and the endpoint parked: halve the spin
    /// budget (park earlier while idle) and lengthen the next park.
    pub(crate) fn on_park(&mut self) {
        self.spin = (self.spin / 2).max(SPIN_MIN);
        self.park = self.park.saturating_mul(2).min(PARK_TIMEOUT);
    }
}

/// Creates a connected producer/consumer pair over a fresh ring.
///
/// `capacity` (in batches) is rounded up to a power of two. `waiter` is
/// the consuming shard's park slot; `parks` the shared backpressure
/// counter the producer bumps when it has to sleep.
pub(crate) fn ring(
    capacity: usize,
    waiter: Arc<Waiter>,
    parks: Arc<AtomicU64>,
) -> (RingProducer, RingConsumer) {
    let cap = capacity.max(1).next_power_of_two();
    let slots = (0..cap).map(|_| Slot(UnsafeCell::new(None))).collect();
    let pool = (0..cap).map(|_| Slot(UnsafeCell::new(None))).collect();
    let ring = Arc::new(Ring {
        slots,
        mask: cap as u64 - 1,
        tail: CachePadded(AtomicU64::new(0)),
        head: CachePadded(AtomicU64::new(0)),
        pool,
        pool_tail: CachePadded(AtomicU64::new(0)),
        pool_head: CachePadded(AtomicU64::new(0)),
        producer_open: AtomicBool::new(true),
        consumer_open: AtomicBool::new(true),
        producer_waiter: Waiter::new(),
        consumer_waiter: waiter,
        parks,
    });
    (
        RingProducer {
            ring: Arc::clone(&ring),
            tail: 0,
            head_cache: 0,
            pool_head: 0,
            pool_tail_cache: 0,
            backoff: BackoffController::new(),
            registered: None,
        },
        RingConsumer {
            ring,
            head: 0,
            tail_cache: 0,
            pool_tail: 0,
            pool_head_cache: 0,
        },
    )
}

/// The producing endpoint (exactly one per ring; `!Clone`).
pub(crate) struct RingProducer {
    ring: Arc<Ring>,
    /// Local copy of `ring.tail` (we are its only writer).
    tail: u64,
    /// Last observed consumer position; refreshed only when apparently
    /// full, so the fast path reads no shared cache line.
    head_cache: u64,
    /// Local copy of `ring.pool_head` (we are its only writer).
    pool_head: u64,
    /// Last observed recycler position on the pool lane.
    pool_tail_cache: u64,
    /// Adaptive spin/park policy for full-ring backpressure.
    backoff: BackoffController,
    /// Thread whose handle is registered with the producer waiter; the
    /// endpoint is `Send`, so re-register whenever it parks from a
    /// different thread than last time.
    registered: Option<std::thread::ThreadId>,
}

impl RingProducer {
    /// Capacity in batches.
    fn capacity(&self) -> u64 {
        self.ring.mask + 1
    }

    /// True if a slot is free *without* waiting (may refresh `head_cache`).
    fn has_room(&mut self) -> bool {
        if self.tail.wrapping_sub(self.head_cache) < self.capacity() {
            return true;
        }
        self.head_cache = self.ring.head.0.load(Ordering::Acquire);
        self.tail.wrapping_sub(self.head_cache) < self.capacity()
    }

    /// Writes and publishes one batch; caller guarantees room.
    fn commit(&mut self, batch: Batch) {
        let idx = (self.tail & self.ring.mask) as usize;
        // SAFETY: `tail - head < capacity`, so the consumer has consumed
        // this slot (or it was never written) and will not touch it until
        // it observes the release store of `tail + 1` below.
        unsafe { *self.ring.slots[idx].0.get() = Some(batch) };
        self.tail = self.tail.wrapping_add(1);
        self.ring.tail.0.store(self.tail, Ordering::Release);
        // Publish-then-check-sleeper ordering (see `Waiter` docs).
        fence(Ordering::SeqCst);
        self.ring.consumer_waiter.wake();
    }

    /// Enqueues `batch`, parking under backpressure until the consumer
    /// frees a slot. Fails only when the consumer endpoint is gone, and
    /// then hands the batch back. Contended pushes adapt the spin/park
    /// policy (see [`BackoffController`]).
    pub(crate) fn push(&mut self, batch: Batch) -> Result<(), Batch> {
        let mut spins = 0u32;
        loop {
            if !self.ring.consumer_open.load(Ordering::Acquire) {
                return Err(batch);
            }
            if self.has_room() {
                if spins > 0 {
                    // The consumer freed a slot while we spun: spinning
                    // paid, widen the budget.
                    self.backoff.on_spin_win();
                }
                self.commit(batch);
                return Ok(());
            }
            if spins < self.backoff.spin_limit() {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            // Park: register this thread, announce, re-check (fence
            // inside `prepare` orders the announce before the re-read),
            // sleep.
            let me = std::thread::current().id();
            if self.registered != Some(me) {
                self.ring.producer_waiter.register_current();
                self.registered = Some(me);
            }
            self.ring.producer_waiter.prepare();
            self.head_cache = self.ring.head.0.load(Ordering::SeqCst);
            if self.tail.wrapping_sub(self.head_cache) < self.capacity()
                || !self.ring.consumer_open.load(Ordering::SeqCst)
            {
                self.ring.producer_waiter.cancel();
            } else {
                self.ring.parks.fetch_add(1, Ordering::Relaxed);
                self.backoff.on_park();
                self.ring.producer_waiter.park(self.backoff.park_timeout());
            }
            spins = 0;
        }
    }

    /// Takes a drained buffer off the pool lane, if one is waiting.
    /// Never blocks — an empty lane means the caller allocates.
    pub(crate) fn take_recycled(&mut self) -> Option<Batch> {
        if self.pool_head == self.pool_tail_cache {
            self.pool_tail_cache = self.ring.pool_tail.0.load(Ordering::Acquire);
            if self.pool_head == self.pool_tail_cache {
                return None;
            }
        }
        let idx = (self.pool_head & self.ring.mask) as usize;
        // SAFETY: reverse-lane SPSC — `pool_head < pool_tail` was
        // observed with acquire ordering, so the consumer's write of
        // this pool slot happens-before this read, and the consumer
        // will not rewrite it until it observes `pool_head + 1`.
        let batch = unsafe { (*self.ring.pool[idx].0.get()).take() };
        debug_assert!(batch.is_some(), "SPSC protocol: published pool slot empty");
        self.pool_head = self.pool_head.wrapping_add(1);
        self.ring
            .pool_head
            .0
            .store(self.pool_head, Ordering::Release);
        batch
    }

    /// The live adaptive spin budget (for policy gauges).
    pub(crate) fn adaptive_spin(&self) -> u32 {
        self.backoff.spin_limit()
    }

    /// The live adaptive park timeout in µs (for policy gauges).
    pub(crate) fn adaptive_park_us(&self) -> u64 {
        self.backoff.park_timeout().as_micros() as u64
    }
}

impl Drop for RingProducer {
    fn drop(&mut self) {
        self.ring.producer_open.store(false, Ordering::Release);
        fence(Ordering::SeqCst);
        // The shard must notice the closure to detach the ring.
        self.ring.consumer_waiter.wake();
    }
}

/// The consuming endpoint (exactly one per ring; `!Clone`).
pub(crate) struct RingConsumer {
    ring: Arc<Ring>,
    /// Local copy of `ring.head` (we are its only writer).
    head: u64,
    /// Last observed producer position; refreshed when apparently empty.
    tail_cache: u64,
    /// Local copy of `ring.pool_tail` (we are its only writer).
    pool_tail: u64,
    /// Last observed taker position on the pool lane.
    pool_head_cache: u64,
}

impl RingConsumer {
    /// Dequeues the oldest batch, or `None` if the ring is momentarily
    /// empty. Never blocks — the shard worker multiplexes many rings.
    pub(crate) fn pop(&mut self) -> Option<Batch> {
        if self.head == self.tail_cache {
            self.tail_cache = self.ring.tail.0.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let idx = (self.head & self.ring.mask) as usize;
        // SAFETY: `head < tail` was observed with acquire ordering, so the
        // producer's write of this slot happens-before this read, and the
        // producer will not rewrite it until it observes `head + 1`.
        let batch = unsafe { (*self.ring.slots[idx].0.get()).take() };
        debug_assert!(batch.is_some(), "SPSC protocol: published slot empty");
        self.head = self.head.wrapping_add(1);
        self.ring.head.0.store(self.head, Ordering::Release);
        fence(Ordering::SeqCst);
        self.ring.producer_waiter.wake();
        batch
    }

    /// Hands a drained batch buffer back to the producer via the pool
    /// lane. The buffer is cleared here (cheap — `DigestReport` is
    /// dropped by the drain, clearing only resets the length); a full
    /// lane simply drops it, because recycling is an optimization, never
    /// required for correctness.
    pub(crate) fn recycle(&mut self, mut batch: Batch) {
        batch.clear();
        let cap = self.ring.mask + 1;
        if self.pool_tail.wrapping_sub(self.pool_head_cache) >= cap {
            self.pool_head_cache = self.ring.pool_head.0.load(Ordering::Acquire);
            if self.pool_tail.wrapping_sub(self.pool_head_cache) >= cap {
                return; // lane full: drop the buffer
            }
        }
        let idx = (self.pool_tail & self.ring.mask) as usize;
        // SAFETY: reverse-lane SPSC — `pool_tail - pool_head < capacity`,
        // so the producer has taken this pool slot (or it was never
        // written) and will not read it until it observes the release
        // store of `pool_tail + 1` below.
        unsafe { *self.ring.pool[idx].0.get() = Some(batch) };
        self.pool_tail = self.pool_tail.wrapping_add(1);
        self.ring
            .pool_tail
            .0
            .store(self.pool_tail, Ordering::Release);
        // No wake: the producer polls the lane on ship and falls back to
        // allocation when it is empty — nobody ever sleeps on the pool.
    }

    /// No batch is currently queued (racy by nature; exact once the
    /// producer endpoint is closed).
    pub(crate) fn is_empty(&self) -> bool {
        self.ring.tail.0.load(Ordering::Acquire) == self.head
    }

    /// Monotonic count of batches the producer has published (the
    /// ring's write epoch). With [`consumed`](Self::consumed) this lets
    /// a shard answer "has everything enqueued before time T been
    /// applied?" without draining to a quiesce point.
    pub(crate) fn published(&self) -> u64 {
        self.ring.tail.0.load(Ordering::Acquire)
    }

    /// Monotonic count of batches this consumer has popped (the ring's
    /// read epoch).
    pub(crate) fn consumed(&self) -> u64 {
        self.head
    }

    /// Batches currently queued (a snapshot — the producer may enqueue
    /// more immediately after). Used to bound drains: popping `pending()`
    /// batches covers everything enqueued before the call.
    pub(crate) fn pending(&self) -> u64 {
        self.ring
            .tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head)
    }

    /// Producer endpoint dropped *and* everything it queued was consumed:
    /// the ring can be detached.
    pub(crate) fn is_finished(&self) -> bool {
        // Order matters: check closure before emptiness, so a push racing
        // the producer's drop is never missed.
        !self.ring.producer_open.load(Ordering::Acquire) && self.is_empty()
    }
}

impl Drop for RingConsumer {
    fn drop(&mut self) {
        self.ring.consumer_open.store(false, Ordering::Release);
        fence(Ordering::SeqCst);
        // A producer parked on a full ring must wake up and fail over.
        self.ring.producer_waiter.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Why a non-blocking push did not complete.
    enum PushError {
        /// The ring is full right now; the batch is handed back untouched.
        Full(Batch),
        /// The consumer endpoint is gone; the batch is handed back.
        Closed(Batch),
    }

    impl RingProducer {
        /// Non-blocking enqueue: `Full` hands the batch back immediately
        /// instead of parking, so a test can fill a ring to the brim.
        fn try_push(&mut self, batch: Batch) -> Result<(), PushError> {
            if !self.ring.consumer_open.load(Ordering::Acquire) {
                return Err(PushError::Closed(batch));
            }
            if self.has_room() {
                self.commit(batch);
                Ok(())
            } else {
                Err(PushError::Full(batch))
            }
        }
    }

    fn test_pair(cap: usize) -> (RingProducer, RingConsumer) {
        ring(cap, Arc::new(Waiter::new()), Arc::new(AtomicU64::new(0)))
    }

    fn batch(tag: u64) -> Batch {
        vec![DigestReport::new(
            tag,
            tag,
            pint_core::Digest::new(1),
            1,
            tag,
        )]
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = test_pair(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = test_pair(1);
        assert_eq!(p.capacity(), 1);
    }

    #[test]
    fn full_and_empty_boundaries() {
        let (mut p, mut c) = test_pair(4);
        assert!(c.pop().is_none(), "fresh ring is empty");
        for i in 0..4 {
            p.try_push(batch(i)).ok().expect("room");
        }
        match p.try_push(batch(99)) {
            Err(PushError::Full(b)) => assert_eq!(b[0].flow, 99, "batch handed back"),
            _ => panic!("5th push into capacity-4 ring must report Full"),
        }
        for i in 0..4 {
            assert_eq!(c.pop().expect("queued")[0].flow, i);
        }
        assert!(c.pop().is_none(), "drained ring is empty");
        assert!(!c.is_finished(), "producer still open");
    }

    #[test]
    fn wrap_around_preserves_fifo_order() {
        let (mut p, mut c) = test_pair(4);
        // Many laps over a 4-slot ring, interleaving pushes and pops.
        let mut next_pop = 0u64;
        for i in 0..1000u64 {
            p.push(batch(i)).expect("consumer open");
            if i % 3 == 0 {
                while let Some(b) = c.pop() {
                    assert_eq!(b[0].flow, next_pop, "FIFO across wrap");
                    next_pop += 1;
                }
            }
        }
        while let Some(b) = c.pop() {
            assert_eq!(b[0].flow, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, 1000);
    }

    #[test]
    fn closed_consumer_fails_push_and_returns_batch() {
        let (mut p, c) = test_pair(4);
        drop(c);
        match p.push(batch(7)) {
            Err(b) => assert_eq!(b[0].flow, 7),
            _ => panic!("push into consumer-less ring must fail Closed"),
        }
        match p.try_push(batch(8)) {
            Err(PushError::Closed(b)) => assert_eq!(b[0].flow, 8),
            _ => panic!("try_push must also fail Closed"),
        }
    }

    #[test]
    fn closed_producer_finishes_after_drain() {
        let (mut p, mut c) = test_pair(4);
        p.push(batch(1)).expect("open");
        drop(p);
        assert!(!c.is_finished(), "still has a queued batch");
        assert_eq!(c.pop().expect("queued")[0].flow, 1);
        assert!(c.is_finished(), "closed and drained");
    }

    #[test]
    fn concurrent_producer_consumer_keeps_order_under_wrap_and_parking() {
        // Tiny capacity forces constant wrap-around and real parking on
        // both sides; every batch must still arrive exactly once, in
        // order.
        const N: u64 = 20_000;
        let (mut p, mut c) = test_pair(2);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push(batch(i)).expect("consumer open");
            }
            // `p` drops here, closing the ring.
        });
        let mut expect = 0u64;
        let mut idle = 0u32;
        loop {
            match c.pop() {
                Some(b) => {
                    assert_eq!(b[0].flow, expect, "order violated at {expect}");
                    expect += 1;
                    idle = 0;
                }
                None if c.is_finished() => break,
                None => {
                    idle += 1;
                    if idle > 64 {
                        std::thread::yield_now();
                    }
                }
            }
        }
        assert_eq!(expect, N, "every batch delivered exactly once");
        producer.join().expect("producer thread");
    }

    #[test]
    fn recycle_lane_returns_cleared_buffers_in_fifo_order() {
        let (mut p, mut c) = test_pair(4);
        assert!(p.take_recycled().is_none(), "fresh lane is empty");
        p.try_push(batch(1)).ok().expect("room");
        let b = c.pop().expect("queued");
        let cap_before = b.capacity();
        c.recycle(b);
        let back = p.take_recycled().expect("recycled buffer waiting");
        assert!(back.is_empty(), "recycled buffer is cleared");
        assert_eq!(back.capacity(), cap_before, "backing store preserved");
        assert!(p.take_recycled().is_none(), "lane drained");
    }

    #[test]
    fn recycle_lane_wraps_across_many_laps() {
        // Far more recycles than lane capacity: every buffer must come
        // back (none lost, none duplicated) as long as the producer
        // keeps draining the lane.
        let (mut p, mut c) = test_pair(2);
        let mut returned = 0u64;
        for i in 0..1_000u64 {
            p.push(batch(i)).expect("consumer open");
            let b = c.pop().expect("queued");
            c.recycle(b);
            while p.take_recycled().is_some() {
                returned += 1;
            }
        }
        assert_eq!(returned, 1_000, "every recycled buffer came back");
    }

    #[test]
    fn full_recycle_lane_drops_excess_buffers() {
        let (mut p, mut c) = test_pair(2);
        // Feed 5 batches through; never take from the lane, so only the
        // lane capacity (2) can be held — the rest are dropped.
        for i in 0..5u64 {
            p.push(batch(i)).expect("room");
            let b = c.pop().expect("queued");
            c.recycle(b);
        }
        let mut held = 0;
        while p.take_recycled().is_some() {
            held += 1;
        }
        assert_eq!(held, 2, "lane holds exactly its capacity");
    }

    #[test]
    fn recycled_buffers_survive_consumer_shutdown() {
        // Buffers parked in the lane stay takeable after the consumer
        // endpoint closes (they are free memory, not data), and dropping
        // both endpoints frees whatever is still pooled.
        let (mut p, mut c) = test_pair(4);
        for i in 0..2u64 {
            p.try_push(batch(i)).ok().expect("room");
            let b = c.pop().expect("queued");
            c.recycle(b);
        }
        drop(c);
        assert!(p.take_recycled().is_some());
        assert!(p.take_recycled().is_some());
        assert!(p.take_recycled().is_none());
        // One more lap: recycle again is impossible (consumer gone), and
        // dropping the producer releases the ring with pooled buffers
        // still inside — covered by the first pair above where `c`
        // dropped while the lane was full.
    }

    #[test]
    fn concurrent_recycling_loses_no_order_and_reuses_buffers() {
        // The forward lane's FIFO contract must hold while the reverse
        // lane is in constant use from both threads.
        const N: u64 = 20_000;
        let (mut p, mut c) = test_pair(2);
        let producer = std::thread::spawn(move || {
            let mut reused = 0u64;
            for i in 0..N {
                let buf = match p.take_recycled() {
                    Some(mut b) => {
                        reused += 1;
                        b.extend(batch(i));
                        b
                    }
                    None => batch(i),
                };
                p.push(buf).expect("consumer open");
            }
            reused
        });
        let mut expect = 0u64;
        loop {
            match c.pop() {
                Some(b) => {
                    assert_eq!(b[0].flow, expect, "order violated at {expect}");
                    expect += 1;
                    c.recycle(b);
                }
                None if c.is_finished() => break,
                None => std::hint::spin_loop(),
            }
        }
        assert_eq!(expect, N, "every batch delivered exactly once");
        let reused = producer.join().expect("producer thread");
        assert!(reused > 0, "steady state must reuse pooled buffers");
    }

    #[test]
    fn published_and_consumed_track_ring_epochs() {
        let (mut p, mut c) = test_pair(4);
        assert_eq!((c.published(), c.consumed()), (0, 0));
        p.try_push(batch(0)).ok().expect("room");
        p.try_push(batch(1)).ok().expect("room");
        assert_eq!((c.published(), c.consumed()), (2, 0));
        c.pop().expect("queued");
        assert_eq!((c.published(), c.consumed()), (2, 1));
        c.pop().expect("queued");
        assert_eq!((c.published(), c.consumed()), (2, 2));
    }

    #[test]
    fn backoff_controller_adapts_within_its_bounds() {
        let mut b = BackoffController::new();
        assert_eq!(b.spin_limit(), SPIN_LIMIT, "starts at the spin bound");
        assert_eq!(
            b.park_timeout(),
            PARK_TIMEOUT / 16,
            "starts at PARK_TIMEOUT / 16"
        );
        // Sustained idleness: spin decays to the floor, park grows to
        // `PARK_TIMEOUT` — and both saturate there.
        for _ in 0..20 {
            b.on_park();
        }
        assert_eq!(b.spin_limit(), SPIN_MIN);
        assert_eq!(b.park_timeout(), PARK_TIMEOUT);
        // Sustained occupancy: spin recovers to the bound. The park
        // bound stays put — hot-path parks end via explicit wakes, so
        // a tight safety-net timer would only preempt the other side.
        for _ in 0..20 {
            b.on_spin_win();
        }
        assert_eq!(b.spin_limit(), SPIN_LIMIT);
        assert_eq!(b.park_timeout(), PARK_TIMEOUT);
    }

    #[test]
    fn parked_producer_wakes_when_consumer_frees_a_slot() {
        let (mut p, mut c) = test_pair(1);
        let parks = Arc::clone(&p.ring.parks);
        p.push(batch(0)).expect("room");
        let producer = std::thread::spawn(move || {
            // Full ring: this blocks (parks) until the main thread pops.
            p.push(batch(1)).expect("consumer open");
        });
        // Give the producer time to reach the parked state.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(c.pop().expect("first batch")[0].flow, 0);
        producer.join().expect("producer thread");
        assert_eq!(c.pop().expect("second batch")[0].flow, 1);
        assert!(
            parks.load(Ordering::Relaxed) >= 1,
            "producer should have parked at least once"
        );
    }
}
