//! Open-loop sending: one chunk per millisecond on a fixed schedule,
//! each digest stamped with its chunk's scheduled send time, and a
//! watermark poller turning `Collector::watermark` into per-chunk
//! freshness (time from the chunk's due time until it is applied).
//!
//! Chunks are timed from when they were due, so a stall counts against
//! every chunk queued behind it. The one exception is the sender's own
//! oversleep: a chunk that fell due while the sender thread slept (and
//! the host woke it late) is timed from the wake-up instead. That lateness belongs to the harness, not the
//! system, and is reported on its own as `gen.late_p99_ms`.

use crate::pipeline::CHUNK_INTERVAL;
use crate::report::ms;
use pint_core::DigestReport;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long the watermark poller sleeps between reads: well below the
/// sub-millisecond local freshness it resolves. It still sleeps, so it
/// never holds a core the stack under test needs.
const WATERMARK_POLL: Duration = Duration::from_micros(20);

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Sets the calling thread's timer slack to 1 ns, so a short sleep wakes
/// when asked instead of up to the default 50 µs later. Best effort: on
/// failure the poller only resolves freshness more coarsely.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes
    // only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Sleeps until due times and says from when each chunk counts.
struct Pacer {
    last_wake: Option<Instant>,
}

impl Pacer {
    fn new() -> Self {
        Self { last_wake: None }
    }

    /// Sleeps until `due` if it is still ahead, and returns the instant
    /// the chunk is timed from: `due`, or the wake-up of the last sleep
    /// if the sender overslept past `due`.
    fn wait(&mut self, due: Instant) -> Instant {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            self.last_wake = Some(Instant::now());
        }
        self.last_wake.map_or(due, |w| w.max(due))
    }
}

/// What one paced phase observed.
#[derive(Default)]
pub struct PacedOut {
    /// Per chunk: due time → watermark covers the chunk.
    pub fresh_ms: Vec<f64>,
    /// Per chunk: how late the sender started it.
    pub late_ms: Vec<f64>,
    /// Per chunk (traced): flush → the forwarder counts it delivered.
    pub ack_ms: Vec<f64>,
}

/// Sends `reports` in chunks of `per_chunk`, chunk `i` due at
/// `start + i ms`, through `push_chunk` (push + flush). `watermark`
/// reads the collector's newest applied timestamp; `delivered`, when
/// given, reads the forwarder's delivered-digest count (traced runs).
/// Every wait sleeps.
pub fn send(
    reports: &[DigestReport],
    per_chunk: usize,
    start: Instant,
    mut push_chunk: impl FnMut(&[DigestReport]),
    watermark: &(dyn Fn() -> u64 + Sync),
    delivered: Option<&(dyn Fn() -> u64 + Sync)>,
) -> PacedOut {
    let chunks: Vec<&[DigestReport]> = reports.chunks(per_chunk).collect();
    let newest: Vec<u64> = chunks
        .iter()
        .map(|c| c.iter().map(|r| r.ts).max().unwrap_or(0))
        .collect();
    let cumulative: Vec<u64> = chunks
        .iter()
        .scan(0u64, |n, c| {
            *n += c.len() as u64;
            Some(*n)
        })
        .collect();
    let flushed_ns: Vec<AtomicU64> = chunks.iter().map(|_| AtomicU64::new(0)).collect();
    // When each chunk counts from (see `Pacer`), in ns since `start`.
    let from_ns: Vec<AtomicU64> = chunks.iter().map(|_| AtomicU64::new(0)).collect();
    let sent = AtomicUsize::new(0);
    let due = |i: usize| start + CHUNK_INTERVAL * i as u32;
    let mut out = PacedOut::default();

    // Digests the forwarder had delivered before this phase.
    let delivered_before = delivered.map_or(0, |d| d());
    std::thread::scope(|s| {
        let poller = s.spawn(|| {
            tight_timer_slack();
            let (mut fresh, mut acks) = (Vec::new(), Vec::new());
            let (mut next, mut next_ack) = (0usize, 0usize);
            let mut idle_since = Instant::now();
            while next < chunks.len() || (delivered.is_some() && next_ack < chunks.len()) {
                std::thread::sleep(WATERMARK_POLL);
                let now = Instant::now();
                let wm = watermark();
                let flushed = sent.load(Ordering::Acquire);
                let before = (next, next_ack);
                while next < flushed && newest[next] <= wm {
                    let from = start + Duration::from_nanos(from_ns[next].load(Ordering::Relaxed));
                    fresh.push(ms(now.saturating_duration_since(from)));
                    next += 1;
                }
                if let Some(delivered) = delivered {
                    let d = delivered() - delivered_before;
                    while next_ack < flushed && cumulative[next_ack] <= d {
                        let at = start
                            + Duration::from_nanos(flushed_ns[next_ack].load(Ordering::Relaxed));
                        acks.push(ms(now.saturating_duration_since(at)));
                        next_ack += 1;
                    }
                }
                if (next, next_ack) != before || flushed < chunks.len() {
                    idle_since = now;
                } else if now - idle_since > Duration::from_secs(30) {
                    break; // stalled: the missing chunks fail the run's checks
                }
            }
            (fresh, acks)
        });

        let mut pacer = Pacer::new();
        for (i, chunk) in chunks.iter().enumerate() {
            let due = due(i);
            let from = pacer.wait(due);
            from_ns[i].store((from - start).as_nanos() as u64, Ordering::Relaxed);
            let t = Instant::now();
            out.late_ms.push(ms(t.saturating_duration_since(due)));
            push_chunk(chunk);
            let done = Instant::now();
            flushed_ns[i].store((done - start).as_nanos() as u64, Ordering::Relaxed);
            sent.store(i + 1, Ordering::Release);
        }
        let (fresh, acks) = poller.join().expect("watermark poller panicked");
        out.fresh_ms = fresh;
        out.ack_ms = acks;
    });
    out
}
