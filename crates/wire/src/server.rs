//! The poll-loop frame server every PINT TCP endpoint runs on.
//!
//! A [`FrameServer`] multiplexes every connection on **one** thread
//! over non-blocking `std::net` sockets — the workspace is offline and
//! runtime-free, so there is no async executor to lean on. The core
//! owns everything that is not a server's own business:
//!
//! * accepting, and refusing connections past
//!   [`ServerConfig::max_connections`];
//! * per-connection frame reassembly and write-back buffers (replies to
//!   a congested peer resume where the socket stopped taking bytes);
//! * the [`ServerConfig::read_deadline`] slow-loris guard;
//! * the [`ServerStats`] counters (framing errors, stalls, rejections);
//! * answering `Metrics` and `TraceDump` requests from the configured
//!   registry and flight recorder.
//!
//! Every other well-framed frame goes to the server's [`FrameHandler`],
//! which may append reply frames. The frames one connection delivers in
//! one tick form a *burst*: the core ends each burst with
//! [`FrameHandler::end_burst`] before it writes that connection's
//! replies, so a handler may buffer work across a burst's frames (the
//! digest server applies a burst's batches with one sink call) and
//! still finish it before any reply leaves. Per-tick work is bounded per
//! connection, so one hostile peer (oversized frames, garbage bytes,
//! slow-loris partial writes, a half-open socket) can be rejected,
//! stall, or die without delaying any other connection or the accept
//! path. A handler's own work is not bounded: while it runs (a fleet
//! query's merge, a full scan), no other connection is served.
//!
//! A tick in which nothing moved ends in a sleep: [`EXCHANGE_SLEEP`] if
//! any connection moved (bytes read, a frame handled, reply bytes
//! flushed) within the last [`IDLE_SLEEP`], whatever the frame was and
//! whether it got a reply; [`IDLE_SLEEP`] once all are silent.

use crate::{
    frame_into, FramePoll, FrameReader, FrameType, MetricsMsg, MetricsReport, ReadFrameError,
    TraceMsg, TraceReport, WireDecode,
};
use pint_obs::{FlightRecorder, MetricsRegistry};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default [`ServerConfig::read_deadline`].
pub const READ_DEADLINE: Duration = Duration::from_secs(2);

/// Default [`ServerConfig::max_connections`].
pub const MAX_CONNECTIONS: usize = 1_024;

/// Frames decoded per connection per tick — bounds how long one
/// firehose peer can monopolize the poll thread.
const FRAMES_PER_TICK: usize = 64;

/// The sleep once every connection has been silent this long: an idle
/// server wakes once a millisecond and never spins. Only a frame that
/// ends such a silence waits up to 1 ms; a paced forwarder's next
/// sealed batch or a request chained on an answer waits ≤ 50 µs.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// The sleep within [`IDLE_SLEEP`] of any connection's movement. Its
/// cost is ≈1 ms of short sleeps after each movement: ≈8% of a core for
/// a stream of 2 frames/ms (2 vCPU); a saturated one never sleeps.
const EXCHANGE_SLEEP: Duration = Duration::from_micros(50);

/// What a [`FrameServer`] needs besides its handler.
#[derive(Clone)]
pub struct ServerConfig {
    /// Drop a connection stuck mid-frame (or mid-reply-write) with no
    /// progress for this long — the slow-loris guard. Idle connections
    /// at a frame boundary are unaffected.
    pub read_deadline: Duration,
    /// Connections beyond this are accepted and immediately dropped
    /// (counted), bounding poll-loop state under a connection flood.
    pub max_connections: usize,
    /// The registry `Metrics` requests are answered from.
    pub metrics: MetricsRegistry,
    /// The recorder `TraceDump` requests are answered from; without
    /// one they get an empty dump, so clients need not know whether
    /// the server traces.
    pub recorder: Option<FlightRecorder>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_deadline: READ_DEADLINE,
            max_connections: MAX_CONNECTIONS,
            metrics: MetricsRegistry::new(),
            recorder: None,
        }
    }
}

/// The core's connection counters, handed to [`FrameHandler::tick`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections currently served.
    pub active: usize,
    /// Connections dropped because their byte stream stopped being
    /// PINT frames (bad magic, future version, hostile length — the
    /// stream cannot resynchronize).
    pub framing_errors: u64,
    /// Connections dropped by the slow-loris deadline.
    pub stalled_dropped: u64,
    /// Connections refused over [`ServerConfig::max_connections`].
    pub connections_rejected: u64,
}

/// A server's frame logic, run on the [`FrameServer`] poll thread.
pub trait FrameHandler: Send + 'static {
    /// Handles one well-framed frame, appending any reply frames to
    /// `reply`. `Metrics` and `TraceDump` *requests* never get here —
    /// the core answers them.
    fn frame(&mut self, ty: FrameType, payload: &[u8], reply: &mut Vec<u8>);

    /// Ends a burst: called once after every tick in which a connection
    /// delivered at least one frame, after the last of those frames was
    /// dispatched and before any reply queued during the tick is
    /// written. It is called on every way out of the frame loop — a
    /// drained socket, the per-tick frame bound, a clean close, a
    /// framing error or an I/O error — so work a handler defers to the
    /// end of a burst is never stranded, and replies to a burst's frames
    /// never reach the peer before that work is done.
    fn end_burst(&mut self) {}

    /// Called after every poll tick in which anything moved, and once
    /// more at shutdown with `active == 0`. A connection is counted in
    /// `active` before its first frame is handled.
    fn tick(&mut self, _stats: &ServerStats) {}
}

/// A closure is a handler without [`end_burst`](FrameHandler::end_burst)
/// or [`tick`](FrameHandler::tick).
impl<F> FrameHandler for F
where
    F: FnMut(FrameType, &[u8], &mut Vec<u8>) + Send + 'static,
{
    fn frame(&mut self, ty: FrameType, payload: &[u8], reply: &mut Vec<u8>) {
        self(ty, payload, reply)
    }
}

/// One listening socket and the thread polling it and all of its
/// connections (see the module docs). Dropping it stops the thread and
/// closes every connection.
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Binds `addr` and starts the poll thread, named `name`. Use
    /// `"127.0.0.1:0"` to let the OS pick a port (read it back via
    /// [`local_addr`](Self::local_addr)). Bind and thread-spawn
    /// failures are returned, never panics.
    pub fn bind(
        addr: impl ToSocketAddrs,
        name: &str,
        config: ServerConfig,
        handler: impl FrameHandler,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || poll_loop(listener, config, handler, &loop_stop))?;
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn poll_loop(
    listener: TcpListener,
    config: ServerConfig,
    mut handler: impl FrameHandler,
    stop: &AtomicBool,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut stats = ServerStats::default();
    while !stop.load(Ordering::Acquire) {
        // One bounded tick per connection; a dropped connection never
        // takes the loop down with it.
        let mut progressed = false;
        conns.retain_mut(|conn| match conn.tick(&config, &mut handler, &mut stats) {
            Some(moved) => {
                progressed |= moved;
                true
            }
            None => {
                progressed = true;
                false
            }
        });
        // Accept after the connection ticks, so the handler's tick
        // below reports a connection before its first frame is read.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    if conns.len() >= config.max_connections {
                        stats.connections_rejected += 1;
                        continue; // the stream drops here
                    }
                    match Conn::new(stream) {
                        Ok(conn) => {
                            stats.accepted += 1;
                            conns.push(conn);
                        }
                        Err(_) => stats.connections_rejected += 1,
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock, or a transient accept error
            }
        }
        if progressed {
            stats.active = conns.len();
            handler.tick(&stats);
        } else {
            let last = conns.iter().map(|c| c.last_progress);
            std::thread::sleep(idle_wait(Instant::now(), last));
        }
    }
    stats.active = 0;
    handler.tick(&stats);
}

/// The module docs' wait rule, given `now` and each connection's last
/// movement. A slow-loris peer stops holding the short sleep 1 ms after
/// its last byte.
fn idle_wait(now: Instant, last_progress: impl IntoIterator<Item = Instant>) -> Duration {
    let recent = |t: Instant| now.saturating_duration_since(t) < IDLE_SLEEP;
    if last_progress.into_iter().any(recent) {
        EXCHANGE_SLEEP
    } else {
        IDLE_SLEEP
    }
}

/// One connection's poll-loop state.
struct Conn {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    /// Reply bytes not yet accepted by the socket (partial writes to a
    /// congested or hostile peer resume here).
    write_buf: Vec<u8>,
    /// Last instant this connection moved: bytes read, a frame
    /// decoded, or reply bytes flushed.
    last_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: FrameReader::new(stream),
            writer,
            write_buf: Vec::new(),
            last_progress: Instant::now(),
        })
    }

    /// Serves one tick: decodes up to [`FRAMES_PER_TICK`] frames (one
    /// burst, ended by [`FrameHandler::end_burst`]), flushes pending
    /// replies, and polices the progress deadline. `Some(moved)` keeps
    /// the connection; `None` drops it.
    fn tick(
        &mut self,
        config: &ServerConfig,
        handler: &mut impl FrameHandler,
        stats: &mut ServerStats,
    ) -> Option<bool> {
        let mut progressed = false;
        let buffered_before = self.reader.buffered();
        let mut closed = false;
        let mut dead = false;
        for _ in 0..FRAMES_PER_TICK {
            match self.reader.poll_frame() {
                Ok(FramePoll::Frame(ty, payload)) => {
                    progressed = true;
                    dispatch(ty, &payload, config, handler, &mut self.write_buf);
                }
                Ok(FramePoll::Pending) => break,
                Ok(FramePoll::Closed) => {
                    closed = true;
                    break;
                }
                Err(e) => {
                    // Framing cannot resynchronize (counted); a reset or
                    // mid-frame EOF is a plain disconnect. Either way the
                    // connection goes once its burst has ended.
                    if matches!(e, ReadFrameError::Wire(_)) {
                        stats.framing_errors += 1;
                    }
                    dead = true;
                    break;
                }
            }
        }
        if progressed {
            handler.end_burst();
        }
        if dead {
            return None;
        }
        if self.reader.buffered() != buffered_before {
            progressed = true;
        }

        // Flush replies, tolerating partial writes.
        while !self.write_buf.is_empty() {
            match self.writer.write(&self.write_buf) {
                Ok(0) => return None,
                Ok(n) => {
                    self.write_buf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return None,
            }
        }

        if closed && self.write_buf.is_empty() {
            return None; // clean goodbye, replies delivered
        }
        if progressed {
            self.last_progress = Instant::now();
        } else {
            // Mid-frame (or mid-reply) with no movement: slow-loris.
            let mid_work = self.reader.buffered() > 0 || !self.write_buf.is_empty();
            if mid_work && self.last_progress.elapsed() > config.read_deadline {
                stats.stalled_dropped += 1;
                return None;
            }
        }
        Some(progressed)
    }
}

/// Answers `Metrics`/`TraceDump` requests; everything else (stray
/// reports and junk payloads of those types included) goes to the
/// handler.
fn dispatch(
    ty: FrameType,
    payload: &[u8],
    config: &ServerConfig,
    handler: &mut impl FrameHandler,
    reply: &mut Vec<u8>,
) {
    match ty {
        FrameType::Metrics => {
            if let Ok(MetricsMsg::Request(req)) = MetricsMsg::decode(payload) {
                let report = MetricsReport {
                    request_id: req.request_id,
                    source: 0,
                    snapshot: config.metrics.snapshot(),
                };
                frame_into(FrameType::Metrics, &report, reply);
                return;
            }
        }
        FrameType::TraceDump => {
            if let Ok(TraceMsg::Request(req)) = TraceMsg::decode(payload) {
                let report = TraceReport {
                    request_id: req.request_id,
                    source: 0,
                    dump: config
                        .recorder
                        .as_ref()
                        .map(|r| r.snapshot())
                        .unwrap_or_default(),
                };
                frame_into(FrameType::TraceDump, &report, reply);
                return;
            }
        }
        _ => {}
    }
    handler.frame(ty, payload, reply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRequest, WireReader};
    use std::io::Read;
    use std::sync::mpsc::{channel, Sender};

    /// Echoes every frame back as a `Hello` carrying its type byte and
    /// reports each tick's counters.
    struct Echo(Sender<ServerStats>);

    impl FrameHandler for Echo {
        fn frame(&mut self, ty: FrameType, _payload: &[u8], reply: &mut Vec<u8>) {
            struct TypeByte(u8);
            impl crate::WireEncode for TypeByte {
                fn encode_into(&self, out: &mut Vec<u8>) {
                    out.push(self.0);
                }
            }
            frame_into(FrameType::Hello, &TypeByte(ty as u8), reply);
        }

        fn tick(&mut self, stats: &ServerStats) {
            let _ = self.0.send(*stats);
        }
    }

    fn connect(addr: SocketAddr) -> (TcpStream, FrameReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = FrameReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn caps_connections_answers_requests_and_routes_the_rest() {
        let (tx, ticks) = channel();
        let metrics = MetricsRegistry::new();
        metrics.counter("probe_total").add(7);
        let server = FrameServer::bind(
            "127.0.0.1:0",
            "frame-server-test",
            ServerConfig {
                max_connections: 1,
                metrics,
                ..ServerConfig::default()
            },
            Echo(tx),
        )
        .unwrap();
        let (mut stream, mut reader) = connect(server.local_addr());

        // Core-answered: a Metrics request (from the configured
        // registry) and a TraceDump request (no recorder: empty dump).
        let mut out = Vec::new();
        frame_into(
            FrameType::Metrics,
            &MetricsRequest { request_id: 4 },
            &mut out,
        );
        frame_into(
            FrameType::TraceDump,
            &crate::TraceRequest { request_id: 5 },
            &mut out,
        );
        frame_into(FrameType::Bye, &MetricsRequest { request_id: 0 }, &mut out);
        stream.write_all(&out).unwrap();

        let (ty, payload) = reader.read_frame().unwrap().unwrap();
        assert_eq!(ty, FrameType::Metrics);
        let Ok(MetricsMsg::Report(report)) = MetricsMsg::decode(&payload) else {
            panic!("expected a metrics report");
        };
        assert_eq!(report.request_id, 4);
        assert_eq!(report.snapshot.counter_total("probe_total"), 7);
        let (ty, payload) = reader.read_frame().unwrap().unwrap();
        assert_eq!(ty, FrameType::TraceDump);
        let Ok(TraceMsg::Report(report)) = TraceMsg::decode(&payload) else {
            panic!("expected a trace report");
        };
        assert_eq!(report.request_id, 5);
        assert!(report.dump.events.is_empty());
        // Handler-routed: the Bye frame comes back as the echo.
        let (ty, payload) = reader.read_frame().unwrap().unwrap();
        assert_eq!(ty, FrameType::Hello);
        assert_eq!(
            WireReader::new(&payload).get_u8().unwrap(),
            FrameType::Bye as u8
        );

        // Over the cap: accepted, counted, and closed at once.
        let mut extra = TcpStream::connect(server.local_addr()).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(extra.read(&mut [0u8; 1]).unwrap(), 0);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s = ticks.recv_timeout(Duration::from_secs(10)).unwrap();
            if s.connections_rejected == 1 {
                assert_eq!((s.accepted, s.active), (1, 1));
                break;
            }
            assert!(Instant::now() < deadline, "rejection never counted");
        }
        drop(server);
        let last = ticks.try_iter().last().expect("a final tick at shutdown");
        assert_eq!(last.active, 0);
    }

    #[test]
    fn the_wait_rule_reads_only_how_recently_a_connection_moved() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        assert_eq!(idle_wait(t0, []), IDLE_SLEEP);
        assert_eq!(idle_wait(at(999), [t0]), EXCHANGE_SLEEP);
        assert_eq!(idle_wait(at(1_000), [t0]), IDLE_SLEEP);
        assert_eq!(idle_wait(at(5_000), [t0, at(4_500)]), EXCHANGE_SLEEP);
        assert_eq!(idle_wait(at(5_000), [t0, at(4_000)]), IDLE_SLEEP);

        // Whatever moved a connection holds the short wait for the next
        // IDLE_SLEEP: an acked batch, a one-way snapshot, half a frame.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(listener.accept().unwrap().0).unwrap();
        let mut handler = |ty: FrameType, _: &[u8], reply: &mut Vec<u8>| {
            if ty == FrameType::DigestBatch {
                frame_into(
                    FrameType::BatchAck,
                    &MetricsRequest { request_id: 1 },
                    reply,
                );
            }
        };
        let config = ServerConfig::default();
        let mut stats = ServerStats::default();
        for (ty, cut) in [
            (FrameType::DigestBatch, None),
            (FrameType::Snapshot, None),
            (FrameType::Hello, Some(5)),
        ] {
            // A tick with nothing to read is no movement.
            let before = conn.last_progress;
            assert_eq!(conn.tick(&config, &mut handler, &mut stats), Some(false));
            assert_eq!(conn.last_progress, before);
            let mut out = Vec::new();
            frame_into(ty, &MetricsRequest { request_id: 2 }, &mut out);
            out.truncate(cut.unwrap_or(out.len()));
            client.write_all(&out).unwrap();
            while !conn.tick(&config, &mut handler, &mut stats).expect("kept") {}
            assert!(conn.write_buf.is_empty(), "{ty:?}: reply not flushed");
            // Still short when the earlier movement has gone stale.
            let now = before + IDLE_SLEEP;
            assert_eq!(
                idle_wait(now, [conn.last_progress]),
                EXCHANGE_SLEEP,
                "{ty:?}"
            );
        }
        assert_eq!(stats.framing_errors, 0);
    }
}
