//! The wire tier of the query API: `Query` / `QueryResponse` frames, a
//! generic TCP responder serving any [`QueryBackend`], and the client
//! that executes plans remotely.
//!
//! The transport carries exactly what the local API exchanges — an
//! encoded [`QueryPlan`] out, an encoded [`QueryResult`] back — so a
//! remote query is byte-identical to a local one on the same state
//! (pinned by the workspace's query-equivalence proptest). Malformed
//! frames are typed rejections: the responder answers a parseable-but-
//! invalid request with an error response and drops connections whose
//! byte stream cannot resynchronize, but it never panics on hostile
//! bytes.

use crate::exec::{QueryBackend, QueryResult, Watermark};
use crate::plan::{QueryError, QueryPlan};
use pint_wire::{
    frame_into, FrameReader, FrameServer, FrameType, MetricsMsg, MetricsReport, MetricsRequest,
    ReadFrameError, ServerConfig, TraceMsg, TraceReport, TraceRequest, WireDecode, WireEncode,
    WireError, WireReader, WireWriter,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;

/// Longest error message a response may carry (a hostile server must
/// not drive client allocation).
const MAX_ERROR_LEN: usize = 4_096;

/// A `Query` frame's payload: a correlation ID plus the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Echoed verbatim in the matching [`QueryResponse`], so clients
    /// may pipeline requests on one connection.
    pub request_id: u64,
    /// The plan to execute.
    pub plan: QueryPlan,
}

impl WireEncode for QueryRequest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        WireWriter::new(out).put_varint(self.request_id);
        self.plan.encode_into(out);
    }
}

impl WireDecode for QueryRequest {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(QueryRequest {
            request_id: r.get_varint()?,
            plan: QueryPlan::decode_from(r)?,
        })
    }
}

impl QueryRequest {
    /// Encodes the complete wire frame (header included).
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(FrameType::Query, self, &mut out);
        out
    }
}

/// Extension tag for the [`Watermark`] trailing bytes of a
/// [`QueryResponse`]. Responses from servers predating watermarks end
/// at the result; the tag gates optional suffixes beyond that.
const EXT_WATERMARK: u8 = 1;

/// A `QueryResponse` frame's payload: the echoed correlation ID and
/// either the result or the backend's error, stringified — plus the
/// serving backend's freshness [`Watermark`] as a trailing extension.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The [`QueryRequest::request_id`] this answers.
    pub request_id: u64,
    /// The executed result, or the error the backend reported.
    pub result: Result<QueryResult, String>,
    /// The backend's as-of stamp. Servers built with watermarks always
    /// stamp `Some` (a zero watermark when the backend tracks none);
    /// `None` only appears decoding responses from older servers.
    pub watermark: Option<Watermark>,
}

impl WireEncode for QueryResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        WireWriter::new(out).put_varint(self.request_id);
        match &self.result {
            Ok(result) => {
                WireWriter::new(out).put_u8(0);
                result.encode_into(out);
            }
            Err(msg) => {
                let bytes = msg.as_bytes();
                let take = bytes.len().min(MAX_ERROR_LEN);
                let mut w = WireWriter::new(out);
                w.put_u8(1);
                w.put_varint(take as u64);
                w.put_bytes(&bytes[..take]);
            }
        }
        if let Some(wm) = &self.watermark {
            let mut w = WireWriter::new(out);
            w.put_u8(EXT_WATERMARK);
            w.put_varint(wm.newest_applied);
            w.put_varint(wm.newest_seen);
            w.put_varint(wm.sources);
        }
    }
}

impl WireDecode for QueryResponse {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let request_id = r.get_varint()?;
        let result = match r.get_u8()? {
            0 => Ok(QueryResult::decode_from(r)?),
            1 => {
                let len = r.get_count(1)?;
                if len > MAX_ERROR_LEN {
                    return Err(WireError::Invalid("error message exceeds bound"));
                }
                Err(String::from_utf8_lossy(r.get_bytes(len)?).into_owned())
            }
            _ => return Err(WireError::Invalid("response status must be 0 or 1")),
        };
        let watermark = if r.remaining() > 0 {
            match r.get_u8()? {
                EXT_WATERMARK => Some(Watermark {
                    newest_applied: r.get_varint()?,
                    newest_seen: r.get_varint()?,
                    sources: r.get_varint()?,
                }),
                _ => return Err(WireError::Invalid("unknown query response extension")),
            }
        } else {
            None
        };
        Ok(QueryResponse {
            request_id,
            result,
            watermark,
        })
    }
}

impl QueryResponse {
    /// Encodes the complete wire frame (header included).
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(FrameType::QueryResponse, self, &mut out);
        out
    }
}

/// Answers one `Query` frame payload against a backend, returning the
/// encoded `QueryResponse` frame to write back. Never panics: an
/// undecodable or invalid request becomes an error response (with a
/// best-effort request ID), and backend failures are stringified.
///
/// Every response — success or error — is stamped with a [`Watermark`]
/// so clients always learn how fresh the answering state was:
/// `watermark` when given (transports whose freshness authority is not
/// the query backend itself — the fleet server stamps its aggregator's
/// epoch watermark onto views merged from it), else
/// `backend.watermark()`, else zero.
///
/// This is the single server-side execution point — the fleet server
/// and the standalone [`QueryResponder`] both route through it.
pub fn respond_with<B: QueryBackend + ?Sized>(
    backend: &B,
    payload: &[u8],
    watermark: Option<Watermark>,
) -> Vec<u8> {
    let watermark = Some(
        watermark
            .or_else(|| backend.watermark())
            .unwrap_or_default(),
    );
    let response = match QueryRequest::decode(payload) {
        Ok(req) => match req.plan.validate() {
            Ok(()) => QueryResponse {
                request_id: req.request_id,
                result: backend.query(&req.plan).map_err(|e| e.to_string()),
                watermark,
            },
            Err(e) => QueryResponse {
                request_id: req.request_id,
                result: Err(e.to_string()),
                watermark,
            },
        },
        Err(e) => QueryResponse {
            // The correlation ID is the payload's first varint; recover
            // it when possible so the client can match the error.
            request_id: WireReader::new(payload).get_varint().unwrap_or(0),
            result: Err(format!("undecodable query: {e}")),
            watermark,
        },
    };
    response.to_frame_bytes()
}

/// A TCP endpoint serving queries against one shared backend — the
/// collector-side responder (`QueryResponder::bind(addr,
/// Arc::new(collector))`) or any other [`QueryBackend`].
///
/// A [`FrameHandler`](pint_wire::FrameHandler) on the workspace's one
/// poll-loop server core ([`pint_wire::server`]): one thread serves
/// every connection, with the same connection cap and slow-loris
/// deadline as the fleet tier's servers. `Query` frames are answered
/// through [`respond_with`], `Metrics` requests with an (empty) metrics
/// snapshot and `TraceDump` requests with an empty dump, other frames
/// are ignored, and streams that cannot resynchronize are dropped.
///
/// Queries execute on the poll thread, so concurrent clients are
/// served one query at a time: a long full scan holds up every other
/// connection until its answer is built.
pub struct QueryResponder {
    core: FrameServer,
}

impl QueryResponder {
    /// Binds and starts answering. Use `"127.0.0.1:0"` to let the OS
    /// pick a port (read it back via [`local_addr`](Self::local_addr)).
    pub fn bind<B>(addr: impl ToSocketAddrs, backend: Arc<B>) -> std::io::Result<Self>
    where
        B: QueryBackend + Send + Sync + 'static,
    {
        let handler = move |ty: FrameType, payload: &[u8], reply: &mut Vec<u8>| {
            if ty == FrameType::Query {
                reply.extend_from_slice(&respond_with(&*backend, payload, None));
            }
        };
        let core = FrameServer::bind(addr, "pint-query-server", ServerConfig::default(), handler)?;
        Ok(Self { core })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.core.local_addr()
    }

    /// Stops the server thread; open connections are dropped.
    pub fn shutdown(self) {
        drop(self.core);
    }
}

/// A connection to a [`QueryResponder`] (or any server speaking
/// `Query`/`QueryResponse` frames, e.g. the fleet server).
pub struct QueryClient {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    next_id: u64,
    last_watermark: Option<Watermark>,
}

impl QueryClient {
    /// Connects to a query endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = FrameReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            next_id: 1,
            last_watermark: None,
        })
    }

    /// Writes one encoded frame (header included) without waiting for
    /// a reply — how a fleet client ships snapshots on the connection
    /// it also queries over.
    pub fn send(&mut self, frame_bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(frame_bytes)?;
        self.writer.flush()
    }

    /// Executes one plan remotely, blocking for the response. On any
    /// answered request — success or remote error — the response's
    /// freshness stamp is retained for [`last_watermark`](Self::last_watermark).
    pub fn query(&mut self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        plan.validate()?;
        let request_id = self.next_id();
        let request = QueryRequest {
            request_id,
            plan: plan.clone(),
        };
        let response = self.exchange(&request.to_frame_bytes(), |ty, payload| {
            if ty != FrameType::QueryResponse {
                return Ok(None);
            }
            let response = QueryResponse::decode(payload)?;
            // An earlier request's answer is skipped.
            Ok((response.request_id == request_id).then_some(response))
        })?;
        self.last_watermark = response.watermark;
        response.result.map_err(QueryError::Remote)
    }

    /// The freshness [`Watermark`] carried by the most recent answered
    /// query on this connection — `None` before the first answer, or
    /// when talking to a server predating watermarks.
    pub fn last_watermark(&self) -> Option<Watermark> {
        self.last_watermark
    }

    /// Fetches the server's live self-telemetry snapshot (a `Metrics`
    /// frame), blocking for the report. Every PINT server answers it
    /// (a [`QueryResponder`] with an empty snapshot); the client sets
    /// no read timeout, so a peer that never answers blocks this call
    /// until the connection closes.
    pub fn fetch_metrics(&mut self) -> Result<MetricsReport, QueryError> {
        let request_id = self.next_id();
        let mut request = Vec::new();
        frame_into(
            FrameType::Metrics,
            &MetricsRequest { request_id },
            &mut request,
        );
        self.exchange(&request, |ty, payload| {
            if ty != FrameType::Metrics {
                return Ok(None);
            }
            Ok(match MetricsMsg::decode(payload)? {
                MetricsMsg::Report(report) if report.request_id == request_id => Some(report),
                _ => None, // another request's report, or an echo
            })
        })
    }

    /// Fetches the server's flight-recorder snapshot (a `TraceDump`
    /// frame), blocking for the report. Servers without a recorder
    /// answer with an empty dump.
    pub fn fetch_trace(&mut self) -> Result<TraceReport, QueryError> {
        let request_id = self.next_id();
        let mut request = Vec::new();
        frame_into(
            FrameType::TraceDump,
            &TraceRequest { request_id },
            &mut request,
        );
        self.exchange(&request, |ty, payload| {
            if ty != FrameType::TraceDump {
                return Ok(None);
            }
            Ok(match TraceMsg::decode(payload)? {
                TraceMsg::Report(report) if report.request_id == request_id => Some(report),
                _ => None, // another request's report, or an echo
            })
        })
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Writes one request frame, then reads frames until `answer`
    /// picks out the reply (`Ok(None)` skips a frame: an unrelated
    /// type, or an earlier request's answer).
    fn exchange<T>(
        &mut self,
        request: &[u8],
        mut answer: impl FnMut(FrameType, &[u8]) -> Result<Option<T>, WireError>,
    ) -> Result<T, QueryError> {
        self.send(request)?;
        loop {
            match self.reader.read_frame() {
                Ok(Some((ty, payload))) => {
                    if let Some(reply) = answer(ty, &payload)? {
                        return Ok(reply);
                    }
                }
                Ok(None) => {
                    return Err(QueryError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before the reply",
                    )))
                }
                Err(ReadFrameError::Io(e)) => return Err(QueryError::Io(e)),
                Err(ReadFrameError::Wire(e)) => return Err(QueryError::Wire(e)),
            }
        }
    }
}

impl QueryBackend for std::sync::Mutex<QueryClient> {
    /// Lets a shared remote connection stand wherever a backend is
    /// expected (`QueryClient::query` needs `&mut self` for the
    /// stream).
    fn query(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        self.lock()
            .map_err(|_| QueryError::Backend("query client poisoned".into()))?
            .query(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SelectionStats, TelemetryQuery};
    use std::time::Duration;

    /// A deterministic in-memory backend for transport tests.
    struct Fixed;
    impl QueryBackend for Fixed {
        fn query(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
            match plan.selector {
                crate::Selector::TopK(0) => Err(QueryError::Backend("nothing to rank".into())),
                _ => Ok(QueryResult::Stats(SelectionStats {
                    flows: 3,
                    ..SelectionStats::default()
                })),
            }
        }
    }

    #[test]
    fn request_and_response_round_trip() {
        let req = QueryRequest {
            request_id: 77,
            plan: TelemetryQuery::new().top_k(5).stats().plan().unwrap(),
        };
        let bytes = req.to_frame_bytes();
        let (ty, payload) = pint_wire::parse_frame(&bytes).unwrap();
        assert_eq!(ty, FrameType::Query);
        assert_eq!(QueryRequest::decode(payload).unwrap(), req);

        for result in [
            Ok(QueryResult::PathCompletion {
                complete: 1,
                total: 2,
            }),
            Err("backend exploded".to_string()),
        ] {
            let resp = QueryResponse {
                request_id: 77,
                result,
                watermark: Some(Watermark {
                    newest_applied: 41,
                    newest_seen: 43,
                    sources: 2,
                }),
            };
            let bytes = resp.to_frame_bytes();
            let (ty, payload) = pint_wire::parse_frame(&bytes).unwrap();
            assert_eq!(ty, FrameType::QueryResponse);
            assert_eq!(QueryResponse::decode(payload).unwrap(), resp);
        }
    }

    #[test]
    fn watermarkless_responses_decode_without_extension() {
        // A response from a server predating watermarks: same bytes,
        // no trailing extension — must decode to `watermark: None`.
        let with = QueryResponse {
            request_id: 9,
            result: Err("old server".into()),
            watermark: Some(Watermark::default()),
        };
        let without = QueryResponse {
            watermark: None,
            ..with.clone()
        };
        let old_bytes = without.encode();
        assert_eq!(with.encode()[..old_bytes.len()], old_bytes[..]);
        assert_eq!(QueryResponse::decode(&old_bytes).unwrap(), without);
        // Unknown extension tags are rejected, not silently skipped.
        let mut bad = old_bytes;
        bad.push(0xEE);
        assert!(QueryResponse::decode(&bad).is_err());
    }

    #[test]
    fn responder_answers_over_loopback_and_reports_errors() {
        let responder = QueryResponder::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let mut client = QueryClient::connect(responder.local_addr()).unwrap();
        assert_eq!(client.last_watermark(), None);
        let ok = client
            .query(&TelemetryQuery::new().stats().plan().unwrap())
            .unwrap();
        assert!(matches!(ok, QueryResult::Stats(s) if s.flows == 3));
        // `Fixed` tracks no watermark, but the server still stamps a
        // (zero) one on every answer.
        assert_eq!(client.last_watermark(), Some(Watermark::default()));
        let err = client
            .query(&TelemetryQuery::new().top_k(0).plan().unwrap())
            .unwrap_err();
        assert!(matches!(err, QueryError::Remote(ref m) if m.contains("nothing to rank")));
        responder.shutdown();
    }

    #[test]
    fn responder_answers_metrics_and_trace_requests() {
        let responder = QueryResponder::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = responder.local_addr();
        // On a thread, so a responder that never answers fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut client = QueryClient::connect(addr).unwrap();
            let metrics = client.fetch_metrics().map(|r| r.request_id);
            let trace = client.fetch_trace().map(|r| r.dump);
            let _ = tx.send((metrics.ok(), trace.ok()));
        });
        let (metrics, trace) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("fetch_metrics/fetch_trace never returned");
        assert_eq!(metrics, Some(1));
        assert_eq!(trace.map(|d| d.events.is_empty()), Some(true));
        responder.shutdown();
    }

    #[test]
    fn responder_survives_garbage_and_bad_payloads() {
        let responder = QueryResponder::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = responder.local_addr();
        // A connection speaking something else entirely.
        {
            let mut garbage = TcpStream::connect(addr).unwrap();
            garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        }
        // A well-framed Query frame whose payload is junk: the server
        // must answer with a typed error, not die.
        struct Junk;
        impl WireEncode for Junk {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&[0xFF; 16]);
            }
        }
        let mut framed_junk = Vec::new();
        frame_into(FrameType::Query, &Junk, &mut framed_junk);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&framed_junk).unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        let (ty, payload) = reader.read_frame().unwrap().unwrap();
        assert_eq!(ty, FrameType::QueryResponse);
        let resp = QueryResponse::decode(&payload).unwrap();
        assert!(resp.result.is_err());
        drop(stream);
        // The server still answers real queries afterwards.
        let mut client = QueryClient::connect(addr).unwrap();
        assert!(client.query(&TelemetryQuery::new().plan().unwrap()).is_ok());
        responder.shutdown();
    }
}
