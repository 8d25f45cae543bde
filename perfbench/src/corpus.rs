//! Seeded input generation, shaped like the paper's §6 traffic: flow
//! sizes from the web-search CDF, hop paths from a K = 8 fat tree, most
//! flows carrying latency digests (`DynamicAggregator`, recorded by
//! sketched `DynamicRecorder`s) and the rest path-tracing digests
//! (`PathTracer`, recorded by `PathDecoder`s). Generation is never timed;
//! the program only ever sees the finished `DigestReport`s.

use pint_collector::{Collector, CollectorConfig, CollectorSnapshot, RecorderFactory};
use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint_core::hash::mix64;
use pint_core::statictrace::{PathTracer, TracerConfig};
use pint_core::{Digest, DigestReport, FlowRecorder};
use pint_netsim::{FlowSizeCdf, NodeId, Routing, Topology};
use std::sync::Arc;

/// Flow-ID bit marking a path-tracing flow: the recorder is chosen per
/// flow, from its ID alone.
const PATH_FLOW: u64 = 1 << 62;
/// One in this many flows traces its path; the rest report latency.
const PATH_FLOW_EVERY: u64 = 5;
/// Latency digest width and value range (ns), as in the paper's §6.2.
const LATENCY_BITS: u32 = 8;
const LATENCY_MIN_NS: f64 = 100.0;
const LATENCY_MAX_NS: f64 = 1.0e7;
/// Per-hop KLL budget of a latency recorder.
const SKETCH_BYTES_PER_HOP: usize = 96;
/// Seeds shared by every encoder and recorder (one query plan fleet-wide).
const LATENCY_SEED: u64 = 7;

/// A small deterministic generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix64(seed ^ 0x5045_5246_4245_4e43))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Encoders, the switch universe and routes: everything a sink would
/// know, and what the recorder factory must agree with.
#[derive(Clone)]
pub struct Network {
    topo: Arc<Topology>,
    routing: Arc<Routing>,
    hosts: Arc<Vec<NodeId>>,
    switches: Arc<Vec<u64>>,
    latency: DynamicAggregator,
    tracer: PathTracer,
}

impl Network {
    pub fn new() -> Self {
        let topo = Topology::fat_tree(8, 100_000_000_000, 1_000);
        let routing = Routing::new(&topo, 1);
        let hosts = topo.hosts();
        let switches = topo.switches().into_iter().map(|s| s as u64).collect();
        Self {
            routing: Arc::new(routing),
            hosts: Arc::new(hosts),
            switches: Arc::new(switches),
            topo: Arc::new(topo),
            latency: DynamicAggregator::new(
                LATENCY_SEED,
                LATENCY_BITS,
                LATENCY_MIN_NS,
                LATENCY_MAX_NS,
            ),
            tracer: PathTracer::new(TracerConfig::paper(8, 2, 5)),
        }
    }

    /// The per-flow recorder choice the collector makes on a flow's
    /// first digest.
    pub fn factory(&self) -> RecorderFactory {
        let latency = self.latency.clone();
        let tracer = self.tracer.clone();
        let switches = Arc::clone(&self.switches);
        Arc::new(move |flow, report: &DigestReport| {
            let k = usize::from(report.path_len).max(1);
            if flow & PATH_FLOW != 0 {
                Box::new(tracer.decoder(switches.to_vec(), k)) as Box<dyn FlowRecorder>
            } else {
                Box::new(DynamicRecorder::new_sketched(
                    latency.clone(),
                    k,
                    SKETCH_BYTES_PER_HOP,
                ))
            }
        })
    }

    /// The switch path of a flow between two distinct random hosts.
    fn route(&self, rng: &mut Rng, flow: u64) -> Vec<u64> {
        let n = self.hosts.len() as u64;
        let src = rng.below(n);
        let dst = (src + 1 + rng.below(n - 1)) % n;
        self.routing
            .switch_path(
                &self.topo,
                self.hosts[src as usize],
                self.hosts[dst as usize],
                flow,
            )
            .into_iter()
            .map(|s| s as u64)
            .collect()
    }
}

/// One flow's generated traffic parameters.
struct FlowSpec {
    id: u64,
    path: Vec<u64>,
    /// Per-hop queueing scale (ns) of a latency flow.
    load: Vec<f64>,
    digests: u64,
}

/// What one workload pushes, in push order.
pub struct Corpus {
    pub reports: Vec<DigestReport>,
    /// Every distinct flow ID, ascending (point queries pick from it).
    pub flows: Vec<u64>,
}

/// The shape of a corpus.
pub struct Shape {
    pub flows: usize,
    pub digests: usize,
    /// Spread flow starts over the whole trace (churn), or start every
    /// flow near the beginning so all stay resident (firehose).
    pub staggered: bool,
}

impl Network {
    /// Builds a corpus: flow sizes drawn from the web-search CDF and
    /// scaled so the total is about `shape.digests`; packets of all
    /// flows interleaved by synthetic sink time.
    ///
    /// Sizes, start times and the path-tracing share are stratified
    /// rather than drawn independently, so every seed yields the same
    /// workload shape (the heavy tail of the CDF is always represented
    /// the same way) and only IDs, routes, values and order change.
    pub fn corpus(&self, seed: u64, shape: &Shape) -> Corpus {
        let mut rng = Rng::new(seed);
        let cdf = FlowSizeCdf::web_search();
        let mut sizes: Vec<f64> = (0..shape.flows)
            .map(|i| cdf.quantile((i as f64 + rng.unit()) / shape.flows as f64) as f64)
            .collect();
        rng.shuffle(&mut sizes);
        let bytes_per_digest = sizes.iter().sum::<f64>() / shape.digests as f64;
        let mut ids = std::collections::BTreeSet::new();
        let specs: Vec<FlowSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                let tag = if (i as u64).is_multiple_of(PATH_FLOW_EVERY) {
                    PATH_FLOW
                } else {
                    0
                };
                let id = loop {
                    let id = (rng.next_u64() & !(PATH_FLOW | (1 << 63))) | tag;
                    if ids.insert(id) {
                        break id;
                    }
                };
                let path = self.route(&mut rng, id);
                let load = path.iter().map(|_| 200.0 + 4_000.0 * rng.unit()).collect();
                FlowSpec {
                    id,
                    path,
                    load,
                    digests: ((bytes / bytes_per_digest).round() as u64).max(1),
                }
            })
            .collect();

        // Synthetic sink time: each flow starts at `start` and sends one
        // digest every `gap` ns; merging by time interleaves the flows.
        let horizon = 1_000_000_000u64;
        let n = specs.len() as u64;
        let mut slots: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut slots);
        let mut timed: Vec<(u64, u32, u64)> = Vec::new();
        for (i, f) in specs.iter().enumerate() {
            let slot = (slots[i] * horizon + rng.below(horizon)) / n;
            let (start, span) = if shape.staggered {
                (
                    slot,
                    (horizon / 40 + rng.below(horizon / 40)).max(f.digests),
                )
            } else {
                (slot / 100, horizon)
            };
            let gap = (span / f.digests).max(1);
            for j in 0..f.digests {
                timed.push((start + j * gap, i as u32, j));
            }
        }
        timed.sort_unstable();
        let reports = timed
            .iter()
            .map(|&(ts, i, j)| self.report(&specs[i as usize], j, ts + 1, &mut rng))
            .collect();
        let mut flows: Vec<u64> = specs.iter().map(|f| f.id).collect();
        flows.sort_unstable();
        Corpus { reports, flows }
    }

    /// Encodes packet `j` of flow `f` the way the switches on its path
    /// would.
    fn report(&self, f: &FlowSpec, j: u64, ts: u64, rng: &mut Rng) -> DigestReport {
        let pid = mix64(f.id ^ j.wrapping_mul(0x9e37_79b9));
        let k = f.path.len().max(1);
        let digest = if f.id & PATH_FLOW != 0 {
            self.tracer.encode_path(pid, &f.path)
        } else {
            let mut d = Digest::new(1);
            for (hop, load) in f.load.iter().enumerate() {
                // Base switching delay plus exponential queueing.
                let v = 300.0 - load * (1.0 - rng.unit()).ln();
                self.latency.encode_hop(pid, hop + 1, v, &mut d, 0);
            }
            d
        };
        DigestReport::new(f.id, pid, digest, k as u16, ts)
    }
}

/// Re-times a corpus for paced sending: chunk `i` (of `per_chunk`
/// digests) is stamped `base + (i + 1) ms`, its scheduled send time.
pub fn stamp_chunks(reports: &mut [DigestReport], per_chunk: usize, base: u64) {
    for (i, chunk) in reports.chunks_mut(per_chunk).enumerate() {
        for r in chunk {
            r.ts = base + (i as u64 + 1) * 1_000_000;
        }
    }
}

/// Two static pods the fleet server holds besides the live collector:
/// built by local collectors from their own corpora, at generation time.
pub fn static_pods(net: &Network, seed: u64) -> Vec<(u64, CollectorSnapshot)> {
    (0..2u64)
        .map(|pod| {
            let corpus = net.corpus(
                seed ^ mix64(0xF0D + pod),
                &Shape {
                    flows: 1_000,
                    digests: 60_000,
                    staggered: false,
                },
            );
            let collector = Collector::spawn(CollectorConfig::with_shards(1), net.factory());
            let mut h = collector.register_producer();
            for r in corpus.reports {
                h.push(r).expect("pod collector alive");
            }
            h.flush().expect("pod flush");
            let snap = collector.snapshot().expect("pod snapshot");
            collector.shutdown();
            (pod + 2, snap)
        })
        .collect()
}
