//! The discrete-event simulation engine.
//!
//! Store-and-forward, nanosecond resolution, strictly deterministic:
//! events are ordered by `(time, insertion sequence)`, all randomness goes
//! through seeded PRNGs, and hash decisions use `pint-core`'s stable
//! hashes. The engine owns packetization, the receiver (cumulative ACKs +
//! telemetry echo), per-port FIFO queues with tail drop, and the telemetry
//! hook; per-flow [`Transport`](crate::transport::Transport)s make all congestion-control decisions.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{FlowRecord, Report};
use crate::packet::{AckView, Echo, Packet, PacketKind};
use crate::routing::Routing;
use crate::telemetry::{SwitchView, TelemetryHook};
use crate::topology::{NodeId, NodeKind, Topology};
use crate::transport::{Action, FlowMeta, TransportFactory};
use crate::workload::WorkloadConfig;
use crate::{FlowId, Nanos};
use pint_core::value::Digest;
use pint_core::DigestReport;

/// Sink-side digest tap: invoked once per data packet arriving at its
/// destination host, with everything a Recording Module needs (the
/// PINT sink of the paper's Fig. 3). The closure owns whatever consumes
/// the stream, a recorder or a collector handle, and is dropped when
/// [`Simulator::run`] returns.
pub type DigestSink = Box<dyn FnMut(DigestReport)>;

/// Engine parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Maximum segment payload, bytes (paper: 1000B MTU for RDMA-style
    /// fabrics, §2).
    pub mss: u32,
    /// Base protocol header bytes on data packets.
    pub header_bytes: u32,
    /// ACK packet base bytes.
    pub ack_bytes: u32,
    /// Per-egress-port buffer, bytes (paper §6.1: 32 MB switch buffer).
    pub buffer_bytes: u64,
    /// Whether ACKs carry the echoed telemetry bytes on the wire
    /// (INT feedback rides back to the sender, as in HPCC).
    pub echo_bytes_on_acks: bool,
    /// Fault injection: probability of losing any packet at link ingress
    /// (smoltcp-style `--drop-chance`; 0.0 disables). Exercises the
    /// transports' loss recovery and PINT's robustness to missing digests.
    pub fault_drop_probability: f64,
    /// Hard simulation stop, ns.
    pub end_time_ns: Nanos,
    /// Engine seed (ECMP, workload, fault injection).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            mss: 1000,
            header_bytes: 40,
            ack_bytes: 40,
            buffer_bytes: 2_000_000,
            echo_bytes_on_acks: true,
            fault_drop_probability: 0.0,
            end_time_ns: 1_000_000_000,
            seed: 1,
        }
    }
}

/// One directed link's egress port.
#[derive(Debug, Default)]
struct Port {
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    busy: bool,
    tx_bytes: u64,
}

enum EvKind {
    Deliver {
        link: usize,
        pkt: Packet,
    },
    PortFree {
        link: usize,
    },
    Timer {
        flow: FlowId,
        token: u64,
    },
    FlowStart {
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        size: u64,
    },
}

struct Ev {
    at: Nanos,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Flow {
    transport: Box<dyn crate::transport::Transport>,
    src: NodeId,
    dst: NodeId,
    record: usize,
    /// Receiver: contiguous in-order bytes.
    recv_next: u64,
    /// Receiver: out-of-order segments (start → end).
    ooo: BTreeMap<u64, u64>,
    size: u64,
    done_receiving: bool,
}

/// The simulator.
pub struct Simulator {
    topo: Topology,
    routing: Routing,
    config: SimConfig,
    ports: Vec<Port>,
    heap: BinaryHeap<Reverse<Ev>>,
    ev_seq: u64,
    now: Nanos,
    flows: HashMap<FlowId, Flow>,
    telemetry: Box<dyn TelemetryHook>,
    factory: TransportFactory,
    next_pkt_id: u64,
    next_flow_id: u64,
    report: Report,
    fault_rng: SmallRng,
    digest_sink: Option<DigestSink>,
    sim_clock: Option<pint_obs::VirtualClock>,
    trace: Option<pint_obs::FlightRecorder>,
}

impl Simulator {
    /// Creates a simulator over `topo` with the given transport factory
    /// and telemetry hook.
    pub fn new(
        topo: Topology,
        config: SimConfig,
        factory: TransportFactory,
        telemetry: Box<dyn TelemetryHook>,
    ) -> Self {
        let routing = Routing::new(&topo, config.seed);
        let ports = (0..topo.num_links()).map(|_| Port::default()).collect();
        let fault_rng = SmallRng::seed_from_u64(config.seed ^ 0xFA17);
        Self {
            topo,
            routing,
            config,
            ports,
            heap: BinaryHeap::new(),
            ev_seq: 0,
            now: 0,
            flows: HashMap::new(),
            telemetry,
            factory,
            next_pkt_id: 1,
            next_flow_id: 1,
            report: Report::default(),
            fault_rng,
            digest_sink: None,
            sim_clock: None,
            trace: None,
        }
    }

    /// Drives a [`pint_obs::VirtualClock`] from simulated time: before
    /// each event dispatches, the clock is set to the event's
    /// timestamp. Hand the same clock to a
    /// [`MetricsRegistry`](pint_obs::MetricsRegistry) (via
    /// `MetricsRegistry::with_clock`) and every stage-timing histogram
    /// recorded by in-simulation collectors is stamped in virtual
    /// nanoseconds — two same-seed runs produce *identical* metric
    /// snapshots, which the workspace determinism test pins.
    pub fn drive_clock(&mut self, clock: pint_obs::VirtualClock) {
        self.sim_clock = Some(clock);
    }

    /// Installs a flight recorder: every delivered data packet is
    /// stamped as a [`pint_obs::TraceStage::SinkDelivered`] event
    /// (lane = destination node, source = flow, seq = packet id) at the
    /// simulated delivery time. Combined with
    /// [`drive_clock`](Self::drive_clock), two same-seed runs produce
    /// byte-identical trace dumps — the workspace determinism test pins
    /// this.
    pub fn set_trace_recorder(&mut self, recorder: pint_obs::FlightRecorder) {
        self.trace = Some(recorder);
    }

    /// Installs a sink-side digest tap (see [`DigestSink`]). Replaces any
    /// previously installed sink.
    pub fn set_digest_sink(&mut self, sink: DigestSink) {
        self.digest_sink = Some(sink);
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing tables.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    fn push(&mut self, at: Nanos, kind: EvKind) {
        self.ev_seq += 1;
        self.heap.push(Reverse(Ev {
            at,
            seq: self.ev_seq,
            kind,
        }));
    }

    /// Schedules one flow; returns its ID.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, size: u64, start: Nanos) -> FlowId {
        assert_ne!(src, dst);
        assert_eq!(self.topo.kind(src), NodeKind::Host);
        assert_eq!(self.topo.kind(dst), NodeKind::Host);
        let flow = self.next_flow_id;
        self.next_flow_id += 1;
        self.push(
            start,
            EvKind::FlowStart {
                flow,
                src,
                dst,
                size,
            },
        );
        flow
    }

    /// Generates a Poisson open-loop workload over all hosts
    /// (paper §6.1): each host starts flows at the rate matching
    /// `wl.load`, to uniformly random other hosts, sizes from `wl.cdf`.
    pub fn add_workload(&mut self, wl: &WorkloadConfig) {
        let hosts = self.topo.hosts();
        let mut rng = SmallRng::seed_from_u64(wl.seed ^ 0x77F0_1234);
        let rate = wl.flows_per_second_per_host();
        assert!(rate > 0.0);
        let mean_gap_ns = 1e9 / rate;
        for &h in &hosts {
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival via inverse transform.
                let u: f64 = rng.gen_range(1e-12..1.0);
                t += -u.ln() * mean_gap_ns;
                if t >= wl.duration_ns as f64 {
                    break;
                }
                let mut dst = hosts[rng.gen_range(0..hosts.len())];
                while dst == h {
                    dst = hosts[rng.gen_range(0..hosts.len())];
                }
                let size = wl.cdf.sample(&mut rng);
                self.add_flow(h, dst, size.max(1), t as Nanos);
            }
        }
    }

    /// Unloaded FCT estimate: first-packet latency along the path plus
    /// the remaining packets serialized at the bottleneck link.
    fn ideal_fct(&self, src: NodeId, dst: NodeId, flow: FlowId, size: u64) -> Nanos {
        let path = self.routing.flow_path(&self.topo, src, dst, flow);
        let hops = path.len().saturating_sub(1);
        let telem = self.telemetry.initial_bytes();
        let full_wire = u64::from(self.config.header_bytes)
            + u64::from(self.config.mss.min(size as u32))
            + u64::from(telem);
        let mut first = 0u128;
        let mut min_bw = u64::MAX;
        for w in path.windows(2) {
            let l = self
                .topo
                .out_links(w[0])
                .iter()
                .copied()
                .find(|&l| self.topo.link(l).to == w[1])
                .expect("path link");
            let link = self.topo.link(l);
            min_bw = min_bw.min(link.bandwidth_bps);
            first += u128::from(link.prop_delay_ns)
                + full_wire as u128 * 8_000_000_000 / link.bandwidth_bps as u128;
        }
        let pkts = size.div_ceil(u64::from(self.config.mss));
        // Remaining payload after the first segment, plus per-packet
        // header/telemetry overhead — the last segment may be partial, so
        // bill exact bytes rather than full MTUs.
        let rest_payload = size.saturating_sub(u64::from(self.config.mss));
        let rest_overhead =
            pkts.saturating_sub(1) * (u64::from(self.config.header_bytes) + u64::from(telem));
        let rest = (rest_payload + rest_overhead) as u128 * 8_000_000_000 / min_bw.max(1) as u128;
        let _ = hops;
        (first + rest) as Nanos
    }

    fn start_flow(&mut self, flow: FlowId, src: NodeId, dst: NodeId, size: u64) {
        let path = self.routing.flow_path(&self.topo, src, dst, flow);
        let hops = path
            .iter()
            .filter(|&&n| self.topo.kind(n) == NodeKind::Switch)
            .count();
        let nic = self.topo.link(self.topo.out_links(src)[0]).bandwidth_bps;
        // Base RTT: full-MTU data forward + ACK back, unloaded.
        let mut rtt = 0u128;
        for w in path.windows(2) {
            for (a, b) in [(w[0], w[1]), (w[1], w[0])] {
                let l = self
                    .topo
                    .out_links(a)
                    .iter()
                    .copied()
                    .find(|&l| self.topo.link(l).to == b)
                    .expect("duplex");
                let link = self.topo.link(l);
                let bytes = if a == w[0] {
                    u64::from(self.config.header_bytes + self.config.mss)
                } else {
                    u64::from(self.config.ack_bytes)
                };
                rtt += u128::from(link.prop_delay_ns)
                    + bytes as u128 * 8_000_000_000 / link.bandwidth_bps as u128;
            }
        }
        let meta = FlowMeta {
            flow,
            size_bytes: size,
            mss: self.config.mss,
            base_rtt_ns: rtt as Nanos,
            nic_bps: nic,
            hops,
        };
        let mut transport = (self.factory)(meta);
        let record = self.report.flows.len();
        self.report.flows.push(FlowRecord {
            flow,
            src,
            dst,
            size,
            start: self.now,
            finish: None,
            ideal_fct_ns: self.ideal_fct(src, dst, flow, size),
        });
        let mut actions = Vec::new();
        transport.start(self.now, &mut actions);
        self.flows.insert(
            flow,
            Flow {
                transport,
                src,
                dst,
                record,
                recv_next: 0,
                ooo: BTreeMap::new(),
                size,
                done_receiving: false,
            },
        );
        self.apply_actions(flow, actions);
    }

    fn apply_actions(&mut self, flow: FlowId, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { seq, bytes, retx } => self.send_data(flow, seq, bytes, retx),
                Action::SetTimer { delay, token } => {
                    self.push(self.now + delay, EvKind::Timer { flow, token });
                }
            }
        }
    }

    fn send_data(&mut self, flow: FlowId, seq: u64, bytes: u32, retx: bool) {
        let (src, dst) = {
            let f = &self.flows[&flow];
            (f.src, f.dst)
        };
        let pkt = Packet {
            id: self.next_pkt_id,
            flow,
            src,
            dst,
            kind: PacketKind::Data,
            seq,
            payload: bytes,
            header: self.config.header_bytes,
            telemetry_bytes: self.telemetry.initial_bytes(),
            hop: 0,
            retransmitted: retx,
            digest: Digest::default(),
            int_stack: Vec::new(),
            sent_at: self.now,
            last_rx_at: self.now,
            echo: None,
        };
        self.next_pkt_id += 1;
        let nic = self.topo.out_links(src)[0];
        self.enqueue(nic, pkt);
    }

    fn enqueue(&mut self, link: usize, pkt: Packet) {
        // Fault injection (deterministic given the seed).
        if self.config.fault_drop_probability > 0.0
            && self.fault_rng.gen::<f64>() < self.config.fault_drop_probability
        {
            self.report.injected_faults += 1;
            return;
        }
        let wire = u64::from(pkt.wire_bytes());
        let port = &mut self.ports[link];
        if port.queued_bytes + wire > self.config.buffer_bytes {
            self.report.drops += 1;
            return;
        }
        port.queued_bytes += wire;
        self.report.max_queue_bytes = self.report.max_queue_bytes.max(port.queued_bytes);
        port.queue.push_back(pkt);
        self.try_tx(link);
    }

    fn try_tx(&mut self, link: usize) {
        if self.ports[link].busy || self.ports[link].queue.is_empty() {
            return;
        }
        let mut pkt = self.ports[link].queue.pop_front().expect("non-empty");
        let pre_wire = u64::from(pkt.wire_bytes());
        self.ports[link].queued_bytes -= pre_wire;
        let l = *self.topo.link(link);
        // Telemetry executes at switch egress dequeue, on data packets.
        if self.topo.kind(l.from) == NodeKind::Switch && pkt.kind == PacketKind::Data {
            pkt.hop += 1;
            // "Time spent within the device" (Table 1): queueing wait plus
            // the packet's own egress serialization (pre-hook size — INT
            // may still grow the packet below).
            let ser_ns =
                (pre_wire as u128 * 8_000_000_000 / l.bandwidth_bps as u128).max(1) as Nanos;
            let view = SwitchView {
                switch: l.from,
                link,
                qlen_bytes: self.ports[link].queued_bytes,
                tx_bytes: self.ports[link].tx_bytes,
                bandwidth_bps: l.bandwidth_bps,
                now: self.now,
                hop: usize::from(pkt.hop),
                hop_latency_ns: self.now.saturating_sub(pkt.last_rx_at) + ser_ns,
            };
            self.telemetry.on_dequeue(&view, &mut pkt);
        }
        let wire = u64::from(pkt.wire_bytes());
        let port = &mut self.ports[link];
        port.busy = true;
        port.tx_bytes += wire;
        self.report.wire_bytes += wire;
        let tx_ns = (wire as u128 * 8_000_000_000 / l.bandwidth_bps as u128).max(1) as Nanos;
        self.push(self.now + tx_ns, EvKind::PortFree { link });
        self.push(
            self.now + tx_ns + l.prop_delay_ns,
            EvKind::Deliver { link, pkt },
        );
    }

    fn deliver(&mut self, link: usize, mut pkt: Packet) {
        let node = self.topo.link(link).to;
        pkt.last_rx_at = self.now;
        match self.topo.kind(node) {
            NodeKind::Switch => {
                let Some(next) = self.routing.next_link(&self.topo, node, pkt.dst, pkt.flow) else {
                    self.report.drops += 1;
                    return;
                };
                self.enqueue(next, pkt);
            }
            NodeKind::Host => match pkt.kind {
                PacketKind::Data => self.receive_data(node, pkt),
                PacketKind::Ack => self.receive_ack(node, pkt),
            },
        }
    }

    fn receive_data(&mut self, node: NodeId, pkt: Packet) {
        debug_assert_eq!(node, pkt.dst);
        let Some(f) = self.flows.get_mut(&pkt.flow) else {
            return;
        };
        self.report.delivered_data_packets += 1;
        self.report.delivered_payload_bytes += u64::from(pkt.payload);
        // Reassembly.
        let start = pkt.seq;
        let end = pkt.seq + u64::from(pkt.payload);
        if end > f.recv_next {
            if start <= f.recv_next {
                f.recv_next = end;
                // Drain contiguous out-of-order segments.
                while let Some((&s, &e)) = f.ooo.iter().next() {
                    if s > f.recv_next {
                        break;
                    }
                    f.recv_next = f.recv_next.max(e);
                    f.ooo.remove(&s);
                }
            } else {
                let entry = f.ooo.entry(start).or_insert(end);
                *entry = (*entry).max(end);
            }
        }
        if f.recv_next >= f.size && !f.done_receiving {
            f.done_receiving = true;
            self.report.flows[f.record].finish = Some(self.now);
        }
        // The PINT sink extracts the digest before echoing it back.
        // Retransmitted packets are included: each carries a fresh packet
        // ID (assigned per transmission, like IPID/checksum in §4.1), so
        // its digest is an independent observation of a real traversal,
        // not a duplicate sample.
        if let Some(rec) = &self.trace {
            rec.record_at(
                node as u32,
                pint_obs::TraceStage::SinkDelivered,
                pkt.flow,
                pkt.id,
                self.now,
            );
        }
        if let Some(sink) = self.digest_sink.as_mut() {
            sink(DigestReport::new(
                pkt.flow,
                pkt.id,
                pkt.digest.clone(),
                u16::from(pkt.hop),
                self.now,
            ));
        }
        // Cumulative ACK with telemetry echo.
        let echo = Echo {
            data_sent_at: pkt.sent_at,
            retransmitted: pkt.retransmitted,
            int_stack: pkt.int_stack,
            digest: pkt.digest,
            data_pkt_id: pkt.id,
            hops: pkt.hop,
        };
        let echo_bytes = if self.config.echo_bytes_on_acks {
            pkt.telemetry_bytes
        } else {
            0
        };
        let ack = Packet {
            id: self.next_pkt_id,
            flow: pkt.flow,
            src: node,
            dst: pkt.src,
            kind: PacketKind::Ack,
            seq: f.recv_next,
            payload: 0,
            header: self.config.ack_bytes,
            telemetry_bytes: echo_bytes,
            hop: 0,
            retransmitted: false,
            digest: Digest::default(),
            int_stack: Vec::new(),
            sent_at: self.now,
            last_rx_at: self.now,
            echo: Some(Box::new(echo)),
        };
        self.next_pkt_id += 1;
        let nic = self.topo.out_links(node)[0];
        self.enqueue(nic, ack);
    }

    fn receive_ack(&mut self, node: NodeId, pkt: Packet) {
        let flow_id = pkt.flow;
        let Some(f) = self.flows.get_mut(&flow_id) else {
            return;
        };
        if f.src != node || f.transport.is_done() {
            return;
        }
        let echo = pkt.echo.as_deref().expect("acks carry echo");
        let rtt = if echo.retransmitted {
            None
        } else {
            Some(self.now - echo.data_sent_at)
        };
        let view = AckView {
            now: self.now,
            ack_seq: pkt.seq,
            rtt_ns: rtt,
            echo,
        };
        let mut actions = Vec::new();
        f.transport.on_ack(&view, &mut actions);
        self.apply_actions(flow_id, actions);
    }

    /// Runs to completion (or `end_time_ns`); returns the report.
    pub fn run(mut self) -> Report {
        while let Some(Reverse(ev)) = self.heap.pop() {
            if ev.at > self.config.end_time_ns {
                break;
            }
            self.now = ev.at;
            if let Some(clock) = &self.sim_clock {
                clock.set(ev.at);
            }
            match ev.kind {
                EvKind::FlowStart {
                    flow,
                    src,
                    dst,
                    size,
                } => {
                    self.start_flow(flow, src, dst, size);
                }
                EvKind::Deliver { link, pkt } => self.deliver(link, pkt),
                EvKind::PortFree { link } => {
                    self.ports[link].busy = false;
                    self.try_tx(link);
                }
                EvKind::Timer { flow, token } => {
                    let Some(f) = self.flows.get_mut(&flow) else {
                        continue;
                    };
                    if f.transport.is_done() {
                        continue;
                    }
                    let mut actions = Vec::new();
                    f.transport.on_timer(self.now, token, &mut actions);
                    self.apply_actions(flow, actions);
                }
            }
        }
        self.report.elapsed_ns = self.now;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{FixedOverhead, IntTelemetry, NoTelemetry};
    use crate::transport::reno::Reno;
    use crate::workload::FlowSizeCdf;

    fn reno_factory() -> TransportFactory {
        Box::new(|meta| Box::new(Reno::new(meta)))
    }

    fn two_hosts() -> Topology {
        // host0 — switch — host1, 10 Gbps, 1 µs props.
        let mut t = Topology::new("pair");
        let h0 = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let h1 = t.add_node(NodeKind::Host);
        t.add_duplex(h0, s, 10_000_000_000, 1_000);
        t.add_duplex(s, h1, 10_000_000_000, 1_000);
        t
    }

    #[test]
    fn single_flow_completes_near_ideal() {
        let mut sim = Simulator::new(
            two_hosts(),
            SimConfig::default(),
            reno_factory(),
            Box::new(NoTelemetry),
        );
        let hosts = sim.topology().hosts();
        sim.add_flow(hosts[0], hosts[1], 1_000_000, 0);
        let rep = sim.run();
        assert_eq!(rep.flows.len(), 1);
        let f = &rep.flows[0];
        assert!(f.finish.is_some(), "flow did not finish");
        let slow = f.slowdown().unwrap();
        // Alone on the path: slowdown close to 1 (window ramp-up costs a
        // few RTTs of µs scale).
        assert!(slow < 2.0, "slowdown {slow}");
        assert_eq!(rep.drops, 0);
    }

    #[test]
    fn two_flows_share_bottleneck_fairly() {
        let mut sim = Simulator::new(
            two_hosts(),
            SimConfig {
                end_time_ns: 50_000_000,
                ..SimConfig::default()
            },
            reno_factory(),
            Box::new(NoTelemetry),
        );
        let hosts = sim.topology().hosts();
        sim.add_flow(hosts[0], hosts[1], 4_000_000, 0);
        sim.add_flow(hosts[0], hosts[1], 4_000_000, 0);
        let rep = sim.run();
        let g: Vec<f64> = rep.finished().filter_map(|f| f.goodput_bps()).collect();
        assert_eq!(g.len(), 2, "both flows must finish");
        // Each ≈ half of 10 Gbps minus header overhead; allow wide band.
        for &x in &g {
            assert!(x > 2.0e9 && x < 7.0e9, "goodput {x}");
        }
    }

    #[test]
    fn drops_and_recovery_with_tiny_buffer() {
        let mut sim = Simulator::new(
            two_hosts(),
            SimConfig {
                buffer_bytes: 10_000, // ~9 packets
                end_time_ns: 3_000_000_000,
                ..SimConfig::default()
            },
            reno_factory(),
            Box::new(NoTelemetry),
        );
        let hosts = sim.topology().hosts();
        sim.add_flow(hosts[0], hosts[1], 3_000_000, 0);
        sim.add_flow(hosts[1], hosts[0], 3_000_000, 0);
        sim.add_flow(hosts[0], hosts[1], 3_000_000, 100);
        let rep = sim.run();
        assert_eq!(rep.finished().count(), 3, "flows must survive drops");
    }

    #[test]
    fn int_overhead_inflates_fct_under_load() {
        // The §2 mechanism: more telemetry bytes → longer FCT at load.
        let run_with = |telem: Box<dyn TelemetryHook>| -> f64 {
            let mut sim = Simulator::new(
                Topology::overhead_study(),
                SimConfig {
                    end_time_ns: 30_000_000,
                    ..SimConfig::default()
                },
                reno_factory(),
                telem,
            );
            let hosts = sim.topology().hosts();
            // All-to-one incast-ish pattern to load the fabric.
            for i in 0..32 {
                sim.add_flow(hosts[i], hosts[(i + 32) % 64], 400_000, (i as u64) * 1_000);
            }
            let rep = sim.run();
            rep.mean_fct_ns().expect("flows finished")
        };
        let base = run_with(Box::new(NoTelemetry));
        let heavy = run_with(Box::new(FixedOverhead(108)));
        assert!(
            heavy > base * 1.02,
            "108B overhead should inflate FCT: {base} vs {heavy}"
        );
    }

    #[test]
    fn int_stack_reaches_receiver_and_echoes() {
        // Count INT records on the echo path via a probe transport? The
        // engine already discards them after on_ack; instead verify via
        // wire accounting: INT(2 values) on a 5-hop path adds 48B each way
        // (echoed), so wire bytes exceed the no-telemetry run.
        let run_with = |telem: Box<dyn TelemetryHook>| -> u64 {
            let mut sim = Simulator::new(
                Topology::overhead_study(),
                SimConfig::default(),
                reno_factory(),
                telem,
            );
            let hosts = sim.topology().hosts();
            sim.add_flow(hosts[0], hosts[63], 100_000, 0);
            sim.run().wire_bytes
        };
        let plain = run_with(Box::new(NoTelemetry));
        let int = run_with(Box::new(IntTelemetry::standard(2)));
        let pkts = 100;
        // ≥ 48B × packets extra on data, plus echo on ACKs.
        assert!(
            int > plain + 48 * pkts,
            "INT wire bytes {int} vs plain {plain}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run_once = || -> (u64, Option<f64>) {
            let mut sim = Simulator::new(
                Topology::overhead_study(),
                SimConfig {
                    end_time_ns: 10_000_000,
                    ..SimConfig::default()
                },
                reno_factory(),
                Box::new(NoTelemetry),
            );
            sim.add_workload(&WorkloadConfig {
                cdf: FlowSizeCdf::hadoop(),
                load: 0.3,
                nic_bps: 10_000_000_000,
                duration_ns: 5_000_000,
                seed: 42,
            });
            let rep = sim.run();
            (rep.delivered_data_packets, rep.mean_fct_ns())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn workload_generates_poisson_flows() {
        let mut sim = Simulator::new(
            Topology::overhead_study(),
            SimConfig {
                end_time_ns: 1,
                ..SimConfig::default()
            }, // don't simulate
            reno_factory(),
            Box::new(NoTelemetry),
        );
        let wl = WorkloadConfig {
            cdf: FlowSizeCdf::hadoop(),
            load: 0.5,
            nic_bps: 10_000_000_000,
            duration_ns: 10_000_000,
            seed: 7,
        };
        sim.add_workload(&wl);
        // Expected flows ≈ 64 hosts × rate × 10 ms.
        let expect = 64.0 * wl.flows_per_second_per_host() * 0.01;
        let got = sim.heap.len() as f64;
        assert!(
            (got - expect).abs() < expect * 0.2,
            "flows {got} vs expected {expect}"
        );
    }

    #[test]
    fn fault_injection_drops_but_flows_recover() {
        let mut sim = Simulator::new(
            two_hosts(),
            SimConfig {
                fault_drop_probability: 0.01,
                end_time_ns: 5_000_000_000,
                ..SimConfig::default()
            },
            reno_factory(),
            Box::new(NoTelemetry),
        );
        let hosts = sim.topology().hosts();
        sim.add_flow(hosts[0], hosts[1], 2_000_000, 0);
        let rep = sim.run();
        assert!(rep.injected_faults > 10, "faults {}", rep.injected_faults);
        assert_eq!(rep.finished().count(), 1, "Reno must recover from 1% loss");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run_once = || {
            let mut sim = Simulator::new(
                two_hosts(),
                SimConfig {
                    fault_drop_probability: 0.02,
                    end_time_ns: 2_000_000_000,
                    ..SimConfig::default()
                },
                reno_factory(),
                Box::new(NoTelemetry),
            );
            let hosts = sim.topology().hosts();
            sim.add_flow(hosts[0], hosts[1], 500_000, 0);
            let rep = sim.run();
            (rep.injected_faults, rep.flows[0].finish)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn ideal_fct_scales_with_size() {
        let sim = Simulator::new(
            two_hosts(),
            SimConfig::default(),
            reno_factory(),
            Box::new(NoTelemetry),
        );
        let hosts = sim.topology().hosts();
        let small = sim.ideal_fct(hosts[0], hosts[1], 1, 1_000);
        let large = sim.ideal_fct(hosts[0], hosts[1], 1, 10_000_000);
        assert!(large > small * 100);
        // 10 MB at 10 Gbps ≈ 8 ms + overheads.
        assert!((7_000_000..20_000_000).contains(&large), "{large}");
    }
}
