//! # pint-netsim — deterministic packet-level network simulator
//!
//! The PINT paper evaluates on NS3 \[76\] plus Mininet; this crate is the
//! from-scratch substitute: an event-driven, nanosecond-resolution,
//! store-and-forward simulator in the spirit of smoltcp's design goals
//! (simplicity, robustness, no async machinery for a CPU-bound core).
//!
//! What is modeled — exactly the mechanisms PINT's evaluation measures:
//!
//! * **Links** with bandwidth and propagation delay; serialization time is
//!   `8 · wire_bytes / bandwidth`, so every telemetry byte on a packet
//!   costs capacity and latency (the effect behind Figs. 1, 2, 7, 8).
//! * **Switches** with per-egress-port FIFO queues, tail-drop, and a
//!   telemetry hook invoked at dequeue (where INT/PINT observe the queue).
//! * **ECMP routing** over all shortest paths, hashed per flow.
//! * **Transports**: TCP Reno ([`transport::reno`]) for the §2 overhead
//!   study; HPCC lives in the `pint-hpcc` crate via the [`transport`]
//!   trait.
//! * **Workloads**: Poisson flow arrivals with the web-search and Hadoop
//!   flow-size distributions ([`workload`]).
//! * **Topologies** ([`topology`]): the paper's Clos fabric (16 core /
//!   20 agg / 20 ToR / 320 servers), a 5-hop three-tier fat-tree with 64
//!   hosts (§2), FatTree(K=8), and synthesized ISP graphs matching
//!   Kentucky Datalink (753 nodes, D=59) and US Carrier (157 nodes, D=36).
//!
//! Everything is deterministic given the seeds in [`sim::SimConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod packet;
pub mod routing;
pub mod sim;
pub mod telemetry;
pub mod topology;
pub mod transport;
pub mod workload;

pub use metrics::{FlowRecord, Report};
pub use packet::{AckView, IntRecord, Packet, PacketKind};
pub use routing::Routing;
pub use sim::{DigestSink, SimConfig, Simulator};
pub use telemetry::{SwitchView, TelemetryHook};
pub use topology::{NodeId, NodeKind, Topology};
pub use transport::{Action, Transport, TransportFactory};
pub use workload::{FlowSizeCdf, WorkloadConfig};

/// Simulation time in nanoseconds.
pub type Nanos = u64;

/// Flow identifier.
pub type FlowId = u64;
