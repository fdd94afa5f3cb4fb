//! `lsds-net` — the network substrate.
//!
//! Implements the *network characteristics* axis of the taxonomy (§3):
//! "network elements interconnecting hosts … routers, switches and other
//! devices", and infrastructure protocols (TCP/UDP-like transports). Of
//! the "higher-level application protocols such as FTP, NFS", only bulk
//! transfer is modelled, and not here: the grid's data staging
//! (`lsds-grid`'s `GridModel`) drives [`FlowNet`] directly and retries
//! failed transfers under a [`RetryPolicy`]. No session-limited FTP-like
//! service and no Poisson cross-traffic generator is modelled.
//!
//! The taxonomy's *granularity* axis is first-class: "the simulation of the
//! network can model in detail the flow of each packet through the network,
//! a time consuming operation that leads to better output results, or it
//! can model only the flows of packets going from one end to another":
//!
//! * [`flow`] — fluid, max-min fair bandwidth sharing (what OptorSim and
//!   SimGrid-class simulators use);
//! * [`packet`] — store-and-forward per-packet simulation with finite
//!   drop-tail queues (ns-class granularity).
//!
//! Experiment E13 runs the same workload through both and reports the
//! accuracy/cost trade-off.
//!
//! Everything is written as embeddable components driven through
//! [`lsds_core::Schedule`], so the grid middleware layer (`lsds-grid`) can
//! compose a network into its own models.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// exact float equality in order-sensitive code must say why it is exact
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod fault;
pub mod flow;
pub mod packet;
pub mod routing;
pub mod topology;
pub mod transport;

pub use fault::{poisson_link_outages, LinkFault, RetryPolicy};
pub use flow::{
    FaultOutcome, FlowAborted, FlowDone, FlowEvent, FlowId, FlowNet, NoRoute, ShareMode,
};
pub use packet::{PacketEvent, PacketNet, PacketNote};
pub use routing::{RouteCache, Routing};
pub use topology::{gbps, mbps, LinkId, NodeId, NodeKind, Topology};
pub use transport::{TcpConnection, TransportEvent, TransportNet, TransportNote, UdpStream};
