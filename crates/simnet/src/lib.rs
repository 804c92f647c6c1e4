//! # siperf-simnet
//!
//! The simulated network substrate for the SIPerf study — a reproduction of
//! *"Explaining the Impact of Network Transport Protocols on SIP Proxy
//! Performance"* (ISPASS 2008).
//!
//! The paper's testbed is three client machines and one four-core server on
//! a gigabit switch. This crate models that fabric as a pure,
//! deterministic state machine:
//!
//! * [`addr`] — hosts, ports, socket addresses.
//! * [`config`] — latency, MSS, buffer sizes, port ranges, TIME_WAIT.
//! * [`ports`] — per-host ephemeral port pools (the §4.3 starvation
//!   mechanism).
//! * [`fault`] — deterministic fault injection: burst loss, partitions,
//!   latency spikes, TCP resets, accept freezes (dedicated RNG stream).
//! * [`net`] — the [`net::Network`] fabric and the message sockets: one
//!   endpoint type for UDP and SCTP, the protocol chosen at bind.
//! * [`tcp`] — handshake, ordered byte streams with real segmentation,
//!   receive-window backpressure, accept queues, TIME_WAIT.
//! * [`sctp`] — sending and delivery on one-to-many endpoints with
//!   kernel-managed associations (the §6 alternative).
//!
//! The crate never blocks and never owns a clock: operations take `now`,
//! emit timestamped [`event::NetEvent`]s for the caller to schedule, and
//! report readiness changes as [`event::NetOutcome`]s. The simulated kernel
//! in `siperf-simos` layers blocking syscalls on top.
//!
//! # Example
//!
//! ```
//! use siperf_simcore::time::SimTime;
//! use siperf_simnet::addr::SockAddr;
//! use siperf_simnet::config::NetConfig;
//! use siperf_simnet::endpoint::{bytes_from, MsgTransport};
//! use siperf_simnet::net::Network;
//!
//! let mut net = Network::new(NetConfig::lan(), 42);
//! let server = net.add_host();
//! let client = net.add_host();
//! let sock = net.udp_bind(server, 5060)?;
//! let (csock, _port) = net.msg_bind_ephemeral(MsgTransport::Udp, client)?;
//! net.udp_send(SimTime::ZERO, csock, SockAddr::new(server, 5060),
//!              bytes_from(b"OPTIONS sip:x SIP/2.0\r\n\r\n".to_vec()))?;
//! // The kernel would now schedule net.take_events() and deliver them.
//! # let _ = sock;
//! # Ok::<(), siperf_simnet::error::Errno>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod config;
pub mod endpoint;
pub mod error;
pub mod event;
pub mod fault;
pub mod net;
pub mod ports;
pub mod sctp;
pub mod tcp;

pub use addr::{HostId, Port, SockAddr, SIP_PORT};
pub use config::NetConfig;
pub use endpoint::{bytes_from, Bytes, EpId, MsgTransport, TcpState};
pub use error::Errno;
pub use event::{NetEvent, NetOutcome};
pub use fault::GilbertElliott;
pub use net::{NetStats, Network};
