//! # siperf-workload
//!
//! The benchmark driver for the SIPerf study — the paper's §4.2
//! methodology as code: thousands of simulated SIP phones across three
//! client machines, a registration phase, then closed-loop calls through
//! the proxy with throughput measured as operations (SIP transactions) per
//! second over the measured phase only. Open-loop Poisson callers, which
//! offer load regardless of outstanding calls, give the overload
//! literature's goodput-vs-offered-load curves.
//!
//! * [`phone`] — the transport-independent caller engine (closed- or
//!   open-loop [`phone::Arrivals`]), callee logic, and the phone front end
//!   both phone processes drive: registration with its retry rule, the
//!   poll loop, inbound dispatch and ring-delayed answers.
//! * [`phone_msg`] — the UDP/SCTP phone process: one socket, receive and
//!   send-to.
//! * [`phone_tcp`] — the TCP phone process: a listen socket, never-closed
//!   connections and one connect path, used for registration, the 50/500
//!   ops-per-connection reconnect policies and reconnect-and-redrive after
//!   a reset.
//! * [`scenario`] — world construction, execution, and the full
//!   [`scenario::ScenarioReport`].
//! * [`experiments`] — the paper's grid: Figures 3–5 cells, the §4.3
//!   ablations, and the §6 extensions.
//! * [`stats`] — client-side measurement.
//!
//! # Example
//!
//! ```
//! use siperf_workload::{Scenario, Transport};
//!
//! let report = Scenario::builder("smoke")
//!     .transport(Transport::Udp)
//!     .client_pairs(10)
//!     .measure_secs(1)
//!     .build()
//!     .run();
//! assert!(report.registered >= 20, "all phones register");
//! assert!(report.throughput.per_sec() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod phone;
pub mod phone_msg;
pub mod phone_tcp;
pub mod scenario;
pub mod stats;

pub use experiments::{FigureConfig, TransportWorkload, CLIENT_COUNTS};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioReport};
pub use siperf_overload::OverloadConfig;
pub use siperf_proxy::config::{Arch, IdleStrategy, ProxyConfig, Transport};
pub use stats::WorkloadStats;
