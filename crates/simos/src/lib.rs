//! # siperf-simos
//!
//! A simulated operating-system kernel for the SIPerf study — a
//! reproduction of *"Explaining the Impact of Network Transport Protocols on
//! SIP Proxy Performance"* (ISPASS 2008).
//!
//! The paper's findings are operating-system findings: blocking IPC round
//! trips between a supervisor and its workers, scheduler starvation cured by
//! `nice -20`, spinlocks that degrade into `sched_yield` storms, descriptor
//! budgets, and a deadlock between two blocking endpoints. This crate
//! provides the substrate on which all of those phenomena can *emerge*
//! rather than being scripted:
//!
//! * [`process`] — processes as resumable syscall state machines.
//! * [`syscall`] — the syscall surface: message sockets (UDP or SCTP,
//!   chosen at bind), TCP streams, poll, IPC with descriptor passing,
//!   locks, timers.
//! * [`kernel`] — the preemptive priority scheduler over per-host cores,
//!   blocking semantics, wakeups, descriptor tables, and the global event
//!   loop; plus IPC deadlock detection.
//! * [`ipc`] — bounded bidirectional channels (unix socketpairs).
//! * [`lock`] — OpenSER-style spin-then-`sched_yield` locks.
//! * [`cost`] — the calibrated per-syscall CPU cost model.
//!
//! # Example
//!
//! A process that binds a UDP socket, waits for one datagram, and echoes it
//! back. The protocol is chosen once, at bind: with `MsgTransport::Sctp`
//! the same process is an SCTP echo server, because sends and receives read
//! it from the descriptor.
//!
//! ```
//! use siperf_simcore::time::{SimDuration, SimTime};
//! use siperf_simnet::NetConfig;
//! use siperf_simos::cost::CostModel;
//! use siperf_simos::kernel::Kernel;
//! use siperf_simos::process::{Nice, ResumeCtx};
//! use siperf_simos::syscall::{Fd, MsgTransport, Syscall, SysResult};
//!
//! let mut kernel = Kernel::new(NetConfig::lan(), CostModel::free(), 1);
//! let host = kernel.add_host(1);
//! let (mut step, mut fd) = (0, Fd(0));
//! kernel.spawn(host, Nice::NORMAL, "echo", Box::new(
//!     move |_ctx: &mut ResumeCtx, last: SysResult| {
//!         step += 1;
//!         match (step, last) {
//!             (1, _) => Syscall::MsgBind { proto: MsgTransport::Udp, port: 5060 },
//!             (2, last) => {
//!                 fd = last.expect_fd();
//!                 Syscall::MsgRecv { fd }
//!             }
//!             (3, SysResult::Msg { from, data }) => Syscall::MsgSend { fd, to: from, data },
//!             _ => Syscall::Exit,
//!         }
//!     },
//! ));
//! kernel.run_until(SimTime::ZERO + SimDuration::from_secs(1));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod ipc;
pub mod kernel;
pub mod lock;
pub mod process;
pub mod syscall;

#[cfg(test)]
mod kernel_tests;

pub use cost::CostModel;
pub use ipc::{ChanId, Side};
pub use kernel::{FdKind, Kernel, KernelStats, RunOutcome};
pub use lock::LockId;
pub use process::{Nice, ProcId, Process, ResumeCtx};
pub use syscall::{Fd, IpcMsg, MsgTransport, SysResult, Syscall};
