//! The timer process.
//!
//! §3.2: "the timer process is essential to UDP, since UDP does not
//! guarantee delivery and a stateful proxy must retransmit messages for
//! transactions that do not receive a response." It periodically walks the
//! global timer list under its lock, retransmitting stored requests and
//! reaping finished transactions.
//!
//! §3.1: the same process exists under TCP but is "superfluous" — it still
//! ticks and scans (costing CPU and lock hold time, faithfully), but the
//! reliable transport never needs a retransmission. Transaction timeouts
//! (408) are only deliverable on datagram transports here; on TCP the timer
//! lacks a connection and drops them, which only matters when a phone dies
//! mid-call.
//!
//! The UDP timer binds its own ephemeral socket (`MsgBindEphemeral`); the
//! SCTP timer inherits the shared endpoint like a worker. Either way its
//! retransmissions are plain `MsgSend`s: the protocol travels with the
//! descriptor.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, MsgTransport, SysResult, Syscall};

use crate::config::Transport;
use crate::plumbing::{tags, Shared};

/// The retransmission/reaping timer process.
pub struct TimerProc {
    shared: Shared,
    /// The shared SCTP endpoint, inherited like the workers'. Without one,
    /// a UDP timer binds its own ephemeral socket.
    endpoint: Option<Rc<Cell<Option<Fd>>>>,
    /// The message socket retransmissions go out on; `None` under TCP,
    /// where they never happen and timeouts are dropped.
    fd: Option<Fd>,
    script: VecDeque<Syscall>,
    started: bool,
}

impl TimerProc {
    /// Creates the timer process for the configured transport; `endpoint`
    /// is the shared-endpoint slot the timer inherits (SCTP only).
    pub fn new(shared: Shared, endpoint: Option<Rc<Cell<Option<Fd>>>>) -> Self {
        TimerProc {
            shared,
            endpoint,
            fd: None,
            script: VecDeque::new(),
            started: false,
        }
    }

    fn run_pass(&mut self, ctx: &ResumeCtx) {
        // Lock ordering per OpenSER: timer list first, then transactions.
        let locks = self.shared.locks;
        self.script
            .push_back(Syscall::LockAcquire { lock: locks.timer });
        self.script
            .push_back(Syscall::LockAcquire { lock: locks.txn });
        let pass = self.shared.core.borrow_mut().timer_pass(ctx.now);
        let scan_ns = self
            .shared
            .cfg
            .app_costs
            .timer_scan_entry
            .saturating_mul(pass.examined.max(1));
        self.script.push_back(Syscall::Compute {
            ns: scan_ns,
            tag: tags::TIMER_SCAN,
        });
        self.script
            .push_back(Syscall::LockRelease { lock: locks.txn });
        self.script
            .push_back(Syscall::LockRelease { lock: locks.timer });
        for out in pass.retransmits.into_iter().chain(pass.timeouts) {
            match self.fd {
                Some(fd) => self.script.push_back(Syscall::MsgSend {
                    fd,
                    to: out.dest,
                    data: out.bytes,
                }),
                // TCP timer has no connection to send on; see module docs.
                None => self.shared.core.borrow_mut().stats.send_errors += 1,
            }
        }
        self.script
            .push_back(Syscall::Sleep(self.shared.cfg.timer_tick));
    }
}

impl Process for TimerProc {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        if let SysResult::Err(_) = last {
            self.shared.core.borrow_mut().stats.send_errors += 1;
        }
        let tick = self.shared.cfg.timer_tick;
        if !self.started {
            self.started = true;
            if let Some(slot) = &self.endpoint {
                self.fd = Some(slot.get().expect("shared SCTP endpoint installed"));
            } else if self.shared.cfg.transport == Transport::Udp {
                return Syscall::MsgBindEphemeral {
                    proto: MsgTransport::Udp,
                };
            }
            return Syscall::Sleep(tick);
        }
        if self.fd.is_none() && self.shared.cfg.transport == Transport::Udp {
            self.fd = Some(last.expect_fd());
            return Syscall::Sleep(tick);
        }
        if let Some(next) = self.script.pop_front() {
            return next;
        }
        // Woke from the tick: run a pass and start draining its script.
        self.run_pass(ctx);
        self.script.pop_front().expect("pass always emits syscalls")
    }
}
