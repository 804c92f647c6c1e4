//! The symmetric worker (§3.2) for the message-oriented transports.
//!
//! Under UDP every worker runs the same loop on the same inherited socket:
//! receive a datagram, parse it, match or create the transaction under the
//! shared lock, look up the route, and send — no connection management, no
//! supervisor, no descriptor passing. Any worker can receive from any phone
//! and send to any phone.
//!
//! The §6 SCTP mode is the same loop on a reliable transport. SCTP is
//! connection-oriented and reliable like TCP but message-based like UDP,
//! and the kernel manages its associations, so every worker receives whole
//! messages from the shared one-to-many endpoint and sends to any peer
//! without user-level connection management, descriptor passing, or
//! per-connection write locks. The paper predicts this removes most of the
//! TCP architecture's overheads while retaining reliable delivery — the
//! `extensions` bench quantifies it.
//!
//! The loop is literally the same: the spawner binds the shared socket for
//! one protocol (`Kernel::setup_shared`), and `MsgRecv`/`MsgSend` read the
//! protocol, and the kernel its cost, from the inherited descriptor.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};

use crate::plumbing::Shared;

/// One symmetric UDP or SCTP worker process.
pub struct MsgWorker {
    shared: Shared,
    /// Filled by the spawner after fork-inheritance of the shared socket.
    fd_slot: Rc<Cell<Option<Fd>>>,
    script: VecDeque<Syscall>,
}

impl MsgWorker {
    /// Creates a worker; `fd_slot` must be filled (via
    /// [`siperf_simos::kernel::Kernel::setup_shared`]) before the
    /// simulation runs.
    pub fn new(shared: Shared, fd_slot: Rc<Cell<Option<Fd>>>) -> Self {
        MsgWorker {
            shared,
            fd_slot,
            script: VecDeque::new(),
        }
    }
}

impl Process for MsgWorker {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        if let SysResult::Err(_) = last {
            // Only sends can fail in this loop; count and continue.
            self.shared.core.borrow_mut().stats.send_errors += 1;
        }
        if let Some(next) = self.script.pop_front() {
            return next;
        }
        let fd = self
            .fd_slot
            .get()
            .expect("shared SIP socket installed before run");
        // Started, script drained, or a send completed: back to the loop top.
        let SysResult::Msg { from, data } = last else {
            return Syscall::MsgRecv { fd };
        };
        // A worker holds at most one message at a time — the backlog lives
        // in the kernel socket or association buffers where OpenSER cannot
        // see it, so the overload policy gets no worker backlog.
        let out = self
            .shared
            .serve(&mut self.script, None, ctx.now, &data, from);
        for out in out {
            self.script.push_back(Syscall::MsgSend {
                fd,
                to: out.dest,
                data: out.bytes,
            });
        }
        self.script
            .pop_front()
            .expect("serving always scripts work")
    }
}
