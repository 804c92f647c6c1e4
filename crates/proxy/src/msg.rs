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

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, MsgTransport, SysResult, Syscall};
use siperf_sip::parse::parse_message;

use crate::config::{AppCostModel, Transport};
use crate::core::{FastAdmission, Outgoing, ProxyCore};
use crate::plumbing::{routing_script, Locks};

/// One symmetric UDP or SCTP worker process.
pub struct MsgWorker {
    transport: Transport,
    mt: MsgTransport,
    core: Rc<RefCell<ProxyCore>>,
    costs: AppCostModel,
    locks: Locks,
    /// Filled by the spawner after fork-inheritance of the shared socket.
    fd_slot: Rc<Cell<Option<Fd>>>,
    fd: Fd,
    script: VecDeque<Syscall>,
}

impl MsgWorker {
    /// Creates a worker; `fd_slot` must be filled (via
    /// [`siperf_simos::kernel::Kernel::setup_shared`]) before the
    /// simulation runs.
    ///
    /// # Panics
    ///
    /// Panics if `transport` is TCP, which has no shared message socket.
    pub fn new(
        transport: Transport,
        core: Rc<RefCell<ProxyCore>>,
        costs: AppCostModel,
        locks: Locks,
        fd_slot: Rc<Cell<Option<Fd>>>,
    ) -> Self {
        MsgWorker {
            transport,
            mt: transport
                .msg_transport()
                .expect("symmetric workers need a message transport"),
            core,
            costs,
            locks,
            fd_slot,
            fd: Fd(u32::MAX),
            script: VecDeque::new(),
        }
    }

    /// Queues one send per outgoing message.
    fn queue_sends(&mut self, out: Vec<Outgoing>) {
        for out in out {
            let send = self.mt.send(self.fd, out.dest, out.bytes);
            self.script.push_back(send);
        }
    }
}

impl Process for MsgWorker {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        if let SysResult::Err(_) = last {
            // Only sends can fail in this loop; count and continue.
            self.core.borrow_mut().stats.send_errors += 1;
        }
        if let Some(next) = self.script.pop_front() {
            return next;
        }
        if let SysResult::Start = last {
            self.fd = self
                .fd_slot
                .get()
                .expect("shared SIP socket installed before run");
            return self.mt.recv(self.fd);
        }
        // Script drained (or a send completed): back to the loop top.
        let Some((from, data)) = last.into_msg() else {
            return self.mt.recv(self.fd);
        };
        let parse_ns = self.costs.parse_cost(data.len());
        match parse_message(&data) {
            Err(_) => {
                self.core.borrow_mut().stats.parse_errors += 1;
                self.script.push_back(Syscall::Compute {
                    ns: parse_ns,
                    tag: crate::plumbing::tags::PARSE,
                });
            }
            Ok(msg) => {
                let was_request = msg.is_request();
                // Overload-signal hook: a worker holds at most one message at
                // a time — the backlog lives in the kernel socket or
                // association buffers where OpenSER cannot see it, so the
                // policy gets only the transaction count.
                let mut core = self.core.borrow_mut();
                if let FastAdmission::Shed(plan) = core.fast_admission(ctx.now, &msg, from) {
                    // Shed fast path: the request line alone identified a
                    // refusable INVITE, so skip the parse/route/build
                    // pipeline and charge only the sniff + canned 503.
                    drop(core);
                    self.script.push_back(Syscall::Compute {
                        ns: self.costs.shed_fast,
                        tag: crate::plumbing::tags::SHED_FAST,
                    });
                    self.queue_sends(plan.out);
                    return self.script.pop_front().expect("shed plan has a 503");
                }
                let plan = core.handle_message(ctx.now, msg, from);
                drop(core);
                routing_script(
                    &mut self.script,
                    &self.costs,
                    &self.locks,
                    self.transport,
                    parse_ns,
                    was_request,
                    &plan,
                );
                self.queue_sends(plan.out);
            }
        }
        self.script.pop_front().expect("script never empty here")
    }
}
