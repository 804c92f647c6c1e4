//! Phone process for message-oriented transports (UDP and SCTP).
//!
//! One simulated process per phone: bind the phone's fixed port, then let
//! the phone front end (see [`crate::phone`]) register and call or answer.
//! This module keeps only the I/O: one socket, receive, and send-to. The
//! transport is named once, in the `MsgBind`; every later call reads it
//! from the descriptor.
//! Responses are sent to the topmost Via's sent-by, as RFC 3261 §18.2.2
//! prescribes for datagram transports.

use siperf_proxy::util::parse_sim_addr;
use siperf_simcore::time::SimTime;
use siperf_simnet::addr::SockAddr;
use siperf_simnet::endpoint::Bytes;
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};

use crate::phone::{FrontEnd, PhoneCfg, Step};

enum Phase {
    Start,
    Bound,
    Staggered,
    Polling,
    Receiving,
    Script,
    SleepingToStart,
}

/// A UDP/SCTP phone process (caller or callee).
pub struct MsgPhone {
    fe: FrontEnd<SockAddr>,
    fd: Fd,
    phase: Phase,
}

impl MsgPhone {
    /// Creates the phone process. Its first activation panics if the
    /// configured transport is TCP (see [`crate::phone_tcp::TcpPhone`]).
    pub fn new(cfg: PhoneCfg) -> Self {
        MsgPhone {
            fe: FrontEnd::new(cfg),
            fd: Fd(u32::MAX),
            phase: Phase::Start,
        }
    }

    /// Queues any due 200 OKs, then runs the script or polls.
    fn park(&mut self, now: SimTime) -> Syscall {
        while let Some((dest, ok)) = self.fe.pop_due(now) {
            self.queue_sends(dest, [ok]);
        }
        if let Some(s) = self.fe.next_queued() {
            self.phase = Phase::Script;
            return s;
        }
        self.phase = Phase::Polling;
        Syscall::Poll {
            fds: vec![self.fd],
            timeout: self.fe.poll_timeout(now),
        }
    }

    fn queue_sends(&mut self, to: SockAddr, msgs: impl IntoIterator<Item = Bytes>) {
        let fd = self.fd;
        for data in msgs {
            self.fe.queue(Syscall::MsgSend { fd, to, data });
        }
    }

    /// Sends a REGISTER under a fresh clock.
    fn register(&mut self, now: SimTime) -> Syscall {
        let msg = self.fe.register(now);
        self.queue_sends(self.fe.cfg().proxy, [msg]);
        self.park(now)
    }

    fn act(&mut self, step: Step<SockAddr>, now: SimTime) -> Syscall {
        match step {
            Step::Park => {}
            Step::ToProxy(msgs) => self.queue_sends(self.fe.cfg().proxy, msgs),
            Step::Answer(dest, msgs) => self.queue_sends(dest, msgs),
            Step::StartCalls => {
                self.phase = Phase::SleepingToStart;
                return Syscall::SleepUntil(self.fe.cfg().call_start);
            }
            Step::Reregister => return self.register(now),
            Step::GiveUp => return Syscall::Exit,
        }
        self.park(now)
    }
}

impl Process for MsgPhone {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, Phase::Start) {
            Phase::Start => {
                self.phase = Phase::Bound;
                let cfg = self.fe.cfg();
                Syscall::MsgBind {
                    proto: cfg
                        .transport
                        .msg_transport()
                        .expect("MsgPhone speaks UDP or SCTP"),
                    port: cfg.port,
                }
            }
            Phase::Bound => {
                self.fd = last.expect_fd();
                self.fe.start(ctx.host);
                self.phase = Phase::Staggered;
                Syscall::Sleep(self.fe.cfg().stagger)
            }
            Phase::Staggered => self.register(ctx.now),
            // Calls start on the arrival clock: the closed loop's first call
            // is due at `call_start`, the open loop fires whatever is due.
            Phase::SleepingToStart => {
                let step = self.fe.on_timeout(ctx.now);
                self.act(step, ctx.now)
            }
            Phase::Polling => match last {
                SysResult::Ready(_) => {
                    self.phase = Phase::Receiving;
                    Syscall::MsgRecv { fd: self.fd }
                }
                SysResult::TimedOut => {
                    let step = self.fe.on_timeout(ctx.now);
                    self.act(step, ctx.now)
                }
                other => panic!("phone poll got {other:?}"),
            },
            Phase::Receiving => {
                let SysResult::Msg { from, data } = last else {
                    panic!("phone recv got {last:?}");
                };
                let step = self.fe.on_message(ctx.now, &data, |msg| {
                    msg.vias
                        .first()
                        .and_then(|v| parse_sim_addr(&v.sent_by))
                        .unwrap_or(from)
                });
                self.act(step, ctx.now)
            }
            Phase::Script => {
                if let SysResult::Err(_) = last {
                    self.fe.cfg().stats.borrow_mut().connect_errors += 1;
                }
                self.park(ctx.now)
            }
        }
    }
}
