//! Phone process for TCP.
//!
//! TCP phones own real connections, exactly like the paper's benchmark
//! (§4.3): every phone listens on its fixed port (so the proxy can open a
//! connection *to* it when forwarding), keeps a client connection to the
//! proxy for its own requests, **never closes connections**, and — in the
//! non-persistent workloads — simply opens a fresh client connection after
//! every 50 or 500 operations, abandoning the old one for the server's idle
//! management to clean up. That abandonment is precisely what loads the
//! §5.2 idle-scan path.
//!
//! Registration, calling and answering live in the phone front end; this
//! module keeps only the I/O: the listen socket, accepted connections, the
//! stream framers and the client connection. Every (re)connect takes one
//! path: once the connection is up, the phone sends its REGISTER if it has
//! not registered yet, and otherwise flushes the requests that waited for
//! the connection. A registration attempt that times out or loses its
//! connection is retried over a fresh connection, a bounded number of
//! times.
//!
//! An open-loop caller carries every pooled call's requests over its one
//! client connection. After a reset it reconnects at once and re-drives
//! every in-flight call; after a graceful close it reconnects on the next
//! send.

use std::collections::{BTreeMap, VecDeque};

use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::endpoint::Bytes;
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};
use siperf_sip::framer::StreamFramer;

use crate::phone::{FrontEnd, PhoneCfg, Step};

const RECV_CHUNK: usize = 16 * 1024;
const CONNECT_BACKOFF: SimDuration = SimDuration::from_millis(100);

enum Phase {
    Start,
    Listened,
    Staggered,
    Connecting,
    Backoff,
    SleepingToStart,
    Polling,
    Accepting,
    Receiving(Fd),
    Script,
}

/// A TCP phone process (caller or callee).
pub struct TcpPhone {
    fe: FrontEnd<Fd>,
    listener: Fd,
    client: Option<Fd>,
    /// Ordered, because the poll set lists these descriptors and the kernel
    /// reports ready ones in that order.
    framers: BTreeMap<Fd, StreamFramer>,
    ops_at_conn: u64,
    /// Requests waiting for the client connection.
    pending_out: Vec<Bytes>,
    pending_ready: VecDeque<Fd>,
    phase: Phase,
}

impl TcpPhone {
    /// Creates the phone process.
    pub fn new(cfg: PhoneCfg) -> Self {
        TcpPhone {
            fe: FrontEnd::new(cfg),
            listener: Fd(u32::MAX),
            client: None,
            framers: BTreeMap::new(),
            ops_at_conn: 0,
            pending_out: Vec::new(),
            pending_ready: VecDeque::new(),
            phase: Phase::Start,
        }
    }

    /// Queues any due 200 OKs whose connection is still open, then runs
    /// the script, serves ready descriptors, or polls.
    fn park(&mut self, now: SimTime) -> Syscall {
        while let Some((fd, ok)) = self.fe.pop_due(now) {
            if self.framers.contains_key(&fd) {
                self.fe.queue(Syscall::TcpSend { fd, data: ok });
            }
        }
        if let Some(s) = self.fe.next_queued() {
            self.phase = Phase::Script;
            return s;
        }
        match self.pending_ready.pop_front() {
            Some(fd) if fd == self.listener => {
                self.phase = Phase::Accepting;
                return Syscall::TcpAccept { fd: self.listener };
            }
            Some(fd) if self.framers.contains_key(&fd) => {
                self.phase = Phase::Receiving(fd);
                return Syscall::TcpRecv {
                    fd,
                    max: RECV_CHUNK,
                };
            }
            Some(_) => return self.park(now), // stale fd
            None => {}
        }
        self.phase = Phase::Polling;
        let mut fds = Vec::with_capacity(2 + self.framers.len());
        fds.push(self.listener);
        fds.extend(self.framers.keys().copied());
        Syscall::Poll {
            fds,
            timeout: self.fe.poll_timeout(now),
        }
    }

    /// Opens a client connection to the proxy: the one reconnect path, for
    /// registration, the ops-per-connection policy and a lost connection.
    fn connect(&mut self) -> Syscall {
        self.phase = Phase::Connecting;
        Syscall::TcpConnect {
            to: self.fe.cfg().proxy,
        }
    }

    /// Queues caller-originated messages: straight onto the client
    /// connection, or through a reconnect when the ops-per-connection
    /// policy says so (or the connection died).
    fn send_to_proxy(&mut self, msgs: Vec<Bytes>) -> Option<Syscall> {
        let policy_hit = self
            .fe
            .cfg()
            .ops_per_conn
            .is_some_and(|k| self.fe.ops_done() - self.ops_at_conn >= k as u64);
        if policy_hit {
            self.fe.cfg().stats.borrow_mut().reconnects += 1;
        }
        let Some(fd) = self.client.filter(|_| !policy_hit) else {
            // Abandon the old connection (never closed — §4.3) and carry
            // the messages across the reconnect.
            self.pending_out.extend(msgs);
            return Some(self.connect());
        };
        for m in msgs {
            self.fe.queue(Syscall::TcpSend { fd, data: m });
        }
        None
    }

    /// Carries out a front-end step; `None` means carry on.
    fn act(&mut self, step: Step<Fd>) -> Option<Syscall> {
        match step {
            Step::Park => None,
            Step::ToProxy(msgs) => self.send_to_proxy(msgs),
            Step::Answer(fd, msgs) => {
                for m in msgs {
                    self.fe.queue(Syscall::TcpSend { fd, data: m });
                }
                None
            }
            Step::StartCalls => {
                self.phase = Phase::SleepingToStart;
                Some(Syscall::SleepUntil(self.fe.cfg().call_start))
            }
            Step::Reregister => {
                // Drop the connection of the attempt that timed out.
                if let Some(fd) = self.client.take() {
                    self.framers.remove(&fd);
                    self.fe.queue(Syscall::Close { fd });
                }
                Some(self.connect())
            }
            Step::GiveUp => Some(Syscall::Exit),
        }
    }

    /// Feeds framed messages from one connection through the front end;
    /// callees answer on the connection the request arrived on (RFC 3261
    /// §18.2.2 for stream transports).
    fn handle_frames(&mut self, now: SimTime, src: Fd, frames: Vec<Vec<u8>>) -> Syscall {
        for raw in frames {
            let step = self.fe.on_message(now, &raw, |_| src);
            if let Some(s) = self.act(step) {
                return s;
            }
        }
        self.park(now)
    }

    /// A connection died (EOF, reset or a corrupt stream).
    fn conn_lost(&mut self, fd: Fd, now: SimTime, reset: bool) -> Syscall {
        let was_client = self.client == Some(fd);
        self.framers.remove(&fd);
        if was_client {
            self.client = None;
        }
        // §4.3's phones never *initiate* closes — live connections are
        // abandoned for the server to reap — but once the peer has closed,
        // the dead descriptor is released like any real client would.
        self.fe.queue(Syscall::Close { fd });
        if self.client.is_some() {
            return self.park(now);
        }
        if !self.fe.registered() {
            let step = self.fe.registration_failed();
            return self.act(step).expect("registration retried or given up");
        }
        // A *reset* on the client connection mid-call is a fault, not a
        // fatality: queue the in-flight requests so the reconnect re-drives
        // them (reliable transports never retransmit on their own, so without
        // this the call would stall to Timer B). A graceful EOF is the
        // server reaping an idle connection — the transaction is intact and
        // its response arrives over a proxy-initiated connection, so
        // re-driving would only add connection churn.
        if reset && was_client {
            self.pending_out.extend(self.fe.redrive(now));
        }
        if self.pending_out.is_empty() {
            return self.park(now);
        }
        self.connect()
    }
}

impl Process for TcpPhone {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, Phase::Start) {
            Phase::Start => {
                self.phase = Phase::Listened;
                Syscall::TcpListen {
                    port: self.fe.cfg().port,
                    backlog: 64,
                }
            }
            Phase::Listened => {
                self.listener = last.expect_fd();
                self.fe.start(ctx.host);
                self.phase = Phase::Staggered;
                Syscall::Sleep(self.fe.cfg().stagger)
            }
            Phase::Staggered | Phase::Backoff => self.connect(),
            // The one place a client connection comes up: register over it,
            // or send what waited for it.
            Phase::Connecting => match last {
                SysResult::NewFd(fd) => {
                    self.client = Some(fd);
                    self.framers.insert(fd, StreamFramer::new());
                    self.ops_at_conn = self.fe.ops_done();
                    let msgs = if self.fe.registered() {
                        std::mem::take(&mut self.pending_out)
                    } else {
                        vec![self.fe.register(ctx.now)]
                    };
                    for m in msgs {
                        self.fe.queue(Syscall::TcpSend { fd, data: m });
                    }
                    self.park(ctx.now)
                }
                SysResult::Err(_) => {
                    self.fe.cfg().stats.borrow_mut().connect_errors += 1;
                    self.phase = Phase::Backoff;
                    Syscall::Sleep(CONNECT_BACKOFF)
                }
                other => panic!("phone connect got {other:?}"),
            },
            // Calls start on the arrival clock: the closed loop's first call
            // is due at `call_start`, the open loop fires whatever is due.
            Phase::SleepingToStart => {
                let step = self.fe.on_timeout(ctx.now);
                self.act(step).unwrap_or_else(|| self.park(ctx.now))
            }
            Phase::Polling => match last {
                SysResult::Ready(fds) => {
                    self.pending_ready.extend(fds);
                    self.park(ctx.now)
                }
                SysResult::TimedOut => {
                    let step = self.fe.on_timeout(ctx.now);
                    self.act(step).unwrap_or_else(|| self.park(ctx.now))
                }
                other => panic!("phone poll got {other:?}"),
            },
            Phase::Accepting => {
                match last {
                    SysResult::Accepted { fd, .. } => {
                        self.framers.insert(fd, StreamFramer::new());
                    }
                    SysResult::Err(_) => {
                        self.fe.cfg().stats.borrow_mut().connect_errors += 1;
                    }
                    other => panic!("phone accept got {other:?}"),
                }
                self.park(ctx.now)
            }
            Phase::Receiving(fd) => match last {
                SysResult::Data(bytes) => {
                    let Some(framer) = self.framers.get_mut(&fd) else {
                        return self.park(ctx.now);
                    };
                    framer.push(&bytes);
                    match framer.drain_messages() {
                        Ok(frames) => self.handle_frames(ctx.now, fd, frames),
                        Err(_) => self.conn_lost(fd, ctx.now, false),
                    }
                }
                SysResult::Eof => self.conn_lost(fd, ctx.now, false),
                SysResult::Err(_) => self.conn_lost(fd, ctx.now, true),
                other => panic!("phone recv got {other:?}"),
            },
            Phase::Script => {
                if let SysResult::Err(_) = last {
                    // A send on a dead connection; the poll loop will see
                    // the EOF and clean up.
                    self.fe.cfg().stats.borrow_mut().connect_errors += 1;
                }
                self.park(ctx.now)
            }
        }
    }
}
