//! The §6 multi-threaded architecture.
//!
//! "File descriptors cannot be shared among processes without passing them
//! back and forth using IPC. This overhead would be completely unnecessary
//! within a multi-threaded server. Locking would still be required to
//! ensure atomic use of each connection, but the threads would be able to
//! use any file descriptor in the server without any expensive transfer
//! operations."
//!
//! Exactly that: an acceptor thread and worker threads share one descriptor
//! table ([`siperf_simos::kernel::Kernel::spawn_thread`]). The shared
//! `conn → fd` registry lives in ordinary shared memory; a send takes the
//! connection-table lock to resolve the route, a striped per-connection
//! write lock for atomicity, and that's all — no supervisor round trip, no
//! close-after-send, no two-step idle shutdown.
//!
//! The read path is OpenSER's, as the paper keeps it: each thread reads the
//! connections it owns through the same `stream::Streams` set a
//! process worker uses, and serves what they deliver with the same
//! [`crate::plumbing::Shared::serve`] step. What differs from
//! [`crate::tcp`] is how a thread gets a descriptor (from the registry, no
//! IPC), how an idle connection is closed (once, by the acceptor) and how a
//! send is locked (a write-lock stripe). A thread that replaces a crashed
//! one adopts the connections the table says it owns, in place.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use siperf_simcore::time::SimTime;
use siperf_simnet::addr::SockAddr;
use siperf_simos::ipc::{ChanId, Side};
use siperf_simos::lock::LockId;
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, IpcMsg, SysResult, Syscall};

use crate::config::IdleStrategy;
use crate::conn::ConnId;
use crate::core::Outgoing;
use crate::plumbing::{decode_addr, encode_addr, tags, Shared};
use crate::stream::{Io, Next, Streams};
use crate::tcp::{MSG_CONN_DEAD, MSG_NEW_CONN};

/// What the threads share beyond [`Shared`].
#[derive(Clone)]
pub struct ThreadShared {
    /// Striped write locks serializing sends per connection.
    pub write_locks: Rc<Vec<LockId>>,
    /// conn id → descriptor, valid in every thread (shared fd table).
    pub fd_registry: Rc<RefCell<HashMap<u64, Fd>>>,
}

impl ThreadShared {
    fn write_lock_for(&self, conn: u64) -> LockId {
        self.write_locks[(conn as usize) % self.write_locks.len()]
    }
}

// ===================================================================
// Acceptor thread
// ===================================================================

enum AccPhase {
    Start,
    Attach(usize),
    Listen,
    Poll,
    Accept,
    Script,
}

/// The acceptor thread: accepts, registers, notifies the owning reader,
/// and centrally closes idle connections (one step, one close).
pub struct Acceptor {
    shared: Shared,
    threads: ThreadShared,
    notify_chans: Vec<ChanId>,
    notify_fds: Vec<Fd>,
    listener: Fd,
    rr: usize,
    script: VecDeque<Syscall>,
    phase: AccPhase,
    next_idle_check: SimTime,
}

impl Acceptor {
    /// Creates the acceptor with one notify channel per worker thread.
    pub fn new(shared: Shared, threads: ThreadShared, notify_chans: Vec<ChanId>) -> Self {
        Acceptor {
            shared,
            threads,
            notify_chans,
            notify_fds: Vec::new(),
            listener: Fd(u32::MAX),
            rr: 0,
            script: VecDeque::new(),
            phase: AccPhase::Start,
            next_idle_check: SimTime::ZERO,
        }
    }

    fn idle_pass(&mut self, now: SimTime) {
        let hunt = self.shared.hunt(&mut self.script, now);
        // One-step close: no return protocol in a threaded server.
        for id in hunt.to_return.into_iter().chain(hunt.to_destroy) {
            let owner = self
                .shared
                .conns
                .borrow_mut()
                .remove(id)
                .map(|obj| obj.owner);
            if let Some(fd) = self.threads.fd_registry.borrow_mut().remove(&id.0) {
                self.script.push_back(Syscall::Close { fd });
            }
            if let Some(owner) = owner {
                self.script.push_back(Syscall::IpcSend {
                    fd: self.notify_fds[owner],
                    msg: IpcMsg::new(MSG_CONN_DEAD, id.0, 0),
                });
            }
            self.shared.core.borrow_mut().stats.conns_destroyed += 1;
        }
    }

    fn next_action(&mut self, now: SimTime) -> Syscall {
        if let Some(s) = self.script.pop_front() {
            self.phase = AccPhase::Script;
            return s;
        }
        if now >= self.next_idle_check {
            self.next_idle_check = now + self.shared.cfg.idle_check_interval;
            self.idle_pass(now);
            self.phase = AccPhase::Script;
            return self.script.pop_front().expect("idle pass emits syscalls");
        }
        self.phase = AccPhase::Poll;
        Syscall::Poll {
            fds: vec![self.listener],
            timeout: Some(self.next_idle_check - now),
        }
    }
}

impl Process for Acceptor {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, AccPhase::Script) {
            AccPhase::Start => {
                self.phase = AccPhase::Attach(0);
                Syscall::IpcAttach {
                    chan: self.notify_chans[0],
                    side: Side::A,
                }
            }
            AccPhase::Attach(i) => {
                self.notify_fds.push(last.expect_fd());
                if i + 1 < self.notify_chans.len() {
                    self.phase = AccPhase::Attach(i + 1);
                    Syscall::IpcAttach {
                        chan: self.notify_chans[i + 1],
                        side: Side::A,
                    }
                } else {
                    self.phase = AccPhase::Listen;
                    Syscall::TcpListen {
                        port: siperf_simnet::SIP_PORT,
                        backlog: 1024,
                    }
                }
            }
            AccPhase::Listen => {
                self.listener = last.expect_fd();
                self.next_idle_check = ctx.now + self.shared.cfg.idle_check_interval;
                self.next_action(ctx.now)
            }
            AccPhase::Poll => {
                match last {
                    SysResult::Ready(_) => {
                        self.phase = AccPhase::Accept;
                        return Syscall::TcpAccept { fd: self.listener };
                    }
                    SysResult::TimedOut => {}
                    other => panic!("acceptor poll got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            AccPhase::Accept => {
                match last {
                    SysResult::Accepted { fd, peer } => {
                        let worker = self.rr % self.notify_chans.len();
                        self.rr += 1;
                        let id = self.shared.conns.borrow_mut().insert(
                            ctx.now,
                            peer,
                            worker,
                            self.shared.cfg.idle_timeout,
                        );
                        self.threads.fd_registry.borrow_mut().insert(id.0, fd);
                        self.shared.core.borrow_mut().stats.conns_assigned += 1;
                        self.shared.table_op(&mut self.script);
                        // Notify the owner — a plain message, no SCM_RIGHTS:
                        // the descriptor is already visible to every thread.
                        self.script.push_back(Syscall::IpcSend {
                            fd: self.notify_fds[worker],
                            msg: IpcMsg::new(MSG_NEW_CONN, id.0, encode_addr(peer)),
                        });
                    }
                    SysResult::Err(_) => {
                        self.shared.core.borrow_mut().stats.send_errors += 1;
                    }
                    other => panic!("acceptor accept got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            AccPhase::Script => {
                if let SysResult::Err(_) = last {
                    self.shared.core.borrow_mut().stats.send_errors += 1;
                }
                self.next_action(ctx.now)
            }
        }
    }
}

// ===================================================================
// Worker thread
// ===================================================================

enum TSendState {
    LockTable,
    TableWork,
    Unlock,
    Connecting,
    LockStripe,
    Sending,
    UnlockStripe,
}

struct TSendJob {
    out: Outgoing,
    state: TSendState,
    conn: Option<ConnId>,
    fd: Option<Fd>,
    failed: bool,
}

enum TWkrPhase {
    Start,
    Attach,
    NotifyRecv,
    Io(Io),
    Send,
}

/// One worker thread.
pub struct ThreadWorker {
    idx: usize,
    shared: Shared,
    threads: ThreadShared,
    notify_chan: ChanId,
    notify_fd: Fd,
    streams: Streams,
    out_q: VecDeque<Outgoing>,
    send: Option<TSendJob>,
    script: VecDeque<Syscall>,
    phase: TWkrPhase,
}

impl ThreadWorker {
    /// Creates worker thread `idx`, owning every connection the shared
    /// table assigns to `idx`: none at start-up, the dead thread's when it
    /// replaces a crashed one. Their descriptors are in the shared table,
    /// so the thread adopts them in place for one table operation each,
    /// where a replacement process needs the supervisor to pass them again.
    pub fn new(idx: usize, shared: Shared, threads: ThreadShared, notify_chan: ChanId) -> Self {
        let orphans: Vec<(u64, Fd, SockAddr)> = {
            let conns = shared.conns.borrow();
            let registry = threads.fd_registry.borrow();
            conns
                .owned_by(idx)
                .into_iter()
                .filter_map(|id| Some((id.0, *registry.get(&id.0)?, conns.get(id)?.peer)))
                .collect()
        };
        let mut worker = ThreadWorker {
            idx,
            shared,
            threads,
            notify_chan,
            notify_fd: Fd(u32::MAX),
            streams: Streams::default(),
            out_q: VecDeque::new(),
            send: None,
            script: VecDeque::new(),
            phase: TWkrPhase::Start,
        };
        for (conn, fd, peer) in orphans {
            worker.streams.adopt(conn, fd, peer);
            worker.shared.table_op(&mut worker.script);
            worker.shared.core.borrow_mut().stats.conns_reassigned += 1;
        }
        worker
    }

    /// Closes a connection that died under this thread and forgets it.
    fn conn_died(&mut self, conn: u64, fd: Fd) {
        // Single close: the descriptor table is shared, so this is the
        // only copy to release.
        if self
            .threads
            .fd_registry
            .borrow_mut()
            .remove(&conn)
            .is_some()
        {
            self.script.push_back(Syscall::Close { fd });
        }
        self.shared.conns.borrow_mut().remove(ConnId(conn));
    }

    fn advance_send(&mut self, now: SimTime, last: &SysResult) -> Option<Syscall> {
        let mut job = self.send.take()?;
        let timeout = self.shared.cfg.idle_timeout;
        let syscall = loop {
            match job.state {
                TSendState::LockTable => {
                    job.state = TSendState::TableWork;
                    break Some(Syscall::LockAcquire {
                        lock: self.shared.locks.conn,
                    });
                }
                TSendState::TableWork => {
                    let mut conns = self.shared.conns.borrow_mut();
                    job.conn = conns
                        .lookup_peer(job.out.dest)
                        .or_else(|| job.out.alt.and_then(|a| conns.lookup_peer(a)));
                    let mut ns = self.shared.cfg.app_costs.conn_table_op;
                    if let Some(id) = job.conn {
                        conns.touch(id, now, timeout);
                        if self.shared.cfg.idle_strategy == IdleStrategy::PriorityQueue {
                            ns += self.shared.cfg.app_costs.pq_update;
                        }
                    }
                    drop(conns);
                    let registry = self.threads.fd_registry.borrow();
                    job.fd = job.conn.and_then(|id| registry.get(&id.0).copied());
                    job.state = TSendState::Unlock;
                    break Some(Syscall::Compute {
                        ns,
                        tag: tags::CONN_HASH,
                    });
                }
                TSendState::Unlock => {
                    job.state = if job.fd.is_some() {
                        TSendState::LockStripe
                    } else {
                        TSendState::Connecting
                    };
                    break Some(Syscall::LockRelease {
                        lock: self.shared.locks.conn,
                    });
                }
                TSendState::Connecting => {
                    if !job.failed {
                        job.failed = true; // marks the connect as issued
                        let target = job.out.alt.unwrap_or(job.out.dest);
                        self.shared.core.borrow_mut().stats.outbound_connects += 1;
                        break Some(Syscall::TcpConnect { to: target });
                    }
                    match last {
                        SysResult::NewFd(fd) => {
                            let target = job.out.alt.unwrap_or(job.out.dest);
                            let id = self
                                .shared
                                .conns
                                .borrow_mut()
                                .insert(now, target, self.idx, timeout);
                            self.threads.fd_registry.borrow_mut().insert(id.0, *fd);
                            self.streams.adopt(id.0, *fd, target);
                            job.conn = Some(id);
                            job.fd = Some(*fd);
                            job.state = TSendState::LockStripe;
                            continue;
                        }
                        SysResult::Err(_) => {
                            self.shared.core.borrow_mut().stats.send_errors += 1;
                            self.send = None;
                            return None;
                        }
                        other => panic!("connect result expected, got {other:?}"),
                    }
                }
                TSendState::LockStripe => {
                    job.state = TSendState::Sending;
                    let lock = self.threads.write_lock_for(job.conn.expect("resolved").0);
                    break Some(Syscall::LockAcquire { lock });
                }
                TSendState::Sending => {
                    job.state = TSendState::UnlockStripe;
                    break Some(Syscall::TcpSend {
                        fd: job.fd.expect("resolved"),
                        data: job.out.bytes.clone(),
                    });
                }
                TSendState::UnlockStripe => {
                    if matches!(last, SysResult::Err(_)) {
                        self.shared.core.borrow_mut().stats.send_errors += 1;
                    }
                    let lock = self.threads.write_lock_for(job.conn.expect("resolved").0);
                    self.send = None;
                    return Some(Syscall::LockRelease { lock });
                }
            }
        };
        self.send = Some(job);
        syscall
    }

    fn next_action(&mut self, now: SimTime) -> Syscall {
        loop {
            if let Some(s) = self.script.pop_front() {
                self.phase = TWkrPhase::Io(Io::Script);
                return s;
            }
            if self.send.is_some() {
                if let Some(s) = self.advance_send(now, &SysResult::Done) {
                    self.phase = TWkrPhase::Send;
                    return s;
                }
                continue;
            }
            if let Some(out) = self.out_q.pop_front() {
                self.send = Some(TSendJob {
                    out,
                    state: TSendState::LockTable,
                    conn: None,
                    fd: None,
                    failed: false,
                });
                continue;
            }
            let (shared, script, out_q) = (&self.shared, &mut self.script, &mut self.out_q);
            if self
                .streams
                .serve_next(shared, script, out_q, self.idx, now)
            {
                continue;
            }
            match self.streams.next_ready() {
                Some(Next::Ctl) => {
                    self.phase = TWkrPhase::NotifyRecv;
                    return Syscall::IpcRecv { fd: self.notify_fd };
                }
                Some(Next::Recv(recv, io)) => {
                    self.phase = TWkrPhase::Io(io);
                    return recv;
                }
                None => {}
            }
            self.phase = TWkrPhase::Io(Io::Poll);
            return self.streams.poll(self.notify_fd, None);
        }
    }
}

impl Process for ThreadWorker {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, TWkrPhase::Io(Io::Script)) {
            TWkrPhase::Start => {
                self.phase = TWkrPhase::Attach;
                Syscall::IpcAttach {
                    chan: self.notify_chan,
                    side: Side::B,
                }
            }
            TWkrPhase::Attach => {
                self.notify_fd = last.expect_fd();
                self.next_action(ctx.now)
            }
            TWkrPhase::NotifyRecv => {
                match last {
                    SysResult::Ipc(msg) => match msg.kind {
                        MSG_NEW_CONN => {
                            let fd = self.threads.fd_registry.borrow().get(&msg.a).copied();
                            if let Some(fd) = fd {
                                self.streams.adopt(msg.a, fd, decode_addr(msg.b));
                            }
                        }
                        MSG_CONN_DEAD => {
                            // Acceptor already closed the shared fd.
                            self.streams.release(msg.a);
                        }
                        other => panic!("thread worker got ipc kind {other}"),
                    },
                    other => panic!("notify recv got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            TWkrPhase::Io(io) => {
                let (shared, script) = (&self.shared, &mut self.script);
                if let Some((conn, fd)) =
                    self.streams
                        .resume(shared, script, self.notify_fd, ctx.now, io, last)
                {
                    self.conn_died(conn, fd);
                }
                self.next_action(ctx.now)
            }
            TWkrPhase::Send => {
                if let Some(s) = self.advance_send(ctx.now, &last) {
                    self.phase = TWkrPhase::Send;
                    return s;
                }
                self.next_action(ctx.now)
            }
        }
    }
}
