//! The TCP architecture (§3.1): one supervisor, many workers, descriptors
//! passed over IPC.
//!
//! The supervisor accepts every connection, records it in the shared
//! connection table, and assigns ownership to a worker by passing the
//! socket descriptor over a bounded unix-socket channel. Only the owner
//! reads the connection (TCP has no message boundaries). To *write* to a
//! connection it does not own, a worker asks the supervisor for a
//! descriptor over blocking IPC and — in the baseline — **closes it again
//! after one send** (the paper's first bottleneck, §5.1). The §5.2 fix adds
//! a per-worker descriptor cache in front of that request path.
//!
//! Idle connections are closed in two steps: the owning worker notices an
//! idle connection during its periodic hunt, closes its descriptor, and
//! *returns* the connection; the supervisor waits another timeout and then
//! destroys the object. The hunt is a full walk of the table under its lock
//! in the baseline (the §5.2 bottleneck) or a priority-queue pop in the
//! §5.3 fix.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::rc::Rc;

use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;
use siperf_simos::ipc::{ChanId, Side};
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, IpcMsg, SysResult, Syscall};

use crate::config::IdleStrategy;
use crate::conn::ConnId;
use crate::core::Outgoing;
use crate::plumbing::{decode_addr, encode_addr, locked, tags, Shared};
use crate::stream::{Io, Next, Streams};

/// Supervisor → worker: a new connection with its descriptor.
pub const MSG_NEW_CONN: u32 = 1;
/// Worker → supervisor: request the descriptor for a connection.
pub const MSG_FD_REQ: u32 = 2;
/// Supervisor → worker: the requested descriptor (b=1) or not found (b=0).
pub const MSG_FD_RESP: u32 = 3;
/// Worker → supervisor: idle connection returned (worker closed its fd).
pub const MSG_CONN_RETURN: u32 = 4;
/// Worker → supervisor: connection died (EOF / reset).
pub const MSG_CONN_DEAD: u32 = 5;
/// Worker → supervisor: a worker-opened outbound connection (with fd).
pub const MSG_NEW_OUTBOUND: u32 = 6;

/// Out-of-band notifications from the spawner's fault-injection path to the
/// supervisor, delivered through shared memory (the supervisor observes
/// `SIGCHLD`-style events on its next loop pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorCtl {
    /// Worker `idx` was killed and respawned; its owned connections must be
    /// re-assigned (the supervisor still holds their descriptors).
    WorkerRespawned(usize),
}

/// The supervisor's crash/respawn notification queue.
pub type CtlQueue = Rc<RefCell<VecDeque<SupervisorCtl>>>;

// ===================================================================
// Supervisor
// ===================================================================

enum SupPhase {
    Start,
    AttachAssign(usize),
    AttachReq(usize),
    Listen,
    Poll,
    Accept,
    ReqRecv(usize),
    Script,
}

enum SupReady {
    Listener,
    Req(usize),
}

/// The connection-management supervisor process (OpenSER's `tcp_main`).
pub struct Supervisor {
    shared: Shared,
    ctl: CtlQueue,
    assign_chans: Vec<ChanId>,
    req_chans: Vec<ChanId>,
    assign_fds: Vec<Fd>,
    req_fds: Vec<Fd>,
    listener: Fd,
    /// The supervisor's own descriptor for every connection it knows.
    fd_of_conn: HashMap<u64, Fd>,
    rr: usize,
    pending: VecDeque<SupReady>,
    script: VecDeque<Syscall>,
    phase: SupPhase,
    last_scan: SimTime,
    /// Set when the main loop has handled work since the last timeout scan;
    /// OpenSER's tcp_main re-checks timeouts per loop pass, so an *idle*
    /// supervisor only housekeeps on a slow tick.
    worked_since_scan: bool,
}

impl Supervisor {
    /// Creates the supervisor; channels are created by the spawner.
    pub fn new(
        shared: Shared,
        ctl: CtlQueue,
        assign_chans: Vec<ChanId>,
        req_chans: Vec<ChanId>,
    ) -> Self {
        assert_eq!(assign_chans.len(), req_chans.len());
        Supervisor {
            shared,
            ctl,
            assign_chans,
            req_chans,
            assign_fds: Vec::new(),
            req_fds: Vec::new(),
            listener: Fd(u32::MAX),
            fd_of_conn: HashMap::new(),
            rr: 0,
            pending: VecDeque::new(),
            script: VecDeque::new(),
            phase: SupPhase::Start,
            last_scan: SimTime::ZERO,
            worked_since_scan: false,
        }
    }

    /// The idle supervisor's housekeeping tick.
    const HOUSEKEEPING: SimDuration = SimDuration::from_millis(500);

    fn workers(&self) -> usize {
        self.assign_chans.len()
    }

    fn handle_accept(&mut self, now: SimTime, fd: Fd, peer: SockAddr) {
        let timeout = self.shared.cfg.idle_timeout;
        let worker = self.rr % self.workers();
        self.rr += 1;
        let id = self
            .shared
            .conns
            .borrow_mut()
            .insert(now, peer, worker, timeout);
        self.fd_of_conn.insert(id.0, fd);
        self.shared.core.borrow_mut().stats.conns_assigned += 1;
        self.shared.table_op(&mut self.script);
        // Assign ownership: pass our descriptor (the kernel dups it; we
        // keep our copy, as OpenSER does). This send BLOCKS when the
        // worker's queue is full — the §6 deadlock ingredient.
        self.script.push_back(Syscall::IpcSend {
            fd: self.assign_fds[worker],
            msg: IpcMsg::with_fd(MSG_NEW_CONN, id.0, encode_addr(peer), fd),
        });
    }

    fn handle_req(&mut self, now: SimTime, worker: usize, msg: IpcMsg) {
        match msg.kind {
            MSG_FD_REQ => {
                let conn = msg.a;
                self.shared.table_op(&mut self.script);
                let reply = match self.fd_of_conn.get(&conn) {
                    Some(&fd) => IpcMsg::with_fd(MSG_FD_RESP, conn, 1, fd),
                    None => IpcMsg::new(MSG_FD_RESP, conn, 0),
                };
                self.script.push_back(Syscall::IpcSend {
                    fd: self.req_fds[worker],
                    msg: reply,
                });
            }
            MSG_CONN_RETURN => {
                let timeout = self.shared.cfg.idle_timeout;
                self.shared
                    .conns
                    .borrow_mut()
                    .mark_returned(ConnId(msg.a), now, timeout);
                self.shared.core.borrow_mut().stats.conns_returned += 1;
                self.shared.table_op(&mut self.script);
            }
            MSG_CONN_DEAD => {
                self.shared.table_op(&mut self.script);
                self.destroy(ConnId(msg.a));
            }
            MSG_NEW_OUTBOUND => {
                // Object was inserted by the worker; we keep the passed
                // descriptor so other workers can request it.
                if let Some(fd) = msg.fd {
                    self.fd_of_conn.insert(msg.a, fd);
                }
            }
            other => panic!("supervisor got unexpected ipc kind {other}"),
        }
    }

    /// Re-assigns every connection still owned by a respawned worker: the
    /// supervisor re-sends `MSG_NEW_CONN` with its own descriptor copy, so
    /// the fresh process can resume reading where the crashed one stopped.
    /// Connections whose descriptor the supervisor no longer holds cannot
    /// be handed over and are destroyed.
    fn reassign_worker(&mut self, worker: usize) {
        let ids = self.shared.conns.borrow().owned_by(worker);
        for id in ids {
            let peer = match self.shared.conns.borrow().get(id) {
                Some(obj) => obj.peer,
                None => continue,
            };
            self.shared.table_op(&mut self.script);
            match self.fd_of_conn.get(&id.0).copied() {
                Some(fd) => {
                    self.shared.core.borrow_mut().stats.conns_reassigned += 1;
                    self.script.push_back(Syscall::IpcSend {
                        fd: self.assign_fds[worker],
                        msg: IpcMsg::with_fd(MSG_NEW_CONN, id.0, encode_addr(peer), fd),
                    });
                }
                None => self.destroy(id),
            }
        }
    }

    /// Destroys a connection object and closes the supervisor's descriptor.
    fn destroy(&mut self, id: ConnId) {
        self.shared.conns.borrow_mut().remove(id);
        if let Some(fd) = self.fd_of_conn.remove(&id.0) {
            self.script.push_back(Syscall::Close { fd });
        }
        self.shared.core.borrow_mut().stats.conns_destroyed += 1;
    }

    fn next_action(&mut self, now: SimTime) -> Syscall {
        // Crash notifications first: a respawned worker must get its
        // connections back before they can starve to their idle timeout.
        loop {
            let ctl = self.ctl.borrow_mut().pop_front();
            match ctl {
                Some(SupervisorCtl::WorkerRespawned(w)) => {
                    self.worked_since_scan = true;
                    self.reassign_worker(w);
                }
                None => break,
            }
        }
        if let Some(s) = self.script.pop_front() {
            self.phase = SupPhase::Script;
            return s;
        }
        match self.pending.pop_front() {
            Some(SupReady::Listener) => {
                self.worked_since_scan = true;
                self.phase = SupPhase::Accept;
                return Syscall::TcpAccept { fd: self.listener };
            }
            Some(SupReady::Req(w)) => {
                self.worked_since_scan = true;
                self.phase = SupPhase::ReqRecv(w);
                return Syscall::IpcRecv {
                    fd: self.req_fds[w],
                };
            }
            None => {}
        }
        // Timeout scan: per loop pass while the loop has work (with a small
        // floor so back-to-back events do not each pay a full walk), or on
        // the slow housekeeping tick when idle.
        let busy_due = self.worked_since_scan
            && now >= self.last_scan + self.shared.cfg.supervisor_scan_interval;
        let tick_due = now >= self.last_scan + Self::HOUSEKEEPING;
        if busy_due || tick_due {
            self.last_scan = now;
            self.worked_since_scan = false;
            // `to_return` is the workers' job; the supervisor destroys what
            // has been returned for a full further timeout.
            for id in self.shared.hunt(&mut self.script, now).to_destroy {
                self.destroy(id);
            }
            self.phase = SupPhase::Script;
            return self.script.pop_front().expect("idle pass emits syscalls");
        }
        let mut fds = Vec::with_capacity(1 + self.req_fds.len());
        fds.push(self.listener);
        fds.extend_from_slice(&self.req_fds);
        self.phase = SupPhase::Poll;
        let wake = if self.worked_since_scan {
            (self.last_scan + self.shared.cfg.supervisor_scan_interval).max(now)
        } else {
            (self.last_scan + Self::HOUSEKEEPING).max(now)
        };
        Syscall::Poll {
            fds,
            timeout: Some(wake - now),
        }
    }
}

impl Process for Supervisor {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, SupPhase::Script) {
            SupPhase::Start => {
                self.phase = SupPhase::AttachAssign(0);
                Syscall::IpcAttach {
                    chan: self.assign_chans[0],
                    side: Side::A,
                }
            }
            SupPhase::AttachAssign(i) => {
                self.assign_fds.push(last.expect_fd());
                if i + 1 < self.workers() {
                    self.phase = SupPhase::AttachAssign(i + 1);
                    Syscall::IpcAttach {
                        chan: self.assign_chans[i + 1],
                        side: Side::A,
                    }
                } else {
                    self.phase = SupPhase::AttachReq(0);
                    Syscall::IpcAttach {
                        chan: self.req_chans[0],
                        side: Side::A,
                    }
                }
            }
            SupPhase::AttachReq(i) => {
                self.req_fds.push(last.expect_fd());
                if i + 1 < self.workers() {
                    self.phase = SupPhase::AttachReq(i + 1);
                    Syscall::IpcAttach {
                        chan: self.req_chans[i + 1],
                        side: Side::A,
                    }
                } else {
                    self.phase = SupPhase::Listen;
                    Syscall::TcpListen {
                        port: siperf_simnet::SIP_PORT,
                        backlog: 1024,
                    }
                }
            }
            SupPhase::Listen => {
                self.listener = last.expect_fd();
                self.last_scan = ctx.now;
                self.next_action(ctx.now)
            }
            SupPhase::Poll => {
                match last {
                    SysResult::Ready(fds) => {
                        for fd in fds {
                            if fd == self.listener {
                                self.pending.push_back(SupReady::Listener);
                            } else if let Some(w) = self.req_fds.iter().position(|&r| r == fd) {
                                self.pending.push_back(SupReady::Req(w));
                            }
                        }
                    }
                    SysResult::TimedOut => {}
                    other => panic!("supervisor poll got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            SupPhase::Accept => {
                match last {
                    SysResult::Accepted { fd, peer } => self.handle_accept(ctx.now, fd, peer),
                    SysResult::Err(_) => {
                        // Out of descriptors (the §4.3 starvation scenario):
                        // count and move on.
                        self.shared.core.borrow_mut().stats.send_errors += 1;
                    }
                    other => panic!("supervisor accept got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            SupPhase::ReqRecv(w) => {
                match last {
                    SysResult::Ipc(msg) => self.handle_req(ctx.now, w, msg),
                    other => panic!("supervisor ipc recv got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            SupPhase::Script => {
                if let SysResult::Err(_) = last {
                    self.shared.core.borrow_mut().stats.send_errors += 1;
                }
                self.next_action(ctx.now)
            }
        }
    }
}

// ===================================================================
// Worker
// ===================================================================

enum SendState {
    /// Acquire the connection-table lock.
    LockTable,
    /// Table work done host-side; compute charged.
    TableWork,
    /// Release the lock; afterwards decide the send path.
    Unlock,
    /// The `tcpconn_get_fd` marker compute before the IPC round trip.
    GetFdMarker,
    /// fd request sent; awaiting the blocking receive.
    FdReqSent,
    /// Blocking receive issued.
    AwaitFdResp,
    /// Outbound connect issued.
    Connecting,
    /// Post-connect table registration (lock).
    PostConnLock,
    /// Post-connect table registration (compute).
    PostConnWork,
    /// Post-connect table registration (unlock).
    PostConnUnlock,
    /// Announce the outbound connection to the supervisor.
    Announce,
    /// TcpSend issued.
    Sending,
    /// Baseline: closing the requested descriptor after one send.
    Closing,
}

struct SendJob {
    out: Outgoing,
    state: SendState,
    conn: Option<ConnId>,
    fd: Option<Fd>,
    fd_from_request: bool,
}

enum WkrPhase {
    Start,
    AttachAssign,
    AttachReq,
    AssignRecv,
    Io(Io),
    Send,
}

/// One TCP worker process (OpenSER's `tcp_receiver` children).
pub struct TcpWorker {
    idx: usize,
    shared: Shared,
    assign_chan: ChanId,
    req_chan: ChanId,
    assign_fd: Fd,
    req_fd: Fd,
    streams: Streams,
    /// The §5.2 per-worker descriptor cache.
    cache: HashMap<u64, Fd>,
    /// The §5.3 worker-local priority queue over owned connections, and
    /// each connection's latest stamp in it.
    local_heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    stamps: HashMap<u64, u64>,
    out_q: VecDeque<Outgoing>,
    send: Option<SendJob>,
    script: VecDeque<Syscall>,
    phase: WkrPhase,
    next_idle_check: SimTime,
}

impl TcpWorker {
    /// Creates worker `idx` speaking over its two channels.
    pub fn new(idx: usize, shared: Shared, assign_chan: ChanId, req_chan: ChanId) -> Self {
        TcpWorker {
            idx,
            shared,
            assign_chan,
            req_chan,
            assign_fd: Fd(u32::MAX),
            req_fd: Fd(u32::MAX),
            streams: Streams::default(),
            cache: HashMap::new(),
            local_heap: BinaryHeap::new(),
            stamps: HashMap::new(),
            out_q: VecDeque::new(),
            send: None,
            script: VecDeque::new(),
            phase: WkrPhase::Start,
            next_idle_check: SimTime::ZERO,
        }
    }

    fn costs(&self) -> &crate::config::AppCostModel {
        &self.shared.cfg.app_costs
    }

    fn pq_mode(&self) -> bool {
        self.shared.cfg.idle_strategy == IdleStrategy::PriorityQueue
    }

    fn adopt(&mut self, now: SimTime, conn: u64, fd: Fd, peer: SockAddr) {
        self.streams.adopt(conn, fd, peer);
        self.stamps.remove(&conn);
        self.touch_local(now, conn);
    }

    fn touch_local(&mut self, now: SimTime, conn: u64) {
        if self.pq_mode() && self.streams.owns(conn) {
            let stamp = self.stamps.entry(conn).or_default();
            *stamp += 1;
            let expires = now + self.shared.cfg.idle_timeout;
            self.local_heap.push(Reverse((expires, conn, *stamp)));
        }
    }

    /// Advances the in-flight send job; `None` means it finished.
    fn advance_send(&mut self, now: SimTime, last: &SysResult) -> Option<Syscall> {
        let mut job = self.send.take()?;
        let timeout = self.shared.cfg.idle_timeout;
        let syscall = loop {
            match job.state {
                SendState::LockTable => {
                    job.state = SendState::TableWork;
                    break Some(Syscall::LockAcquire {
                        lock: self.shared.locks.conn,
                    });
                }
                SendState::TableWork => {
                    // Host-side: resolve the destination to a connection and
                    // touch it; charge hash (+ heap reposition in PQ mode,
                    // + cache probe when the fd cache is enabled).
                    let mut conns = self.shared.conns.borrow_mut();
                    job.conn = conns
                        .lookup_peer(job.out.dest)
                        .or_else(|| job.out.alt.and_then(|a| conns.lookup_peer(a)));
                    let mut ns = self.costs().conn_table_op;
                    if let Some(id) = job.conn {
                        conns.touch(id, now, timeout);
                        if self.pq_mode() {
                            ns += self.costs().pq_update;
                        }
                    }
                    drop(conns);
                    if let Some(id) = job.conn {
                        self.touch_local(now, id.0);
                    }
                    if self.shared.cfg.fd_cache {
                        ns += self.costs().fd_cache_lookup;
                    }
                    job.state = SendState::Unlock;
                    break Some(Syscall::Compute {
                        ns,
                        tag: tags::CONN_HASH,
                    });
                }
                SendState::Unlock => {
                    job.state = match job.conn {
                        Some(id) => {
                            if let Some(fd) = self.streams.fd(id.0) {
                                // We own it: send directly on our fd.
                                job.fd = Some(fd);
                                SendState::Sending
                            } else if let Some(&fd) = self
                                .shared
                                .cfg
                                .fd_cache
                                .then(|| self.cache.get(&id.0))
                                .flatten()
                            {
                                // §5.2: cache hit avoids the IPC round trip
                                // and the wait on the supervisor entirely.
                                job.fd = Some(fd);
                                self.shared.core.borrow_mut().stats.fd_cache_hits += 1;
                                SendState::Sending
                            } else {
                                SendState::GetFdMarker
                            }
                        }
                        None => SendState::Connecting,
                    };
                    break Some(Syscall::LockRelease {
                        lock: self.shared.locks.conn,
                    });
                }
                SendState::GetFdMarker => {
                    // The famous function: tcpconn_get_fd, where the worker
                    // blocks on the supervisor (§5.1: 12% of CPU time).
                    job.state = SendState::FdReqSent;
                    self.shared.core.borrow_mut().stats.fd_requests += 1;
                    break Some(Syscall::Compute {
                        ns: 800,
                        tag: tags::GET_FD,
                    });
                }
                SendState::FdReqSent => {
                    job.state = SendState::AwaitFdResp;
                    break Some(Syscall::IpcSend {
                        fd: self.req_fd,
                        msg: IpcMsg::new(MSG_FD_REQ, job.conn.expect("have conn").0, 0),
                    });
                }
                SendState::AwaitFdResp => {
                    match last {
                        SysResult::Done => {
                            // The send completed; now block for the answer.
                            break Some(Syscall::IpcRecv { fd: self.req_fd });
                        }
                        SysResult::Ipc(msg) => {
                            assert_eq!(msg.kind, MSG_FD_RESP);
                            if msg.b == 1 {
                                let fd = msg.fd.expect("fd attached");
                                job.fd = Some(fd);
                                job.fd_from_request = true;
                                if self.shared.cfg.fd_cache {
                                    self.cache.insert(job.conn.expect("conn").0, fd);
                                }
                                job.state = SendState::Sending;
                            } else {
                                // Connection destroyed meanwhile: fall back
                                // to an outbound connect.
                                job.conn = None;
                                job.state = SendState::Connecting;
                            }
                            continue;
                        }
                        other => panic!("fd response expected, got {other:?}"),
                    }
                }
                SendState::Connecting => {
                    let target = job.out.alt.unwrap_or(job.out.dest);
                    job.state = SendState::PostConnLock;
                    self.shared.core.borrow_mut().stats.outbound_connects += 1;
                    break Some(Syscall::TcpConnect { to: target });
                }
                SendState::PostConnLock => {
                    match last {
                        SysResult::NewFd(fd) => {
                            job.fd = Some(*fd);
                            job.state = SendState::PostConnWork;
                            break Some(Syscall::LockAcquire {
                                lock: self.shared.locks.conn,
                            });
                        }
                        SysResult::Err(_) => {
                            self.shared.core.borrow_mut().stats.send_errors += 1;
                            return None; // connect refused; drop the message
                        }
                        other => panic!("connect result expected, got {other:?}"),
                    }
                }
                SendState::PostConnWork => {
                    let target = job.out.alt.unwrap_or(job.out.dest);
                    let id = self
                        .shared
                        .conns
                        .borrow_mut()
                        .insert(now, target, self.idx, timeout);
                    job.conn = Some(id);
                    self.adopt(now, id.0, job.fd.expect("connected"), target);
                    job.state = SendState::PostConnUnlock;
                    break Some(Syscall::Compute {
                        ns: self.costs().conn_table_op,
                        tag: tags::CONN_HASH,
                    });
                }
                SendState::PostConnUnlock => {
                    job.state = SendState::Announce;
                    break Some(Syscall::LockRelease {
                        lock: self.shared.locks.conn,
                    });
                }
                SendState::Announce => {
                    job.state = SendState::Sending;
                    break Some(Syscall::IpcSend {
                        fd: self.req_fd,
                        msg: IpcMsg::with_fd(
                            MSG_NEW_OUTBOUND,
                            job.conn.expect("registered").0,
                            0,
                            job.fd.expect("connected"),
                        ),
                    });
                }
                SendState::Sending => {
                    let fd = job.fd.expect("resolved fd");
                    job.state = SendState::Closing;
                    break Some(Syscall::TcpSend {
                        fd,
                        data: job.out.bytes.clone(),
                    });
                }
                SendState::Closing => {
                    // Terminal state: the send's result is in. The job ends
                    // here; at most one trailing Close is issued.
                    self.send = None;
                    if matches!(last, SysResult::Err(_)) {
                        // Dead connection: drop the message, invalidate and
                        // release any descriptor we were holding for it.
                        self.shared.core.borrow_mut().stats.send_errors += 1;
                        if let Some(fd) = job.conn.and_then(|id| self.cache.remove(&id.0)) {
                            return Some(Syscall::Close { fd });
                        }
                        if job.fd_from_request {
                            return Some(Syscall::Close {
                                fd: job.fd.expect("had fd"),
                            });
                        }
                        return None;
                    }
                    // Baseline behaviour: a descriptor obtained through the
                    // supervisor is closed right after the send (§3.1) —
                    // unless the fd cache keeps it.
                    if job.fd_from_request && !self.shared.cfg.fd_cache {
                        return Some(Syscall::Close {
                            fd: job.fd.expect("had fd"),
                        });
                    }
                    return None;
                }
            }
        };
        self.send = Some(job);
        syscall
    }

    /// The worker-side idle hunt over the connections it owns: a walk of
    /// every owned connection's shared object in the baseline, pops of the
    /// worker-local heap under §5.3. Idle connections are closed and
    /// returned to the supervisor.
    fn idle_check(&mut self, now: SimTime) {
        let timeout = self.shared.cfg.idle_timeout;
        let mut expired: Vec<u64> = Vec::new();
        let examined = if self.pq_mode() {
            let mut pops = 0u64;
            while let Some(&Reverse((at, conn, stamp))) = self.local_heap.peek() {
                if at > now {
                    break;
                }
                self.local_heap.pop();
                pops += 1;
                if self.streams.owns(conn) && self.stamps.get(&conn) == Some(&stamp) {
                    expired.push(conn);
                }
            }
            pops
        } else {
            // Baseline: examine every owned connection, reading the shared
            // objects (under the table lock).
            let conns = self.shared.conns.borrow();
            expired.extend(self.streams.ids().filter(|&id| {
                conns
                    .get(ConnId(id))
                    .is_some_and(|obj| obj.expires_at(timeout) <= now)
            }));
            expired.sort_unstable();
            self.streams.len() as u64
        };
        self.shared.core.borrow_mut().stats.idle_scan_entries += examined;
        let ns = self
            .costs()
            .idle_hunt(self.shared.cfg.idle_strategy, examined, 300);
        locked(&mut self.script, self.shared.locks.conn, ns, tags::IDLE);
        for conn in expired {
            if let Some(fd) = self.streams.release(conn) {
                self.stamps.remove(&conn);
                self.script.push_back(Syscall::Close { fd });
                self.script.push_back(Syscall::IpcSend {
                    fd: self.req_fd,
                    msg: IpcMsg::new(MSG_CONN_RETURN, conn, 0),
                });
            }
        }
        // Sweep the fd cache: cached descriptors whose connection object is
        // gone would otherwise pin dead sockets open forever.
        if !self.cache.is_empty() {
            let mut dead: Vec<u64> = {
                let conns = self.shared.conns.borrow();
                self.cache
                    .keys()
                    .filter(|&&c| conns.get(ConnId(c)).is_none())
                    .copied()
                    .collect()
            };
            // Close in id order, not HashMap order, for reproducibility.
            dead.sort_unstable();
            for conn in dead {
                if let Some(fd) = self.cache.remove(&conn) {
                    self.script.push_back(Syscall::Close { fd });
                }
            }
        }
    }

    /// Closes a connection that died under the worker and tells the
    /// supervisor.
    fn conn_died(&mut self, conn: u64, fd: Fd) {
        self.stamps.remove(&conn);
        self.cache.remove(&conn);
        self.script.push_back(Syscall::Close { fd });
        self.script.push_back(Syscall::IpcSend {
            fd: self.req_fd,
            msg: IpcMsg::new(MSG_CONN_DEAD, conn, 0),
        });
    }

    fn next_action(&mut self, now: SimTime) -> Syscall {
        loop {
            if let Some(s) = self.script.pop_front() {
                self.phase = WkrPhase::Io(Io::Script);
                return s;
            }
            if self.send.is_some() {
                // (Re)enter the send machine with a neutral result.
                if let Some(s) = self.advance_send(now, &SysResult::Done) {
                    self.phase = WkrPhase::Send;
                    return s;
                }
                continue;
            }
            if let Some(out) = self.out_q.pop_front() {
                self.send = Some(SendJob {
                    out,
                    state: SendState::LockTable,
                    conn: None,
                    fd: None,
                    fd_from_request: false,
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
                    self.phase = WkrPhase::AssignRecv;
                    return Syscall::IpcRecv { fd: self.assign_fd };
                }
                Some(Next::Recv(recv, io)) => {
                    self.phase = WkrPhase::Io(io);
                    return recv;
                }
                None => {}
            }
            if now >= self.next_idle_check {
                self.next_idle_check = now + self.shared.cfg.idle_check_interval;
                self.idle_check(now);
                continue;
            }
            self.phase = WkrPhase::Io(Io::Poll);
            let timeout = self.next_idle_check - now;
            return self.streams.poll(self.assign_fd, Some(timeout));
        }
    }
}

impl Process for TcpWorker {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, WkrPhase::Io(Io::Script)) {
            WkrPhase::Start => {
                self.phase = WkrPhase::AttachAssign;
                Syscall::IpcAttach {
                    chan: self.assign_chan,
                    side: Side::B,
                }
            }
            WkrPhase::AttachAssign => {
                self.assign_fd = last.expect_fd();
                self.phase = WkrPhase::AttachReq;
                Syscall::IpcAttach {
                    chan: self.req_chan,
                    side: Side::B,
                }
            }
            WkrPhase::AttachReq => {
                self.req_fd = last.expect_fd();
                self.next_idle_check = ctx.now + self.shared.cfg.idle_check_interval;
                self.next_action(ctx.now)
            }
            WkrPhase::AssignRecv => {
                match last {
                    SysResult::Ipc(msg) => {
                        assert_eq!(msg.kind, MSG_NEW_CONN, "assign channel protocol");
                        let fd = msg.fd.expect("new conn carries its fd");
                        self.adopt(ctx.now, msg.a, fd, decode_addr(msg.b));
                    }
                    other => panic!("assign recv got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            WkrPhase::Io(io) => {
                if let (Io::Recv(conn), SysResult::Data(_)) = (io, &last) {
                    self.touch_local(ctx.now, conn);
                }
                let (shared, script) = (&self.shared, &mut self.script);
                if let Some((conn, fd)) =
                    self.streams
                        .resume(shared, script, self.assign_fd, ctx.now, io, last)
                {
                    self.conn_died(conn, fd);
                }
                self.next_action(ctx.now)
            }
            WkrPhase::Send => {
                if let Some(s) = self.advance_send(ctx.now, &last) {
                    self.phase = WkrPhase::Send;
                    return s;
                }
                self.next_action(ctx.now)
            }
        }
    }
}
