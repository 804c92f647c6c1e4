//! Wiring a complete proxy into the simulated kernel.
//!
//! [`spawn_proxy`] builds the shared state, locks, and IPC channels for the
//! configured architecture, spawns every process (workers, supervisor or
//! acceptor, timer), and hands back a [`ProxyHandle`] for observing the run.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use siperf_simnet::addr::{HostId, SockAddr};
use siperf_simnet::SIP_PORT;
use siperf_simos::kernel::Kernel;
use siperf_simos::process::ProcId;
use siperf_simos::syscall::Fd;

use siperf_simos::ipc::ChanId;

use crate::config::{Arch, IdleStrategy, ProxyConfig, Transport};
use crate::conn::ConnTable;
use crate::core::{ProxyCore, ProxyStats};
use crate::msg::MsgWorker;
use crate::plumbing::Locks;
use crate::tcp::{Supervisor, SupervisorCtl, TcpShared, TcpWorker};
use crate::threaded::{Acceptor, ThreadShared, ThreadWorker};
use crate::timer::TimerProc;
use crate::util::addr_to_host_str;

/// Number of striped per-connection write locks in the threaded mode.
const WRITE_LOCK_STRIPES: usize = 16;

/// Architecture-specific state the fault-injection respawn path needs to
/// rebuild a crashed process in place.
enum RespawnCtx {
    /// UDP/SCTP symmetric workers: each worker's shared-socket descriptor
    /// slot (SCTP keeps one extra trailing slot for the timer process,
    /// which then doubles as a donor descriptor).
    Msg { slots: Vec<Rc<Cell<Option<Fd>>>> },
    /// TCP multi-process: everything a `TcpWorker`/`Supervisor` is built
    /// from.
    TcpMulti {
        shared: TcpShared,
        assign_chans: Vec<ChanId>,
        req_chans: Vec<ChanId>,
    },
    /// TCP multi-thread: worker threads hang off the acceptor.
    TcpThread {
        shared: ThreadShared,
        notify_chans: Vec<ChanId>,
    },
}

/// Observer handle over a spawned proxy.
pub struct ProxyHandle {
    /// The routing engine and statistics.
    pub core: Rc<RefCell<ProxyCore>>,
    /// The shared TCP connection table (empty under UDP/SCTP).
    pub conns: Rc<RefCell<ConnTable>>,
    /// The server host.
    pub host: HostId,
    /// The proxy's SIP address.
    pub addr: SockAddr,
    /// The shared-memory locks, for contention reports.
    pub locks: Locks,
    /// Worker process ids.
    pub workers: Vec<ProcId>,
    /// The supervisor (TCP multi-process) or acceptor (threaded) process.
    pub supervisor: Option<ProcId>,
    /// The timer process.
    pub timer: Option<ProcId>,
    /// The configuration the proxy was spawned with.
    pub cfg: Rc<ProxyConfig>,
    respawn: RespawnCtx,
}

impl ProxyHandle {
    /// Snapshot of the proxy's statistics.
    pub fn stats(&self) -> ProxyStats {
        self.core.borrow().stats
    }

    /// Live connection-object count.
    pub fn open_conns(&self) -> usize {
        self.conns.borrow().len()
    }

    /// Crashes worker `idx` (wrapping) and respawns a replacement in place,
    /// exactly as OpenSER's main process re-forks a dead child.
    ///
    /// Under UDP/SCTP the replacement inherits the shared SIP socket from a
    /// surviving sibling (or rebinds it if none survived). Under the TCP
    /// multi-process architecture the supervisor is notified and re-assigns
    /// the dead worker's connections to the replacement over IPC. Returns
    /// the new worker's pid.
    pub fn respawn_worker(&mut self, kernel: &mut Kernel, idx: usize) -> ProcId {
        let idx = idx % self.workers.len();
        kernel.kill(self.workers[idx]);
        let pid = match &mut self.respawn {
            RespawnCtx::Msg { slots } => {
                let slot: Rc<Cell<Option<Fd>>> = Rc::new(Cell::new(None));
                let worker = MsgWorker::new(
                    self.cfg.transport,
                    self.core.clone(),
                    self.cfg.app_costs.clone(),
                    self.locks,
                    slot.clone(),
                );
                let pid = kernel.spawn(
                    self.host,
                    self.cfg.worker_nice,
                    msg_worker_name(self.cfg.transport, idx),
                    Box::new(worker),
                );
                // Donor search: any surviving process holding the shared
                // socket (siblings first, then the SCTP timer's slot).
                let mut donor = None;
                for (j, &wpid) in self.workers.iter().enumerate() {
                    if j != idx && kernel.alive(wpid) {
                        if let Some(fd) = slots[j].get() {
                            donor = Some((wpid, fd));
                            break;
                        }
                    }
                }
                if donor.is_none() && slots.len() > self.workers.len() {
                    if let (Some(tpid), Some(fd)) = (self.timer, slots[self.workers.len()].get()) {
                        if kernel.alive(tpid) {
                            donor = Some((tpid, fd));
                        }
                    }
                }
                let fd = match donor {
                    Some((dpid, dfd)) => kernel
                        .dup_to(dpid, dfd, pid)
                        .expect("donor descriptor is live"),
                    None => {
                        // Every holder died: the socket is gone, bind anew.
                        let mt = self
                            .cfg
                            .transport
                            .msg_transport()
                            .expect("message transport");
                        kernel
                            .setup_shared(mt, self.host, SIP_PORT, &[pid])
                            .expect("rebind proxy socket")[0]
                    }
                };
                slot.set(Some(fd));
                slots[idx] = slot;
                pid
            }
            RespawnCtx::TcpMulti {
                shared,
                assign_chans,
                req_chans,
            } => {
                let pid = kernel.spawn(
                    self.host,
                    self.cfg.worker_nice,
                    format!("tcp_worker{idx}"),
                    Box::new(TcpWorker::new(
                        idx,
                        shared.clone(),
                        assign_chans[idx],
                        req_chans[idx],
                    )),
                );
                shared
                    .ctl
                    .borrow_mut()
                    .push_back(SupervisorCtl::WorkerRespawned(idx));
                pid
            }
            RespawnCtx::TcpThread {
                shared,
                notify_chans,
            } => kernel.spawn_thread(
                self.cfg.worker_nice,
                format!("worker_thread{idx}"),
                Box::new(ThreadWorker::new(idx, shared.clone(), notify_chans[idx])),
                self.supervisor.expect("threaded proxy has an acceptor"),
            ),
        };
        self.workers[idx] = pid;
        self.core.borrow_mut().stats.workers_respawned += 1;
        pid
    }

    /// Crashes and respawns the TCP multi-process supervisor.
    ///
    /// The replacement re-attaches the IPC channels, rebinds the listener,
    /// and starts with an **empty** descriptor cache — workers whose fd
    /// requests now miss fall back to outbound connects, as OpenSER does
    /// after `tcp_main` restarts. Returns the new pid, or `None` for
    /// architectures without a supervisor process.
    pub fn respawn_supervisor(&mut self, kernel: &mut Kernel) -> Option<ProcId> {
        let RespawnCtx::TcpMulti {
            shared,
            assign_chans,
            req_chans,
        } = &self.respawn
        else {
            return None;
        };
        let old = self.supervisor?;
        kernel.kill(old);
        let pid = kernel.spawn(
            self.host,
            self.cfg.supervisor_nice,
            "tcp_main",
            Box::new(Supervisor::new(
                shared.clone(),
                assign_chans.clone(),
                req_chans.clone(),
            )),
        );
        self.supervisor = Some(pid);
        self.core.borrow_mut().stats.workers_respawned += 1;
        Some(pid)
    }
}

/// Process name of symmetric worker `i`: `udp_worker{i}` or `sctp_worker{i}`.
fn msg_worker_name(transport: Transport, i: usize) -> String {
    format!("{}_worker{i}", transport.token().to_ascii_lowercase())
}

/// Builds and spawns a proxy on `host` per `cfg`.
///
/// # Panics
///
/// Panics if the SIP port cannot be bound — a configuration error at world
/// building time.
pub fn spawn_proxy(kernel: &mut Kernel, host: HostId, cfg: ProxyConfig) -> ProxyHandle {
    let cfg = Rc::new(cfg);
    let addr = SockAddr::new(host, SIP_PORT);
    let core = Rc::new(RefCell::new(ProxyCore::new(
        addr_to_host_str(addr),
        cfg.transport,
        cfg.stateful,
    )));
    core.borrow_mut().txn_linger = cfg.txn_linger;
    core.borrow_mut().set_overload_policy(cfg.overload.build());
    let conns = Rc::new(RefCell::new(match cfg.idle_strategy {
        IdleStrategy::LinearScan => ConnTable::new(),
        IdleStrategy::PriorityQueue => ConnTable::with_priority_queue(),
    }));
    let locks = Locks {
        txn: kernel.create_lock("txn_table"),
        usrloc: kernel.create_lock("usrloc"),
        timer: kernel.create_lock("timer_list"),
        conn: kernel.create_lock("tcpconn_hash"),
    };
    let n = cfg.worker_count();
    let mut workers = Vec::with_capacity(n);
    let mut supervisor = None;
    let timer;
    let respawn;

    match (cfg.transport, cfg.arch) {
        (Transport::Udp | Transport::Sctp, _) => {
            let mut slots = Vec::with_capacity(n + 1);
            for i in 0..n {
                let slot: Rc<Cell<Option<Fd>>> = Rc::new(Cell::new(None));
                let worker = MsgWorker::new(
                    cfg.transport,
                    core.clone(),
                    cfg.app_costs.clone(),
                    locks,
                    slot.clone(),
                );
                workers.push(kernel.spawn(
                    host,
                    cfg.worker_nice,
                    msg_worker_name(cfg.transport, i),
                    Box::new(worker),
                ));
                slots.push(slot);
            }
            // The UDP timer binds its own ephemeral socket; the SCTP timer
            // inherits the shared endpoint like a worker, which also makes
            // it a donor for respawned workers.
            let timer_slot = (cfg.transport == Transport::Sctp).then(|| Rc::new(Cell::new(None)));
            let timer_pid = kernel.spawn(
                host,
                cfg.worker_nice,
                "timer",
                Box::new(TimerProc::new(
                    core.clone(),
                    cfg.app_costs.clone(),
                    locks,
                    cfg.timer_tick,
                    cfg.transport,
                    timer_slot.clone(),
                )),
            );
            timer = Some(timer_pid);
            let mut pids = workers.clone();
            if let Some(slot) = timer_slot {
                slots.push(slot);
                pids.push(timer_pid);
            }
            let mt = cfg.transport.msg_transport().expect("message transport");
            let fds = kernel
                .setup_shared(mt, host, SIP_PORT, &pids)
                .expect("bind proxy SIP socket");
            for (slot, fd) in slots.iter().zip(fds) {
                slot.set(Some(fd));
            }
            respawn = RespawnCtx::Msg { slots };
        }
        (Transport::Tcp, Arch::MultiProcess) => {
            let assign_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let req_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let shared = TcpShared {
                core: core.clone(),
                conns: conns.clone(),
                cfg: cfg.clone(),
                locks,
                ctl: Rc::new(RefCell::new(Default::default())),
            };
            supervisor = Some(kernel.spawn(
                host,
                cfg.supervisor_nice,
                "tcp_main",
                Box::new(Supervisor::new(
                    shared.clone(),
                    assign_chans.clone(),
                    req_chans.clone(),
                )),
            ));
            for i in 0..n {
                workers.push(kernel.spawn(
                    host,
                    cfg.worker_nice,
                    format!("tcp_worker{i}"),
                    Box::new(TcpWorker::new(
                        i,
                        shared.clone(),
                        assign_chans[i],
                        req_chans[i],
                    )),
                ));
            }
            timer = Some(kernel.spawn(
                host,
                cfg.worker_nice,
                "timer",
                Box::new(TimerProc::new(
                    core.clone(),
                    cfg.app_costs.clone(),
                    locks,
                    cfg.timer_tick,
                    Transport::Tcp,
                    None,
                )),
            ));
            respawn = RespawnCtx::TcpMulti {
                shared,
                assign_chans,
                req_chans,
            };
        }
        (Transport::Tcp, Arch::MultiThread) => {
            let notify_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let write_locks: Vec<_> = (0..WRITE_LOCK_STRIPES)
                .map(|_| kernel.create_lock("conn_write"))
                .collect();
            let shared = ThreadShared {
                core: core.clone(),
                conns: conns.clone(),
                cfg: cfg.clone(),
                locks,
                write_locks: Rc::new(write_locks),
                fd_registry: Rc::new(RefCell::new(Default::default())),
            };
            let acceptor = kernel.spawn(
                host,
                cfg.supervisor_nice,
                "acceptor_thread",
                Box::new(Acceptor::new(shared.clone(), notify_chans.clone())),
            );
            supervisor = Some(acceptor);
            for (i, &chan) in notify_chans.iter().enumerate() {
                workers.push(kernel.spawn_thread(
                    cfg.worker_nice,
                    format!("worker_thread{i}"),
                    Box::new(ThreadWorker::new(i, shared.clone(), chan)),
                    acceptor,
                ));
            }
            timer = Some(kernel.spawn(
                host,
                cfg.worker_nice,
                "timer",
                Box::new(TimerProc::new(
                    core.clone(),
                    cfg.app_costs.clone(),
                    locks,
                    cfg.timer_tick,
                    Transport::Tcp,
                    None,
                )),
            ));
            respawn = RespawnCtx::TcpThread {
                shared,
                notify_chans,
            };
        }
    }

    ProxyHandle {
        core,
        conns,
        host,
        addr,
        locks,
        workers,
        supervisor,
        timer,
        cfg,
        respawn,
    }
}
