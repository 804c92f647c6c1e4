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

use crate::config::{Arch, ProxyConfig, Transport};
use crate::conn::ConnTable;
use crate::core::{ProxyCore, ProxyStats};
use crate::msg::MsgWorker;
use crate::plumbing::{Locks, Shared};
use crate::tcp::{CtlQueue, Supervisor, SupervisorCtl, TcpWorker};
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
    /// TCP multi-process: what a `TcpWorker`/`Supervisor` is built from
    /// besides the [`Shared`] state.
    TcpMulti {
        ctl: CtlQueue,
        assign_chans: Vec<ChanId>,
        req_chans: Vec<ChanId>,
    },
    /// TCP multi-thread: worker threads hang off the acceptor.
    TcpThread {
        threads: ThreadShared,
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
    pub timer: ProcId,
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

    fn shared(&self) -> Shared {
        Shared {
            core: self.core.clone(),
            conns: self.conns.clone(),
            cfg: self.cfg.clone(),
            locks: self.locks,
        }
    }

    /// Crashes worker `idx` (wrapping) and respawns a replacement in place,
    /// exactly as OpenSER's main process re-forks a dead child.
    ///
    /// Under UDP/SCTP the replacement inherits the shared SIP socket from a
    /// surviving sibling (or rebinds it if none survived). Under the TCP
    /// multi-process architecture the supervisor is notified and re-assigns
    /// the dead worker's connections to the replacement over IPC. Under the
    /// threaded architecture the replacement thread adopts the dead
    /// thread's connections from the shared descriptor table when it is
    /// built. Either TCP path counts `conns_reassigned`. Returns the new
    /// worker's pid.
    pub fn respawn_worker(&mut self, kernel: &mut Kernel, idx: usize) -> ProcId {
        let idx = idx % self.workers.len();
        kernel.kill(self.workers[idx]);
        let shared = self.shared();
        let pid = match &mut self.respawn {
            RespawnCtx::Msg { slots } => {
                let slot: Rc<Cell<Option<Fd>>> = Rc::new(Cell::new(None));
                let worker = MsgWorker::new(shared, slot.clone());
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
                    if let Some(fd) = slots[self.workers.len()].get() {
                        if kernel.alive(self.timer) {
                            donor = Some((self.timer, fd));
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
                ctl,
                assign_chans,
                req_chans,
            } => {
                let pid = kernel.spawn(
                    self.host,
                    self.cfg.worker_nice,
                    format!("tcp_worker{idx}"),
                    Box::new(TcpWorker::new(
                        idx,
                        shared,
                        assign_chans[idx],
                        req_chans[idx],
                    )),
                );
                ctl.borrow_mut()
                    .push_back(SupervisorCtl::WorkerRespawned(idx));
                pid
            }
            RespawnCtx::TcpThread {
                threads,
                notify_chans,
            } => kernel.spawn_thread(
                self.cfg.worker_nice,
                format!("worker_thread{idx}"),
                Box::new(ThreadWorker::new(
                    idx,
                    shared,
                    threads.clone(),
                    notify_chans[idx],
                )),
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
            ctl,
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
                self.shared(),
                ctl.clone(),
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
    let conns = Rc::new(RefCell::new(ConnTable::new(cfg.idle_strategy)));
    let locks = Locks {
        txn: kernel.create_lock("txn_table"),
        usrloc: kernel.create_lock("usrloc"),
        timer: kernel.create_lock("timer_list"),
        conn: kernel.create_lock("tcpconn_hash"),
    };
    let shared = Shared {
        core: core.clone(),
        conns: conns.clone(),
        cfg: cfg.clone(),
        locks,
    };
    let n = cfg.worker_count();
    let mut workers = Vec::with_capacity(n);
    let mut supervisor = None;

    let mut respawn = match (cfg.transport, cfg.arch) {
        (Transport::Udp | Transport::Sctp, _) => {
            let mut slots = Vec::with_capacity(n + 1);
            for i in 0..n {
                let slot: Rc<Cell<Option<Fd>>> = Rc::new(Cell::new(None));
                workers.push(kernel.spawn(
                    host,
                    cfg.worker_nice,
                    msg_worker_name(cfg.transport, i),
                    Box::new(MsgWorker::new(shared.clone(), slot.clone())),
                ));
                slots.push(slot);
            }
            RespawnCtx::Msg { slots }
        }
        (Transport::Tcp, Arch::MultiProcess) => {
            let assign_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let req_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let ctl = CtlQueue::default();
            supervisor = Some(kernel.spawn(
                host,
                cfg.supervisor_nice,
                "tcp_main",
                Box::new(Supervisor::new(
                    shared.clone(),
                    ctl.clone(),
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
            RespawnCtx::TcpMulti {
                ctl,
                assign_chans,
                req_chans,
            }
        }
        (Transport::Tcp, Arch::MultiThread) => {
            let notify_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let write_locks: Vec<_> = (0..WRITE_LOCK_STRIPES)
                .map(|_| kernel.create_lock("conn_write"))
                .collect();
            let threads = ThreadShared {
                write_locks: Rc::new(write_locks),
                fd_registry: Rc::new(RefCell::new(Default::default())),
            };
            let acceptor = kernel.spawn(
                host,
                cfg.supervisor_nice,
                "acceptor_thread",
                Box::new(Acceptor::new(
                    shared.clone(),
                    threads.clone(),
                    notify_chans.clone(),
                )),
            );
            supervisor = Some(acceptor);
            for (i, &chan) in notify_chans.iter().enumerate() {
                workers.push(kernel.spawn_thread(
                    cfg.worker_nice,
                    format!("worker_thread{i}"),
                    Box::new(ThreadWorker::new(i, shared.clone(), threads.clone(), chan)),
                    acceptor,
                ));
            }
            RespawnCtx::TcpThread {
                threads,
                notify_chans,
            }
        }
    };

    // The UDP timer binds its own ephemeral socket; the SCTP timer inherits
    // the shared endpoint like a worker, which also makes it a donor for
    // respawned workers; the TCP timer never sends.
    let endpoint = (cfg.transport == Transport::Sctp).then(|| Rc::new(Cell::new(None)));
    let timer = kernel.spawn(
        host,
        cfg.worker_nice,
        "timer",
        Box::new(TimerProc::new(shared, endpoint.clone())),
    );
    if let RespawnCtx::Msg { slots } = &mut respawn {
        let mut pids = workers.clone();
        if let Some(slot) = endpoint {
            slots.push(slot);
            pids.push(timer);
        }
        let mt = cfg.transport.msg_transport().expect("message transport");
        let fds = kernel
            .setup_shared(mt, host, SIP_PORT, &pids)
            .expect("bind proxy SIP socket");
        for (slot, fd) in slots.iter().zip(fds) {
            slot.set(Some(fd));
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
