//! The simulated kernel: scheduler, blocking syscalls, descriptors, IPC.
//!
//! [`Kernel`] ties everything together. It owns the network fabric, all
//! processes, the per-host CPU schedulers, IPC channels, and locks, and it
//! runs the single global event queue. The model it implements:
//!
//! * **Preemptive priority scheduling** on N cores per host. Ready queues
//!   are FIFO per nice level; a waking process preempts a strictly
//!   lower-priority running process; a process that keeps issuing syscalls
//!   keeps its core until its timeslice expires (Linux 2.6 O(1)-scheduler
//!   behaviour at the granularity that matters here). This is the machinery
//!   behind the paper's §4.3 supervisor-starvation finding.
//! * **Syscalls cost CPU**: every syscall is a charged burst on a core,
//!   attributed to a profile tag per host — reproducing the paper's
//!   OProfile evidence (§5).
//! * **Blocking semantics**: receive on empty, send on full (TCP
//!   backpressure and bounded IPC), accept on empty, connect until the
//!   handshake resolves. Blocked processes wake through readiness outcomes
//!   from the network or channel activity, then pay a scheduler wake cost
//!   and wait for a core — so IPC round-trip latency includes real queueing
//!   delay, the heart of the paper's TCP results.
//! * **Spinlock contention as sched_yield storms**, as OpenSER's userspace
//!   locks behave (§5.2).

use std::collections::{BTreeMap, HashMap, VecDeque};

use siperf_simcore::profile::Profiler;
use siperf_simcore::queue::EventQueue;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::HostId;
use siperf_simnet::endpoint::EpId;
use siperf_simnet::error::Errno;
use siperf_simnet::event::{NetEvent, NetOutcome};
use siperf_simnet::net::Network;
use siperf_simnet::NetConfig;

use crate::cost::CostModel;
use crate::ipc::{ChanId, Channel, Parcel, Side};
use crate::lock::{Lock, LockId};
use crate::process::{Nice, ProcId, Process, ResumeCtx};
use crate::syscall::{Fd, IpcMsg, MsgTransport, SysResult, Syscall};

/// What a descriptor refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdKind {
    /// A UDP socket or SCTP endpoint; the protocol was chosen at bind.
    Msg(MsgTransport, EpId),
    /// A TCP listening socket.
    TcpListen(EpId),
    /// A TCP connection.
    Tcp(EpId),
    /// One side of an IPC channel.
    Ipc(ChanId, Side),
}

impl FdKind {
    fn endpoint(self) -> Option<EpId> {
        match self {
            FdKind::Msg(_, e) | FdKind::TcpListen(e) | FdKind::Tcp(e) => Some(e),
            FdKind::Ipc(..) => None,
        }
    }
}

/// Why a process is not runnable.
#[derive(Debug, Clone)]
enum WaitCond {
    EpRead(EpId),
    EpWrite(EpId),
    Connect { ep: EpId, fd: Fd },
    IpcRead(ChanId, Side),
    IpcWrite(ChanId, Side),
    Poll(Vec<Fd>),
    Sleep,
}

/// Key under which waiters register for wakeups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WaitKey {
    EpRead(EpId),
    EpWrite(EpId),
    IpcRead(ChanId, Side),
    IpcWrite(ChanId, Side),
}

#[derive(Debug)]
enum ProcState {
    Ready,
    Running {
        core: usize,
        end: SimTime,
        start: SimTime,
    },
    Blocked(WaitCond),
    Exited,
}

#[derive(Debug)]
enum Pending {
    /// First activation: deliver [`SysResult::Start`].
    Fresh,
    /// A syscall to (re)apply once the current burst completes.
    Apply(Syscall),
    /// A result to hand straight to the process.
    Deliver(SysResult),
}

/// A descriptor table; threads share one, processes own one each.
type FdTable = std::rc::Rc<std::cell::RefCell<Vec<Option<FdKind>>>>;

struct ProcEntry {
    proc: Option<Box<dyn Process>>,
    name: String,
    host: HostId,
    nice: Nice,
    state: ProcState,
    fds: FdTable,
    pending: Pending,
    remaining_ns: u64,
    burst_tag: &'static str,
    token: u64,
    quantum_left: u64,
    cpu_ns: u64,
}

struct HostSched {
    cores: Vec<Option<ProcId>>,
    last_on_core: Vec<Option<ProcId>>,
    ready: BTreeMap<i8, VecDeque<ProcId>>,
    busy_ns: u64,
}

impl HostSched {
    fn idle_core(&self) -> Option<usize> {
        self.cores.iter().position(|c| c.is_none())
    }

    fn pop_ready(&mut self) -> Option<ProcId> {
        let (&nice, _) = self.ready.iter().find(|(_, q)| !q.is_empty())?;
        let q = self.ready.get_mut(&nice).unwrap();
        q.pop_front()
    }

    fn best_ready_nice(&self) -> Option<i8> {
        self.ready
            .iter()
            .find(|(_, q)| !q.is_empty())
            .map(|(&n, _)| n)
    }
}

/// Kernel events on the global queue.
enum KEvent {
    Burst { pid: ProcId, token: u64 },
    Timer { pid: ProcId, token: u64 },
    Net(NetEvent),
}

/// Why [`Kernel::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Virtual time reached the requested instant.
    ReachedTime,
    /// The event queue drained: nothing can ever happen again (all
    /// processes exited, blocked, or deadlocked).
    Quiescent {
        /// When the last event ran.
        last_event: SimTime,
    },
}

/// Scheduler-level statistics for a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Process-to-core placements that switched processes.
    pub context_switches: u64,
    /// Priority preemptions performed.
    pub preemptions: u64,
    /// Failed lock attempts (spin + sched_yield episodes).
    pub lock_yields: u64,
    /// Blocked-process wakeups.
    pub wakeups: u64,
    /// Syscalls executed.
    pub syscalls: u64,
}

/// The simulated operating system.
pub struct Kernel {
    net: Network,
    queue: EventQueue<KEvent>,
    now: SimTime,
    procs: Vec<ProcEntry>,
    scheds: Vec<HostSched>,
    chans: Vec<Channel<FdKind>>,
    chan_attach: HashMap<(ChanId, Side), Vec<ProcId>>,
    locks: Vec<Lock>,
    cost: CostModel,
    profilers: Vec<Profiler>,
    waiters_one: HashMap<WaitKey, VecDeque<ProcId>>,
    poll_waiters: HashMap<WaitKey, Vec<ProcId>>,
    connect_waiters: HashMap<EpId, (ProcId, Fd)>,
    ep_refs: HashMap<EpId, u32>,
    stats: KernelStats,
    /// Timeslice for SCHED_OTHER processes.
    quantum: u64,
}

impl Kernel {
    /// Builds a kernel over a fresh network.
    pub fn new(net_cfg: NetConfig, cost: CostModel, seed: u64) -> Self {
        Kernel {
            net: Network::new(net_cfg, seed),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            procs: Vec::new(),
            scheds: Vec::new(),
            chans: Vec::new(),
            chan_attach: HashMap::new(),
            locks: Vec::new(),
            cost,
            profilers: Vec::new(),
            waiters_one: HashMap::new(),
            poll_waiters: HashMap::new(),
            connect_waiters: HashMap::new(),
            ep_refs: HashMap::new(),
            stats: KernelStats::default(),
            quantum: 100_000_000, // 100 ms, Linux 2.6 default timeslice
        }
    }

    // ------------------------------------------------------------- setup

    /// Registers a machine with `cores` CPUs.
    pub fn add_host(&mut self, cores: usize) -> HostId {
        assert!(cores > 0, "a host needs at least one core");
        let id = self.net.add_host();
        self.scheds.push(HostSched {
            cores: vec![None; cores],
            last_on_core: vec![None; cores],
            ready: BTreeMap::new(),
            busy_ns: 0,
        });
        self.profilers.push(Profiler::new());
        id
    }

    /// Creates a bounded bidirectional IPC channel (a unix socketpair whose
    /// per-direction buffer holds `capacity` messages).
    pub fn create_ipc_pair(&mut self, capacity: usize) -> ChanId {
        let id = ChanId(self.chans.len() as u32);
        self.chans.push(Channel::new(capacity));
        id
    }

    /// Creates a named shared-memory spinlock.
    pub fn create_lock(&mut self, name: &'static str) -> LockId {
        let id = LockId(self.locks.len() as u32);
        self.locks.push(Lock::new(name));
        id
    }

    /// Spawns a process on `host` at priority `nice`. It first runs after
    /// the spawn cost elapses.
    pub fn spawn(
        &mut self,
        host: HostId,
        nice: Nice,
        name: impl Into<String>,
        proc: Box<dyn Process>,
    ) -> ProcId {
        let fds = FdTable::default();
        self.spawn_inner(host, nice, name.into(), proc, fds)
    }

    /// Spawns a *thread*: a process sharing the descriptor table of
    /// `share_with`. This models the §6 multi-threaded server architecture,
    /// where any thread can use any descriptor without passing it over IPC.
    pub fn spawn_thread(
        &mut self,
        nice: Nice,
        name: impl Into<String>,
        proc: Box<dyn Process>,
        share_with: ProcId,
    ) -> ProcId {
        let (host, fds) = {
            let peer = &self.procs[share_with.0 as usize];
            (peer.host, peer.fds.clone())
        };
        self.spawn_inner(host, nice, name.into(), proc, fds)
    }

    fn spawn_inner(
        &mut self,
        host: HostId,
        nice: Nice,
        name: String,
        proc: Box<dyn Process>,
        fds: FdTable,
    ) -> ProcId {
        let pid = ProcId(self.procs.len() as u32);
        self.procs.push(ProcEntry {
            proc: Some(proc),
            name,
            host,
            nice,
            state: ProcState::Ready,
            fds,
            pending: Pending::Fresh,
            remaining_ns: self.cost.spawn,
            burst_tag: "kernel/fork",
            token: 0,
            quantum_left: self.quantum,
            cpu_ns: 0,
        });
        self.enqueue_ready(pid, false);
        self.dispatch(host);
        pid
    }

    /// Creates a bound UDP socket or SCTP endpoint at world-building time
    /// and installs a descriptor for it in each of `pids` — the
    /// fork-inheritance pattern: OpenSER's main process binds the SIP
    /// socket once and every forked worker inherits it.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn setup_shared(
        &mut self,
        transport: MsgTransport,
        host: HostId,
        port: siperf_simnet::Port,
        pids: &[ProcId],
    ) -> Result<Vec<Fd>, Errno> {
        let kind = FdKind::Msg(transport, self.net.msg_bind(transport, host, port)?);
        Ok(pids.iter().map(|&pid| self.install_fd(pid, kind)).collect())
    }

    // ----------------------------------------------------- fault injection

    /// Kills a process immediately (`SIGKILL`): frees its core or ready-queue
    /// slot, cancels in-flight bursts and timers, force-releases any locks it
    /// held (robust-futex semantics), closes its descriptors unless threads
    /// still share the table, and marks it exited. Returns `false` if the
    /// process had already exited.
    ///
    /// The process object gets no notification — exactly like a real
    /// `SIGKILL`, which is what makes worker-crash experiments honest: any
    /// in-flight transaction state dies with the process.
    pub fn kill(&mut self, pid: ProcId) -> bool {
        let state = std::mem::replace(&mut self.procs[pid.0 as usize].state, ProcState::Exited);
        match state {
            ProcState::Exited => return false,
            ProcState::Running { core, start, .. } => {
                // Account the partial burst, then free the core.
                let elapsed = (self.now - start).as_nanos();
                let (host, tag) = {
                    let e = &mut self.procs[pid.0 as usize];
                    e.cpu_ns += elapsed;
                    (e.host, e.burst_tag)
                };
                self.scheds[host.0 as usize].cores[core] = None;
                self.scheds[host.0 as usize].busy_ns += elapsed;
                self.profilers[host.0 as usize].record(tag, elapsed);
            }
            ProcState::Ready => {
                let host = self.procs[pid.0 as usize].host;
                for q in self.scheds[host.0 as usize].ready.values_mut() {
                    q.retain(|&p| p != pid);
                }
            }
            ProcState::Blocked(WaitCond::Connect { ep, .. }) => {
                self.connect_waiters.remove(&ep);
            }
            // Stale waiters_one/poll_waiters entries are tolerated: wakers
            // re-check that the process is still validly blocked.
            ProcState::Blocked(_) => {}
        }
        self.procs[pid.0 as usize].token += 1; // cancels burst/timer events
        for lock in &mut self.locks {
            lock.force_release(pid);
        }
        let host = self.procs[pid.0 as usize].host;
        self.exit_proc(pid);
        self.dispatch(host);
        true
    }

    /// True until a process exits (or is killed).
    pub fn alive(&self, pid: ProcId) -> bool {
        !matches!(self.procs[pid.0 as usize].state, ProcState::Exited)
    }

    /// Duplicates a descriptor of `from` into `to`'s table (the supervisor
    /// re-sharing an inherited socket with a respawned worker). The
    /// underlying object gains a reference, exactly as with fd passing.
    ///
    /// # Errors
    ///
    /// [`Errno::BadFd`] if `from_fd` is not open in `from`.
    pub fn dup_to(&mut self, from: ProcId, from_fd: Fd, to: ProcId) -> Result<Fd, Errno> {
        let kind = self.fd_kind(from, from_fd)?;
        Ok(self.install_fd(to, kind))
    }

    /// Applies a fault to the network fabric at the current virtual time,
    /// then drains the readiness outcomes it produced so blocked processes
    /// observe the fault immediately (an injected RST must wake blocked
    /// readers just like a real one).
    pub fn inject_fault<R>(&mut self, f: impl FnOnce(&mut Network, SimTime) -> R) -> R {
        let now = self.now;
        let r = f(&mut self.net, now);
        self.drain_net();
        r
    }

    // ---------------------------------------------------------- accessors

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read-only view of the network fabric.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Scheduler statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The per-host CPU profile (OProfile equivalent).
    pub fn profiler(&self, host: HostId) -> &Profiler {
        &self.profilers[host.0 as usize]
    }

    /// Total CPU nanoseconds consumed by a process.
    pub fn proc_cpu_ns(&self, pid: ProcId) -> u64 {
        self.procs[pid.0 as usize].cpu_ns
    }

    /// The name a process was spawned with.
    pub fn proc_name(&self, pid: ProcId) -> &str {
        &self.procs[pid.0 as usize].name
    }

    /// Lock state for reports.
    pub fn lock(&self, id: LockId) -> &Lock {
        &self.locks[id.0 as usize]
    }

    /// Busy core-nanoseconds accumulated on a host.
    pub fn host_busy_ns(&self, host: HostId) -> u64 {
        self.scheds[host.0 as usize].busy_ns
    }

    /// Core count of a host.
    pub fn host_cores(&self, host: HostId) -> usize {
        self.scheds[host.0 as usize].cores.len()
    }

    /// Human-readable description of every non-exited process that cannot
    /// currently run — the first thing to look at when a run goes quiescent.
    pub fn blocked_summary(&self) -> Vec<(ProcId, String)> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match &p.state {
                ProcState::Blocked(cond) => Some((
                    ProcId(i as u32),
                    format!("{} blocked on {:?}", p.name, cond),
                )),
                _ => None,
            })
            .collect()
    }

    /// Detects a cycle of processes blocked on each other's IPC channels —
    /// the §6 supervisor/worker deadlock. Returns the processes in one
    /// cycle if found.
    pub fn find_ipc_deadlock(&self) -> Option<Vec<ProcId>> {
        // Wait-for edges: a process blocked on a channel operation waits for
        // every process attached to the other side.
        let mut edges: HashMap<ProcId, Vec<ProcId>> = HashMap::new();
        for (i, p) in self.procs.iter().enumerate() {
            let pid = ProcId(i as u32);
            let (chan, side) = match &p.state {
                ProcState::Blocked(WaitCond::IpcRead(c, s)) => (*c, *s),
                ProcState::Blocked(WaitCond::IpcWrite(c, s)) => (*c, *s),
                _ => continue,
            };
            let others = self
                .chan_attach
                .get(&(chan, side.other()))
                .cloned()
                .unwrap_or_default();
            edges.insert(pid, others);
        }
        // DFS cycle detection restricted to IPC-blocked processes.
        fn dfs(
            node: ProcId,
            edges: &HashMap<ProcId, Vec<ProcId>>,
            visiting: &mut Vec<ProcId>,
            done: &mut Vec<ProcId>,
        ) -> Option<Vec<ProcId>> {
            if done.contains(&node) {
                return None;
            }
            if let Some(pos) = visiting.iter().position(|&n| n == node) {
                return Some(visiting[pos..].to_vec());
            }
            visiting.push(node);
            if let Some(next) = edges.get(&node) {
                for &n in next {
                    if edges.contains_key(&n) {
                        if let Some(cycle) = dfs(n, edges, visiting, done) {
                            return Some(cycle);
                        }
                    }
                }
            }
            visiting.pop();
            done.push(node);
            None
        }
        let nodes: Vec<ProcId> = edges.keys().copied().collect();
        let mut done = Vec::new();
        for node in nodes {
            if let Some(cycle) = dfs(node, &edges, &mut Vec::new(), &mut done) {
                return Some(cycle);
            }
        }
        None
    }

    // ------------------------------------------------------------ running

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            let Some(ts) = self.queue.peek_time() else {
                let last = self.now;
                self.now = deadline.max(self.now);
                return RunOutcome::Quiescent { last_event: last };
            };
            if ts > deadline {
                self.now = deadline;
                return RunOutcome::ReachedTime;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            self.now = t;
            match ev {
                KEvent::Burst { pid, token } => self.on_burst(pid, token),
                KEvent::Timer { pid, token } => self.on_timer(pid, token),
                KEvent::Net(nev) => {
                    self.net.handle_event(t, nev);
                    self.drain_net();
                }
            }
        }
    }

    // -------------------------------------------------------- scheduling

    fn enqueue_ready(&mut self, pid: ProcId, front: bool) {
        let e = &mut self.procs[pid.0 as usize];
        e.state = ProcState::Ready;
        let nice = e.nice.0;
        let host = e.host;
        let q = self.scheds[host.0 as usize].ready.entry(nice).or_default();
        if front {
            q.push_front(pid);
        } else {
            q.push_back(pid);
        }
    }

    fn dispatch(&mut self, host: HostId) {
        loop {
            let sched = &mut self.scheds[host.0 as usize];
            let Some(core) = sched.idle_core() else {
                break;
            };
            let Some(pid) = sched.pop_ready() else {
                break;
            };
            self.start_burst(pid, core, true);
        }
        self.maybe_preempt(host);
    }

    /// Preempts the lowest-priority running process if a strictly
    /// higher-priority process is waiting.
    fn maybe_preempt(&mut self, host: HostId) {
        loop {
            let sched = &self.scheds[host.0 as usize];
            let Some(best) = sched.best_ready_nice() else {
                return;
            };
            // Find the running process with the largest nice value.
            let victim = sched
                .cores
                .iter()
                .filter_map(|c| *c)
                .max_by_key(|pid| self.procs[pid.0 as usize].nice.0);
            let Some(victim) = victim else {
                return;
            };
            let victim_nice = self.procs[victim.0 as usize].nice.0;
            if best >= victim_nice {
                return;
            }
            self.preempt(victim);
            self.stats.preemptions += 1;
            // Fill the freed core with the high-priority process.
            let sched = &mut self.scheds[host.0 as usize];
            let (core, pid) = match (sched.idle_core(), sched.pop_ready()) {
                (Some(c), Some(p)) => (c, p),
                _ => return,
            };
            self.start_burst(pid, core, true);
        }
    }

    fn preempt(&mut self, pid: ProcId) {
        let e = &mut self.procs[pid.0 as usize];
        let ProcState::Running { core, end, start } = e.state else {
            panic!("preempting a non-running process");
        };
        let elapsed = (self.now - start).as_nanos();
        let remaining = (end - self.now).as_nanos();
        e.remaining_ns = remaining.max(self.cost.compute_min);
        e.cpu_ns += elapsed;
        e.token += 1; // cancels the in-flight burst event
        let host = e.host;
        let tag = e.burst_tag;
        self.scheds[host.0 as usize].cores[core] = None;
        self.scheds[host.0 as usize].busy_ns += elapsed;
        self.profilers[host.0 as usize].record(tag, elapsed);
        self.enqueue_ready(pid, true); // preempted tasks keep queue headship
    }

    fn start_burst(&mut self, pid: ProcId, core: usize, from_queue: bool) {
        let quantum = self.quantum;
        let e = &mut self.procs[pid.0 as usize];
        let host = e.host;
        let sched = &mut self.scheds[host.0 as usize];
        let switched = sched.last_on_core[core] != Some(pid);
        let cs = if switched && from_queue {
            self.stats.context_switches += 1;
            self.cost.context_switch
        } else {
            0
        };
        let e = &mut self.procs[pid.0 as usize];
        if from_queue && e.quantum_left == 0 {
            e.quantum_left = quantum;
        }
        let burst = e.remaining_ns + cs;
        e.token += 1;
        let token = e.token;
        let end = self.now + SimDuration::from_nanos(burst);
        e.state = ProcState::Running {
            core,
            end,
            start: self.now,
        };
        let sched = &mut self.scheds[host.0 as usize];
        sched.cores[core] = Some(pid);
        sched.last_on_core[core] = Some(pid);
        self.queue.schedule(end, KEvent::Burst { pid, token });
    }

    fn on_burst(&mut self, pid: ProcId, token: u64) {
        {
            let e = &self.procs[pid.0 as usize];
            if e.token != token {
                return; // cancelled by preemption or wake
            }
        }
        let (host, core, elapsed, tag) = {
            let e = &mut self.procs[pid.0 as usize];
            let ProcState::Running { core, end, start } = e.state else {
                return;
            };
            debug_assert_eq!(end, self.now, "burst completing off-schedule");
            let elapsed = (self.now - start).as_nanos();
            e.cpu_ns += elapsed;
            e.quantum_left = e.quantum_left.saturating_sub(elapsed);
            (e.host, core, elapsed, e.burst_tag)
        };
        self.scheds[host.0 as usize].cores[core] = None;
        self.scheds[host.0 as usize].busy_ns += elapsed;
        self.profilers[host.0 as usize].record(tag, elapsed);

        // Perform the syscall whose cost was just paid.
        let pending = std::mem::replace(&mut self.procs[pid.0 as usize].pending, Pending::Fresh);
        match pending {
            Pending::Fresh => self.resume_proc(pid, SysResult::Start, Some(core)),
            Pending::Deliver(result) => self.resume_proc(pid, result, Some(core)),
            Pending::Apply(syscall) => self.apply_syscall(pid, syscall, core),
        }
        self.dispatch(host);
    }

    fn on_timer(&mut self, pid: ProcId, token: u64) {
        if self.procs[pid.0 as usize].token != token {
            return;
        }
        let deliver = match &self.procs[pid.0 as usize].state {
            ProcState::Blocked(WaitCond::Sleep) => Some(SysResult::Done),
            ProcState::Blocked(WaitCond::Poll(_)) => Some(SysResult::TimedOut),
            _ => None,
        };
        if let Some(result) = deliver {
            self.wake(pid, Some(result));
        }
    }

    /// Calls into the process for its next syscall and begins charging it.
    /// `core_hint` lets a process that still has quantum continue on the
    /// core it already occupies; `None` forces a trip through the ready
    /// queue (the semantics of a completed `sched_yield`).
    fn resume_proc(&mut self, pid: ProcId, result: SysResult, core_hint: Option<usize>) {
        let (host, mut proc_box) = {
            let e = &mut self.procs[pid.0 as usize];
            (e.host, e.proc.take())
        };
        let mut ctx = ResumeCtx {
            now: self.now,
            pid,
            host,
        };
        let syscall = proc_box
            .as_mut()
            .expect("process re-entered")
            .resume(&mut ctx, result);
        self.procs[pid.0 as usize].proc = proc_box;
        self.stats.syscalls += 1;

        if matches!(syscall, Syscall::Exit) {
            self.exit_proc(pid);
            return;
        }

        let (cost, tag) = self.cost_of(pid, &syscall);
        {
            let e = &mut self.procs[pid.0 as usize];
            e.pending = Pending::Apply(syscall);
            e.remaining_ns = cost;
            e.burst_tag = tag;
        }
        self.place(pid, core_hint);
    }

    /// Puts a runnable process either straight back on its previous core
    /// (still has quantum, nobody better is waiting) or at the back of the
    /// ready queue.
    fn place(&mut self, pid: ProcId, core_hint: Option<usize>) {
        let (host, quantum_left, nice) = {
            let e = &self.procs[pid.0 as usize];
            (e.host, e.quantum_left, e.nice.0)
        };
        let sched = &self.scheds[host.0 as usize];
        let core_free =
            core_hint.is_some_and(|c| sched.cores.get(c).is_some_and(|slot| slot.is_none()));
        let better_waiting = sched.best_ready_nice().is_some_and(|n| n < nice);
        let expired = quantum_left == 0;
        if core_free && !better_waiting && !expired {
            self.start_burst(pid, core_hint.expect("checked"), false);
        } else {
            if expired {
                self.procs[pid.0 as usize].quantum_left = self.quantum;
            }
            self.enqueue_ready(pid, false);
            self.dispatch(host);
        }
    }

    fn exit_proc(&mut self, pid: ProcId) {
        // Threads share a descriptor table: only the last member of the
        // group to exit tears it down.
        let table = std::mem::take(&mut self.procs[pid.0 as usize].fds);
        if std::rc::Rc::strong_count(&table) == 1 {
            let fds: Vec<Fd> = {
                let t = table.borrow();
                (0..t.len() as u32)
                    .map(Fd)
                    .filter(|fd| t[fd.0 as usize].is_some())
                    .collect()
            };
            self.procs[pid.0 as usize].fds = table;
            for fd in fds {
                let _ = self.close_fd(pid, fd);
            }
        }
        for lock in &self.locks {
            debug_assert_ne!(
                lock.holder(),
                Some(pid),
                "process exited holding lock {}",
                lock.name
            );
        }
        self.procs[pid.0 as usize].state = ProcState::Exited;
        self.drain_net();
    }

    // ------------------------------------------------------------ waking

    /// Makes a blocked process runnable. `deliver` overrides the pending
    /// operation with a direct result; `None` re-applies the blocked
    /// syscall.
    fn wake(&mut self, pid: ProcId, deliver: Option<SysResult>) {
        let host = {
            let e = &mut self.procs[pid.0 as usize];
            debug_assert!(matches!(e.state, ProcState::Blocked(_)));
            e.token += 1; // cancel any stale timer
            if let Some(result) = deliver {
                e.pending = Pending::Deliver(result);
            }
            e.remaining_ns = self.cost.wake_retry;
            e.burst_tag = "sched/wakeup";
            e.quantum_left = self.quantum;
            e.host
        };
        self.stats.wakeups += 1;
        self.enqueue_ready(pid, false);
        self.dispatch(host);
    }

    fn block(&mut self, pid: ProcId, syscall: Syscall, cond: WaitCond) {
        let keys: Vec<WaitKey> = match &cond {
            WaitCond::EpRead(ep) => vec![WaitKey::EpRead(*ep)],
            WaitCond::EpWrite(ep) => vec![WaitKey::EpWrite(*ep)],
            WaitCond::IpcRead(c, s) => vec![WaitKey::IpcRead(*c, *s)],
            WaitCond::IpcWrite(c, s) => vec![WaitKey::IpcWrite(*c, *s)],
            WaitCond::Connect { .. } | WaitCond::Poll(_) | WaitCond::Sleep => vec![],
        };
        for key in keys {
            self.waiters_one.entry(key).or_default().push_back(pid);
        }
        if let WaitCond::Poll(fds) = &cond {
            for fd in fds {
                if let Ok(kind) = self.fd_kind(pid, *fd) {
                    let key = match kind {
                        FdKind::Ipc(c, s) => WaitKey::IpcRead(c, s),
                        other => WaitKey::EpRead(other.endpoint().expect("net fd")),
                    };
                    self.poll_waiters.entry(key).or_default().push(pid);
                }
            }
        }
        if let WaitCond::Connect { ep, fd } = cond {
            self.connect_waiters.insert(ep, (pid, fd));
        }
        let e = &mut self.procs[pid.0 as usize];
        e.pending = Pending::Apply(syscall);
        e.state = ProcState::Blocked(cond);
    }

    fn cond_matches(cond: &WaitCond, key: WaitKey) -> bool {
        match (cond, key) {
            (WaitCond::EpRead(e), WaitKey::EpRead(k)) => *e == k,
            (WaitCond::EpWrite(e), WaitKey::EpWrite(k)) => *e == k,
            (WaitCond::IpcRead(c, s), WaitKey::IpcRead(kc, ks)) => *c == kc && *s == ks,
            (WaitCond::IpcWrite(c, s), WaitKey::IpcWrite(kc, ks)) => *c == kc && *s == ks,
            _ => false,
        }
    }

    /// Wakes the first process validly blocked under `key`.
    fn wake_one(&mut self, key: WaitKey) {
        let Some(queue) = self.waiters_one.get_mut(&key) else {
            return;
        };
        while let Some(pid) = queue.pop_front() {
            let valid = matches!(
                &self.procs[pid.0 as usize].state,
                ProcState::Blocked(cond) if Self::cond_matches(cond, key)
            );
            if valid {
                self.wake(pid, None);
                return;
            }
        }
    }

    /// Wakes every process validly blocked under `key` (writers after a
    /// window opens, where fairness races are resolved by retry).
    fn wake_all(&mut self, key: WaitKey) {
        let Some(queue) = self.waiters_one.get_mut(&key) else {
            return;
        };
        let pids: Vec<ProcId> = queue.drain(..).collect();
        for pid in pids {
            let valid = matches!(
                &self.procs[pid.0 as usize].state,
                ProcState::Blocked(cond) if Self::cond_matches(cond, key)
            );
            if valid {
                self.wake(pid, None);
            }
        }
    }

    /// Wakes pollers watching `key`.
    fn wake_polls(&mut self, key: WaitKey) {
        let Some(list) = self.poll_waiters.get_mut(&key) else {
            return;
        };
        let pids = std::mem::take(list);
        for pid in pids {
            let valid = matches!(
                &self.procs[pid.0 as usize].state,
                ProcState::Blocked(WaitCond::Poll(_))
            );
            if valid {
                self.wake(pid, None);
            }
        }
    }

    fn drain_net(&mut self) {
        for (t, ev) in self.net.take_events() {
            self.queue.schedule(t.max(self.now), KEvent::Net(ev));
        }
        let outcomes = self.net.take_outcomes();
        for outcome in outcomes {
            match outcome {
                NetOutcome::Readable(ep) => {
                    self.wake_one(WaitKey::EpRead(ep));
                    self.wake_polls(WaitKey::EpRead(ep));
                }
                NetOutcome::Writable(ep) => {
                    self.wake_all(WaitKey::EpWrite(ep));
                }
                NetOutcome::ConnectOk(ep) => {
                    if let Some((pid, fd)) = self.connect_waiters.remove(&ep) {
                        self.wake(pid, Some(SysResult::NewFd(fd)));
                    }
                }
                NetOutcome::ConnectErr(ep, errno) => {
                    if let Some((pid, fd)) = self.connect_waiters.remove(&ep) {
                        let _ = self.close_fd(pid, fd);
                        self.wake(pid, Some(SysResult::Err(errno)));
                    }
                }
            }
        }
    }

    // ------------------------------------------------------- descriptors

    fn install_fd(&mut self, pid: ProcId, kind: FdKind) -> Fd {
        if let Some(ep) = kind.endpoint() {
            *self.ep_refs.entry(ep).or_insert(0) += 1;
        }
        if let FdKind::Ipc(chan, side) = kind {
            self.chan_attach.entry((chan, side)).or_default().push(pid);
        }
        let mut fds = self.procs[pid.0 as usize].fds.borrow_mut();
        let slot = fds.iter().position(|f| f.is_none());
        match slot {
            Some(i) => {
                fds[i] = Some(kind);
                Fd(i as u32)
            }
            None => {
                fds.push(Some(kind));
                Fd((fds.len() - 1) as u32)
            }
        }
    }

    fn fd_kind(&self, pid: ProcId, fd: Fd) -> Result<FdKind, Errno> {
        self.procs[pid.0 as usize]
            .fds
            .borrow()
            .get(fd.0 as usize)
            .copied()
            .flatten()
            .ok_or(Errno::BadFd)
    }

    fn close_fd(&mut self, pid: ProcId, fd: Fd) -> Result<(), Errno> {
        let kind = self.procs[pid.0 as usize]
            .fds
            .borrow_mut()
            .get_mut(fd.0 as usize)
            .and_then(|slot| slot.take())
            .ok_or(Errno::BadFd)?;
        if let FdKind::Ipc(chan, side) = kind {
            if let Some(list) = self.chan_attach.get_mut(&(chan, side)) {
                if let Some(pos) = list.iter().position(|&p| p == pid) {
                    list.remove(pos);
                }
            }
        }
        if let Some(ep) = kind.endpoint() {
            self.release_ep_ref(ep);
        }
        Ok(())
    }

    /// Drops one reference to a network endpoint, closing it at zero.
    fn release_ep_ref(&mut self, ep: EpId) {
        let refs = self.ep_refs.get_mut(&ep).expect("untracked endpoint");
        *refs -= 1;
        if *refs == 0 {
            self.ep_refs.remove(&ep);
            self.net.close(self.now, ep);
            self.drain_net();
        }
    }

    // ---------------------------------------------------------- syscalls

    fn cost_of(&self, pid: ProcId, s: &Syscall) -> (u64, &'static str) {
        let c = &self.cost;
        let (ns, tag) = match s {
            Syscall::Compute { ns, tag } => (*ns, *tag),
            Syscall::Sleep(_) | Syscall::SleepUntil(_) => (c.sleep, "kernel/nanosleep"),
            Syscall::Yield => (c.sched_yield, "kernel/sched_yield"),
            Syscall::Exit => (c.compute_min, "kernel/exit"),
            Syscall::MsgBind { .. } | Syscall::MsgBindEphemeral { .. } => (c.bind, "kernel/bind"),
            Syscall::MsgSend { fd, .. } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Msg(MsgTransport::Sctp, _)) => (c.sctp_send, "kernel/sctp_send"),
                _ => (c.udp_send, "kernel/udp_send"),
            },
            Syscall::MsgRecv { fd } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Msg(MsgTransport::Sctp, _)) => (c.sctp_recv, "kernel/sctp_recv"),
                _ => (c.udp_recv, "kernel/udp_recv"),
            },
            Syscall::TcpListen { .. } => (c.bind, "kernel/listen"),
            Syscall::TcpConnect { .. } => (c.tcp_connect, "kernel/tcp_connect"),
            Syscall::TcpAccept { .. } => (c.tcp_accept, "kernel/tcp_accept"),
            Syscall::TcpSend { .. } => (c.tcp_send, "kernel/tcp_send"),
            Syscall::TcpRecv { .. } => (c.tcp_recv, "kernel/tcp_recv"),
            Syscall::Close { fd } => match self.fd_kind(pid, *fd) {
                // TCP teardown is costlier than releasing other sockets.
                Ok(FdKind::Tcp(_)) => (c.tcp_close, "kernel/tcp_close"),
                _ => (c.close, "kernel/close"),
            },
            Syscall::Poll { fds, .. } => (
                c.poll_base + c.poll_per_ready * fds.len() as u64,
                "kernel/epoll_wait",
            ),
            Syscall::IpcAttach { .. } => (c.ipc_attach, "kernel/socketpair"),
            Syscall::IpcSend { msg, .. } => (
                c.ipc_send
                    + if msg.fd.is_some() {
                        c.ipc_fd_install
                    } else {
                        0
                    },
                "kernel/ipc_send",
            ),
            Syscall::IpcRecv { .. } => (c.ipc_recv, "kernel/ipc_recv"),
            Syscall::LockAcquire { .. } => (c.lock_acquire, "kernel/lock_acquire"),
            Syscall::LockRelease { .. } => (c.lock_release, "kernel/lock_release"),
        };
        (ns.max(c.compute_min) + c.syscall_base_for(s), tag)
    }

    fn apply_syscall(&mut self, pid: ProcId, syscall: Syscall, core_hint: usize) {
        use Syscall as S;
        let host = self.procs[pid.0 as usize].host;
        // A completed sched_yield must go through the ready queue rather
        // than continuing on its core.
        let hint = if matches!(syscall, S::Yield) {
            None
        } else {
            Some(core_hint)
        };
        let result: Result<SysResult, WaitCond> = match &syscall {
            S::Compute { .. } | S::Yield => Ok(SysResult::Done),
            S::Sleep(d) => {
                if d.is_zero() {
                    Ok(SysResult::Done)
                } else {
                    let e = &mut self.procs[pid.0 as usize];
                    e.token += 1;
                    let token = e.token;
                    self.queue
                        .schedule(self.now + *d, KEvent::Timer { pid, token });
                    Err(WaitCond::Sleep)
                }
            }
            S::SleepUntil(t) => {
                if *t <= self.now {
                    Ok(SysResult::Done)
                } else {
                    let e = &mut self.procs[pid.0 as usize];
                    e.token += 1;
                    let token = e.token;
                    self.queue.schedule(*t, KEvent::Timer { pid, token });
                    Err(WaitCond::Sleep)
                }
            }
            S::Exit => unreachable!("Exit handled at resume"),
            S::MsgBind { proto, port } => match self.net.msg_bind(*proto, host, *port) {
                Ok(ep) => Ok(SysResult::NewFd(
                    self.install_fd(pid, FdKind::Msg(*proto, ep)),
                )),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::MsgBindEphemeral { proto } => match self.net.msg_bind_ephemeral(*proto, host) {
                Ok((ep, port)) => Ok(SysResult::NewFdPort {
                    fd: self.install_fd(pid, FdKind::Msg(*proto, ep)),
                    port,
                }),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::MsgSend { fd, to, data } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Msg(proto, ep)) => {
                    let sent = match proto {
                        MsgTransport::Udp => self.net.udp_send(self.now, ep, *to, data.clone()),
                        MsgTransport::Sctp => self.net.sctp_send(self.now, ep, *to, data.clone()),
                    };
                    Ok(sent.map_or_else(SysResult::Err, |()| SysResult::Done))
                }
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::MsgRecv { fd } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Msg(_, ep)) => match self.net.msg_try_recv(ep) {
                    Ok((from, data)) => Ok(SysResult::Msg { from, data }),
                    Err(Errno::WouldBlock) => Err(WaitCond::EpRead(ep)),
                    Err(e) => Ok(SysResult::Err(e)),
                },
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpListen { port, backlog } => match self.net.tcp_listen(host, *port, *backlog) {
                Ok(ep) => Ok(SysResult::NewFd(
                    self.install_fd(pid, FdKind::TcpListen(ep)),
                )),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpConnect { to } => match self.net.tcp_connect(self.now, host, *to) {
                Ok(ep) => {
                    let fd = self.install_fd(pid, FdKind::Tcp(ep));
                    Err(WaitCond::Connect { ep, fd })
                }
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpAccept { fd } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::TcpListen(ep)) => match self.net.tcp_try_accept(ep) {
                    Ok((conn, peer)) => Ok(SysResult::Accepted {
                        fd: self.install_fd(pid, FdKind::Tcp(conn)),
                        peer,
                    }),
                    Err(Errno::WouldBlock) => Err(WaitCond::EpRead(ep)),
                    Err(e) => Ok(SysResult::Err(e)),
                },
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpSend { fd, data } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Tcp(ep)) => match self.net.tcp_send(self.now, ep, data.clone()) {
                    Ok(()) => Ok(SysResult::Done),
                    Err(Errno::WouldBlock) => Err(WaitCond::EpWrite(ep)),
                    Err(e) => Ok(SysResult::Err(e)),
                },
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpRecv { fd, max } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Tcp(ep)) => match self.net.tcp_try_recv(ep, *max) {
                    Ok((data, eof)) => {
                        if data.is_empty() && eof {
                            Ok(SysResult::Eof)
                        } else {
                            Ok(SysResult::Data(data))
                        }
                    }
                    Err(Errno::WouldBlock) => Err(WaitCond::EpRead(ep)),
                    Err(e) => Ok(SysResult::Err(e)),
                },
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::Close { fd } => match self.close_fd(pid, *fd) {
                Ok(()) => Ok(SysResult::Done),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::Poll { fds, timeout } => {
                let mut ready = Vec::new();
                for fd in fds {
                    if let Ok(kind) = self.fd_kind(pid, *fd) {
                        let is_ready = match kind {
                            FdKind::Ipc(chan, side) => {
                                self.chans[chan.0 as usize].pending_for(side) > 0
                            }
                            other => self.net.readable(other.endpoint().expect("net fd")),
                        };
                        if is_ready {
                            ready.push(*fd);
                        }
                    }
                }
                if !ready.is_empty() {
                    Ok(SysResult::Ready(ready))
                } else {
                    if let Some(d) = timeout {
                        let e = &mut self.procs[pid.0 as usize];
                        e.token += 1;
                        let token = e.token;
                        self.queue
                            .schedule(self.now + *d, KEvent::Timer { pid, token });
                    }
                    Err(WaitCond::Poll(fds.clone()))
                }
            }
            S::IpcAttach { chan, side } => {
                if (chan.0 as usize) < self.chans.len() {
                    Ok(SysResult::NewFd(
                        self.install_fd(pid, FdKind::Ipc(*chan, *side)),
                    ))
                } else {
                    Ok(SysResult::Err(Errno::BadFd))
                }
            }
            S::IpcSend { fd, msg } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Ipc(chan, side)) => self.ipc_send(pid, chan, side, *msg),
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::IpcRecv { fd } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Ipc(chan, side)) => {
                    match self.chans[chan.0 as usize].recv_at(side) {
                        Some(parcel) => {
                            let mut msg = parcel.msg;
                            msg.fd = parcel
                                .passed
                                .map(|kind| self.install_fd_transfer(pid, kind));
                            // Senders towards us may be blocked on the queue
                            // we just drained.
                            self.wake_all(WaitKey::IpcWrite(chan, side.other()));
                            Ok(SysResult::Ipc(msg))
                        }
                        None => Err(WaitCond::IpcRead(chan, side)),
                    }
                }
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::LockAcquire { lock } => {
                if self.locks[lock.0 as usize].try_acquire(pid) {
                    Ok(SysResult::Done)
                } else {
                    // Spin failed: charge a spin+sched_yield episode, go to
                    // the back of the queue, retry when scheduled again.
                    self.stats.lock_yields += 1;
                    let e = &mut self.procs[pid.0 as usize];
                    e.pending = Pending::Apply(syscall.clone());
                    e.remaining_ns = self.cost.lock_spin_yield;
                    e.burst_tag = "kernel/sched_yield";
                    self.enqueue_ready(pid, false);
                    self.dispatch(host);
                    return;
                }
            }
            S::LockRelease { lock } => {
                self.locks[lock.0 as usize].release(pid);
                Ok(SysResult::Done)
            }
        };

        self.drain_net();
        match result {
            Ok(result) => self.resume_proc(pid, result, hint),
            Err(cond) => self.block(pid, syscall, cond),
        }
    }

    fn ipc_send(
        &mut self,
        pid: ProcId,
        chan: ChanId,
        side: Side,
        msg: IpcMsg,
    ) -> Result<SysResult, WaitCond> {
        if self.chans[chan.0 as usize].full_towards(side) {
            return Err(WaitCond::IpcWrite(chan, side));
        }
        // Resolve the passed descriptor now (SCM_RIGHTS pins the object even
        // if the sender closes its copy before delivery).
        let passed = match msg.fd {
            Some(passed_fd) => match self.fd_kind(pid, passed_fd) {
                Ok(FdKind::Ipc(..)) => return Ok(SysResult::Err(Errno::InvalidOp)),
                Ok(kind) => {
                    let ep = kind.endpoint().expect("net fd");
                    *self.ep_refs.entry(ep).or_insert(0) += 1;
                    Some(kind)
                }
                Err(e) => return Ok(SysResult::Err(e)),
            },
            None => None,
        };
        self.chans[chan.0 as usize]
            .send_from(side, Parcel { msg, passed })
            .unwrap_or_else(|_| unreachable!("checked capacity above"));
        self.wake_one(WaitKey::IpcRead(chan, side.other()));
        self.wake_polls(WaitKey::IpcRead(chan, side.other()));
        Ok(SysResult::Done)
    }

    /// Installs a descriptor whose endpoint reference was already taken at
    /// send time (ownership transfer, no additional ref).
    fn install_fd_transfer(&mut self, pid: ProcId, kind: FdKind) -> Fd {
        // `install_fd` takes a fresh reference; compensate for the one the
        // parcel already carried.
        let fd = self.install_fd(pid, kind);
        if let Some(ep) = kind.endpoint() {
            let refs = self.ep_refs.get_mut(&ep).expect("tracked endpoint");
            *refs -= 1;
        }
        fd
    }
}

impl CostModel {
    /// The base mode-switch overhead, applied to every real syscall but not
    /// to pure compute bursts.
    fn syscall_base_for(&self, s: &Syscall) -> u64 {
        match s {
            Syscall::Compute { .. } => 0,
            _ => self.syscall_base,
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("procs", &self.procs.len())
            .field("stats", &self.stats)
            .finish()
    }
}
