//! Shared plumbing for the proxy's worker processes.
//!
//! ## Modeling note: decisions vs. timing
//!
//! The simulator is single-threaded, so shared-state mutation is inherently
//! atomic; what the simulated locks provide is **timing** — hold times,
//! contention, and the spin/`sched_yield` storms the paper profiles. Worker
//! code therefore computes each routing decision when a message is parsed
//! and then *plays out* the exact syscall sequence OpenSER would execute
//! (lock, compute, unlock, send, …) as a script. The CPU charged, the locks
//! taken, and their ordering match §3's description; only the Rust-side
//! mutation happens a few virtual microseconds earlier than the lock
//! window it is charged under.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use siperf_simcore::time::SimTime;
use siperf_simnet::addr::SockAddr;
use siperf_simos::lock::LockId;
use siperf_simos::syscall::Syscall;
use siperf_sip::parse::parse_message;

use crate::config::{AppCostModel, ProxyConfig, Transport};
use crate::conn::{ConnTable, IdleHunt};
use crate::core::{FastAdmission, Outgoing, Plan, ProxyCore};

/// The proxy's shared-memory locks, created once at spawn time.
#[derive(Debug, Clone, Copy)]
pub struct Locks {
    /// Guards the transaction table.
    pub txn: LockId,
    /// Guards the location service (usrloc).
    pub usrloc: LockId,
    /// Guards the global timer list (essential for UDP, §3.2).
    pub timer: LockId,
    /// Guards the TCP connection hash table / priority queue (§3.1).
    pub conn: LockId,
}

/// Profile tags for the proxy's user-level functions, named after their
/// OpenSER counterparts so the §5 profile tables read like the paper's.
pub mod tags {
    /// Message reception and parsing.
    pub const PARSE: &str = "user/receive_msg";
    /// Transaction matching/creation and forwarding decisions.
    pub const ROUTE: &str = "user/t_relay";
    /// Location-service lookup.
    pub const USRLOC: &str = "user/usrloc_lookup";
    /// Building and serializing an outgoing message.
    pub const BUILD: &str = "user/build_msg";
    /// The pre-parse overload shed fast path (request-line sniff + canned
    /// 503).
    pub const SHED_FAST: &str = "user/shed_fast";
    /// Inserting a retransmission timer.
    pub const TIMER_INSERT: &str = "user/timer_insert";
    /// The timer process's scan.
    pub const TIMER_SCAN: &str = "user/timer_scan";
    /// The function in which fd-request IPC occurs — the paper's 12% → 4.6%
    /// headline profile entry.
    pub const GET_FD: &str = "user/tcpconn_get_fd";
    /// Connection hash table operations.
    pub const CONN_HASH: &str = "user/tcpconn_hash";
    /// Hunting idle connections (linear scan or priority queue).
    pub const IDLE: &str = "user/tcpconn_timeout";
    /// Per-worker fd-cache probes.
    pub const FD_CACHE: &str = "user/fd_cache_lookup";
}

/// What every proxy process shares: the routing engine, the connection
/// table, the configuration and the locks.
#[derive(Clone)]
pub struct Shared {
    /// Routing engine + stats.
    pub core: Rc<RefCell<ProxyCore>>,
    /// The shared TCP connection table (unused under UDP/SCTP).
    pub conns: Rc<RefCell<ConnTable>>,
    /// Proxy configuration.
    pub cfg: Rc<ProxyConfig>,
    /// The shared-memory locks.
    pub locks: Locks,
}

impl Shared {
    /// Serves one received message: parse it, give the overload policy its
    /// shed fast path, otherwise route it, and script the CPU and locks the
    /// work costs. Returns the messages to send.
    ///
    /// `backlog` is `(worker, depth)` for workers that hold framed but
    /// unrouted messages the transaction table cannot see; it is reported
    /// before routing so admission decisions use the worker's fresh depth.
    pub fn serve(
        &self,
        script: &mut VecDeque<Syscall>,
        backlog: Option<(usize, usize)>,
        now: SimTime,
        raw: &[u8],
        src: SockAddr,
    ) -> Vec<Outgoing> {
        let costs = &self.cfg.app_costs;
        let parse_ns = costs.parse_cost(raw.len());
        let Ok(msg) = parse_message(raw) else {
            self.core.borrow_mut().stats.parse_errors += 1;
            script.push_back(Syscall::Compute {
                ns: parse_ns,
                tag: tags::PARSE,
            });
            return Vec::new();
        };
        let was_request = msg.is_request();
        let mut core = self.core.borrow_mut();
        if let Some((worker, depth)) = backlog {
            core.note_worker_backlog(worker, depth);
        }
        if let FastAdmission::Shed(plan) = core.fast_admission(now, &msg, src) {
            // Shed fast path: the request line alone identified a refusable
            // INVITE, so skip the parse/route/build pipeline and charge only
            // the sniff + canned 503.
            script.push_back(Syscall::Compute {
                ns: costs.shed_fast,
                tag: tags::SHED_FAST,
            });
            return plan.out;
        }
        let plan = core.handle_message(now, msg, src);
        drop(core);
        routing_script(
            script,
            costs,
            &self.locks,
            self.cfg.transport,
            parse_ns,
            was_request,
            &plan,
        );
        plan.out
    }

    /// Scripts one connection-table operation under the table lock.
    pub fn table_op(&self, script: &mut VecDeque<Syscall>) {
        locked(
            script,
            self.locks.conn,
            self.cfg.app_costs.conn_table_op,
            tags::CONN_HASH,
        );
    }

    /// Hunts the shared table for idle connections and scripts the hunt's
    /// cost. The whole hunt runs under the connection-table lock (§5.2: "a
    /// lock is held on the shared hash table throughout").
    pub fn hunt(&self, script: &mut VecDeque<Syscall>, now: SimTime) -> IdleHunt {
        let hunt = self.conns.borrow_mut().hunt(now, self.cfg.idle_timeout);
        self.core.borrow_mut().stats.idle_scan_entries += hunt.examined;
        let ns = self
            .cfg
            .app_costs
            .idle_hunt(self.cfg.idle_strategy, hunt.examined, 400);
        locked(script, self.locks.conn, ns, tags::IDLE);
        hunt
    }
}

/// Scripts `ns` of CPU charged to `tag` while holding `lock`.
pub fn locked(script: &mut VecDeque<Syscall>, lock: LockId, ns: u64, tag: &'static str) {
    script.push_back(Syscall::LockAcquire { lock });
    script.push_back(Syscall::Compute { ns, tag });
    script.push_back(Syscall::LockRelease { lock });
}

/// Builds the lock/compute script that charges a routed message's
/// transaction-table and location-service work, shared by every transport.
///
/// The per-message sends are transport-specific and appended by the caller.
pub fn routing_script(
    script: &mut VecDeque<Syscall>,
    costs: &AppCostModel,
    locks: &Locks,
    transport: Transport,
    parse_ns: u64,
    was_request: bool,
    plan: &Plan,
) {
    script.push_back(Syscall::Compute {
        ns: parse_ns,
        tag: tags::PARSE,
    });
    let route_ns = if was_request {
        costs.route_request
    } else {
        costs.route_response
    };
    locked(script, locks.txn, route_ns, tags::ROUTE);
    if was_request && !plan.absorbed {
        locked(script, locks.usrloc, costs.usrloc_lookup, tags::USRLOC);
    }
    // Building each outgoing message is charged here; putting it on the
    // wire is transport-specific.
    for _ in &plan.out {
        script.push_back(Syscall::Compute {
            ns: costs.build_message,
            tag: tags::BUILD,
        });
    }
    if plan.txn_created && !transport.is_reliable() {
        // UDP: arm the retransmission timer on the shared list (§3.2).
        locked(script, locks.timer, costs.timer_insert, tags::TIMER_INSERT);
    }
}

/// Encodes a socket address into an IPC message word.
pub fn encode_addr(addr: siperf_simnet::SockAddr) -> u64 {
    ((addr.host.0 as u64) << 16) | addr.port as u64
}

/// Decodes a socket address from an IPC message word.
pub fn decode_addr(word: u64) -> siperf_simnet::SockAddr {
    siperf_simnet::SockAddr::new(
        siperf_simnet::HostId((word >> 16) as u32),
        (word & 0xffff) as u16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_simnet::{HostId, SockAddr};

    #[test]
    fn addr_encoding_roundtrips() {
        for addr in [
            SockAddr::new(HostId(0), 5060),
            SockAddr::new(HostId(3), 65535),
            SockAddr::new(HostId(1_000_000), 1),
        ] {
            assert_eq!(decode_addr(encode_addr(addr)), addr);
        }
    }

    #[test]
    fn routing_script_shape_udp_request() {
        let costs = AppCostModel::opteron_2006();
        let locks = Locks {
            txn: LockId(0),
            usrloc: LockId(1),
            timer: LockId(2),
            conn: LockId(3),
        };
        let plan = Plan {
            out: vec![],
            absorbed: false,
            txn_created: true,
            registered: false,
            rejected: false,
        };
        let mut script = VecDeque::new();
        routing_script(
            &mut script,
            &costs,
            &locks,
            Transport::Udp,
            10_000,
            true,
            &plan,
        );
        let kinds: Vec<&'static str> = script
            .iter()
            .map(|s| match s {
                Syscall::Compute { tag, .. } => *tag,
                Syscall::LockAcquire { .. } => "acquire",
                Syscall::LockRelease { .. } => "release",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                tags::PARSE,
                "acquire",
                tags::ROUTE,
                "release",
                "acquire",
                tags::USRLOC,
                "release",
                "acquire",
                tags::TIMER_INSERT,
                "release",
            ]
        );
    }

    #[test]
    fn routing_script_skips_timer_on_reliable_transport() {
        let costs = AppCostModel::opteron_2006();
        let locks = Locks {
            txn: LockId(0),
            usrloc: LockId(1),
            timer: LockId(2),
            conn: LockId(3),
        };
        let plan = Plan {
            out: vec![],
            absorbed: false,
            txn_created: true,
            registered: false,
            rejected: false,
        };
        let mut script = VecDeque::new();
        routing_script(
            &mut script,
            &costs,
            &locks,
            Transport::Tcp,
            5_000,
            true,
            &plan,
        );
        assert!(!script.iter().any(|s| matches!(
            s,
            Syscall::Compute { tag, .. } if *tag == tags::TIMER_INSERT
        )));
    }

    #[test]
    fn absorbed_retransmission_skips_usrloc() {
        let costs = AppCostModel::opteron_2006();
        let locks = Locks {
            txn: LockId(0),
            usrloc: LockId(1),
            timer: LockId(2),
            conn: LockId(3),
        };
        let plan = Plan {
            absorbed: true,
            ..Default::default()
        };
        let mut script = VecDeque::new();
        routing_script(
            &mut script,
            &costs,
            &locks,
            Transport::Udp,
            5_000,
            true,
            &plan,
        );
        assert!(!script.iter().any(|s| matches!(
            s,
            Syscall::Compute { tag, .. } if *tag == tags::USRLOC
        )));
    }
}
