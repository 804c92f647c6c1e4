//! Property tests on the connection table: the §5.3 priority-queue
//! strategy must agree with the baseline linear scan about *what is idle*
//! under arbitrary schedules of activity — only the cost differs.

use proptest::prelude::*;

use siperf_proxy::conn::{ConnId, ConnTable};
use siperf_proxy::IdleStrategy;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::{HostId, SockAddr};

const TIMEOUT: SimDuration = SimDuration::from_secs(10);

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u16),
    Touch(usize),
    Return(usize),
    Hunt,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..500).prop_map(Op::Insert),
        (0usize..64).prop_map(Op::Touch),
        (0usize..64).prop_map(Op::Return),
        Just(Op::Hunt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both strategies report identical idle sets at every hunt point, and
    /// identical surviving tables at the end, across arbitrary interleaved
    /// inserts, touches, returns, and hunts with advancing time.
    #[test]
    fn strategies_agree_under_arbitrary_schedules(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        step_ms in 100u64..8_000,
    ) {
        let mut lin = ConnTable::new(IdleStrategy::LinearScan);
        let mut pq = ConnTable::new(IdleStrategy::PriorityQueue);
        let mut ids: Vec<ConnId> = Vec::new();
        let mut now_ms = 0u64;

        for op in ops {
            now_ms += step_ms;
            let now = t(now_ms);
            match op {
                Op::Insert(port) => {
                    let peer = SockAddr::new(HostId(1), 10_000 + port);
                    let a = lin.insert(now, peer, 0, TIMEOUT);
                    let b = pq.insert(now, peer, 0, TIMEOUT);
                    prop_assert_eq!(a, b);
                    ids.push(a);
                }
                Op::Touch(k) if !ids.is_empty() => {
                    let id = ids[k % ids.len()];
                    lin.touch(id, now, TIMEOUT);
                    pq.touch(id, now, TIMEOUT);
                }
                Op::Return(k) if !ids.is_empty() => {
                    let id = ids[k % ids.len()];
                    if lin.get(id).is_some() && lin.get(id).unwrap().returned_at.is_none() {
                        lin.mark_returned(id, now, TIMEOUT);
                        pq.mark_returned(id, now, TIMEOUT);
                    }
                }
                Op::Hunt => {
                    let a = lin.hunt(now, TIMEOUT);
                    let b = pq.hunt(now, TIMEOUT);
                    let mut a_ret = a.to_return.clone();
                    let mut b_ret = b.to_return.clone();
                    a_ret.sort();
                    b_ret.sort();
                    prop_assert_eq!(&a_ret, &b_ret, "to_return diverged at t={}ms", now_ms);
                    let mut a_des = a.to_destroy.clone();
                    let mut b_des = b.to_destroy.clone();
                    a_des.sort();
                    b_des.sort();
                    prop_assert_eq!(&a_des, &b_des, "to_destroy diverged at t={}ms", now_ms);
                    // Act on the hunt the way the proxy does, so state
                    // evolves identically: returns are marked, destroys
                    // removed.
                    for id in a_ret {
                        lin.mark_returned(id, now, TIMEOUT);
                        pq.mark_returned(id, now, TIMEOUT);
                    }
                    for id in a_des {
                        lin.remove(id);
                        pq.remove(id);
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(lin.len(), pq.len());
    }

    /// The PQ hunt never examines more entries over a run than (touches +
    /// inserts + returns): each heap entry is popped at most once, so the
    /// total work is bounded by the activity, not by table size × hunts —
    /// the asymptotic claim behind the §5.3 fix.
    #[test]
    fn pq_work_is_bounded_by_activity(
        inserts in 1usize..80,
        hunts in 1usize..40,
    ) {
        let mut pq = ConnTable::new(IdleStrategy::PriorityQueue);
        for i in 0..inserts {
            pq.insert(t(0), SockAddr::new(HostId(1), 10_000 + i as u16), 0, TIMEOUT);
        }
        let mut examined = 0;
        for h in 0..hunts {
            // Hunt long after everything expired, repeatedly.
            let hunt = pq.hunt(t(20_000 + h as u64), TIMEOUT);
            examined += hunt.examined;
            for id in hunt.to_destroy {
                pq.remove(id);
            }
        }
        // Each of `inserts` entries pops at most twice (once expiring as
        // owned → reinserted, once as returned/destroyed after action) —
        // with no action taken on `to_return`, reinsertion caps at one
        // extra pop per hunt round for still-owned entries.
        prop_assert!(
            examined <= (inserts * (hunts + 1)) as u64,
            "examined {examined} with {inserts} inserts, {hunts} hunts"
        );
    }
}

/// A deterministic regression: returned connections are invisible to
/// `lookup_peer` (the route must fall back to reconnecting), but still
/// present in the table until destroyed.
#[test]
fn returned_connections_are_not_routes() {
    let mut tab = ConnTable::new(IdleStrategy::LinearScan);
    let peer = SockAddr::new(HostId(2), 30_000);
    let id = tab.insert(t(0), peer, 0, TIMEOUT);
    assert_eq!(tab.lookup_peer(peer), Some(id));
    tab.mark_returned(id, t(1), TIMEOUT);
    assert_eq!(
        tab.lookup_peer(peer),
        None,
        "half-closed conns are unusable"
    );
    assert!(
        tab.get(id).is_some(),
        "object lives until the supervisor reaps it"
    );
    // A fresh connection to the same peer becomes the route again.
    let id2 = tab.insert(t(2), peer, 1, TIMEOUT);
    assert_eq!(tab.lookup_peer(peer), Some(id2));
}
