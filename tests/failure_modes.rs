//! Failure-mode reproduction: the §6 blocking-IPC deadlock, the §4.3
//! descriptor/port starvation at 120 s idle timeouts, and stateful-proxy
//! recovery on a lossy network.

use siperf::faults::{Fault, FaultSchedule};
use siperf::proxy::config::{Arch, ProxyConfig, Transport};
use siperf::simcore::time::{SimDuration, SimTime};
use siperf::simnet::{HostId, NetConfig};
use siperf::sip::txn::TIMEOUT;
use siperf::workload::phone::MAX_REG_ATTEMPTS;
use siperf::workload::Scenario;

#[test]
fn stateful_proxy_recovers_lossy_udp() {
    let mut net = NetConfig::lan();
    net.udp_loss = 0.03; // 3% loss: brutal for SIP without retransmission
    let mut s = Scenario::builder("lossy-udp")
        .transport(Transport::Udp)
        .client_pairs(6)
        .net(net)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(1200);
    s.measure = SimDuration::from_secs(3);
    let report = s.run();

    assert!(report.net.udp_lost > 0, "the loss model must have fired");
    assert!(
        report.phone_retransmits > 0 || report.proxy.retransmits_sent > 0,
        "someone must have retransmitted"
    );
    // Despite loss, the overwhelming majority of calls complete: phones
    // retransmit INVITEs and the stateful proxy retransmits forwards.
    assert!(report.ops_total > 0);
    let failure_ratio = report.call_failures as f64 / report.call_attempts.max(1) as f64;
    assert!(
        failure_ratio < 0.2,
        "reliability machinery failed: {:.0}% of calls lost",
        failure_ratio * 100.0
    );
}

#[test]
fn bounded_ipc_deadlocks_the_supervisor_architecture() {
    // §6: "When a worker process requests a connection from the supervisor
    // process, it then blocks waiting to receive that file descriptor. If,
    // at the same time, the supervisor process blocks waiting to send a new
    // connection to the same worker (since the buffer at the receiver is
    // full), the two processes will deadlock."
    //
    // A one-slot assignment buffer plus a burst of new connections makes
    // this near-certain: workers sit in blocking receives for fd responses
    // while the supervisor sits in a blocking send of an assignment.
    // Connection churn keeps assignments flowing while workers hold
    // outstanding fd requests — the two halves of the cycle.
    let mut proxy = ProxyConfig::paper(Transport::Tcp);
    proxy.ipc_capacity = 1;
    proxy.workers = Some(2);
    let mut s = Scenario::builder("deadlock")
        .proxy(proxy)
        .client_pairs(40)
        .ops_per_conn(5)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(800);
    s.measure = SimDuration::from_secs(2);

    let mut world = s.build_world();
    world
        .kernel
        .run_until(SimTime::ZERO + SimDuration::from_secs(3));

    let cycle = world.kernel.find_ipc_deadlock();
    assert!(
        cycle.is_some(),
        "expected the §6 supervisor/worker deadlock; blocked: {:?}",
        world.kernel.blocked_summary()
    );
    let cycle = cycle.unwrap();
    let names: Vec<&str> = cycle
        .iter()
        .map(|&pid| world.kernel.proc_name(pid))
        .collect();
    assert!(
        names.iter().any(|n| n.contains("tcp_main")),
        "the supervisor is part of the cycle: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.contains("tcp_worker")),
        "a worker is part of the cycle: {names:?}"
    );
    // Once deadlocked, the proxy serves nothing.
    let report = s.report(&world);
    assert!(
        report.throughput.per_sec() < 500.0,
        "a deadlocked proxy cannot sustain throughput"
    );
}

#[test]
fn generous_ipc_buffers_avoid_the_deadlock() {
    // The identical burst with OpenSER-sized buffers completes fine.
    let mut proxy = ProxyConfig::paper(Transport::Tcp);
    proxy.ipc_capacity = 256;
    proxy.workers = Some(2);
    let mut s = Scenario::builder("no-deadlock")
        .proxy(proxy)
        .client_pairs(40)
        .ops_per_conn(5)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(800);
    s.measure = SimDuration::from_secs(1);
    let mut world = s.build_world();
    world.kernel.run_until(s.window().1);
    assert!(world.kernel.find_ipc_deadlock().is_none());
    let report = s.report(&world);
    assert!(report.throughput.per_sec() > 100.0);
}

/// Runs the churny reconnect workload against a server with a bounded
/// descriptor budget and the given idle timeout, returning (connect
/// errors, throughput, live server sockets at the end).
fn starvation_run(idle_timeout: SimDuration) -> (u64, f64, usize) {
    let mut net = NetConfig::lan();
    net.max_endpoints_per_host = 700;
    let mut proxy = ProxyConfig::paper(Transport::Tcp).with_fd_cache();
    proxy.idle_timeout = idle_timeout;
    let mut s = Scenario::builder(format!("starvation-{idle_timeout}"))
        .proxy(proxy)
        .client_pairs(8)
        .ops_per_conn(10)
        .net(net)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(1000);
    s.measure = SimDuration::from_secs(4);
    let report = s.run();
    (
        report.connect_errors,
        report.throughput.per_sec(),
        report.server_endpoints,
    )
}

#[test]
fn long_idle_timeouts_starve_the_descriptor_budget() {
    // §4.3: with the 120 s default, abandoned connections accumulate until
    // the server runs out of descriptors; the paper had to drop the timeout
    // to 10 s. At test scale the churn is proportionally faster, so the
    // "good" timeout is scaled down too — same mechanism, compressed clock.
    let (errs_long, tput_long, open_long) = starvation_run(SimDuration::from_secs(120));
    let (errs_short, tput_short, open_short) = starvation_run(SimDuration::from_millis(250));

    assert!(
        errs_long > 0,
        "120 s timeout must exhaust the budget (open sockets: {open_long})"
    );
    assert!(
        errs_short < errs_long / 4,
        "aggressive closing avoids starvation: {errs_short} vs {errs_long}"
    );
    assert!(open_long > open_short);
    assert!(
        tput_short > 2.0 * tput_long,
        "starvation costs throughput: {tput_short} vs {tput_long}"
    );
}

/// Crashes one worker in the middle of the call phase and lets the
/// supervisor/respawn machinery pick up the pieces: orphaned connections
/// are re-announced to the replacement (TCP), shared sockets are re-dup'd
/// from a sibling (UDP/SCTP), and phones re-drive disturbed calls.
fn worker_crash_run(transport: Transport) -> siperf::workload::ScenarioReport {
    let faults = FaultSchedule::new().at(
        SimDuration::from_millis(3000),
        Fault::KillWorker { index: 2 },
    );
    let mut s = Scenario::builder(format!("crash-{transport:?}"))
        .transport(transport)
        .client_pairs(6)
        .fault_schedule(faults)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(1200);
    s.measure = SimDuration::from_secs(4);
    s.run()
}

fn assert_crash_tolerated(report: &siperf::workload::ScenarioReport, transport: Transport) {
    assert_eq!(
        report.workers_respawned, 1,
        "{transport:?}: crash not applied"
    );
    assert!(report.ops_total > 0, "{transport:?}: nothing completed");
    let failure_ratio = report.call_failures as f64 / report.call_attempts.max(1) as f64;
    assert!(
        failure_ratio < 0.2,
        "{transport:?}: a single worker crash sank {:.0}% of calls",
        failure_ratio * 100.0
    );
}

#[test]
fn udp_tolerates_a_mid_call_worker_crash() {
    let report = worker_crash_run(Transport::Udp);
    assert_crash_tolerated(&report, Transport::Udp);
}

#[test]
fn tcp_tolerates_a_mid_call_worker_crash() {
    let report = worker_crash_run(Transport::Tcp);
    assert_crash_tolerated(&report, Transport::Tcp);
    // The replacement worker inherits the crashed worker's connections.
    assert!(
        report.proxy.conns_reassigned > 0 || report.open_conns > 0,
        "supervisor re-announced no connections"
    );
}

#[test]
fn sctp_tolerates_a_mid_call_worker_crash() {
    let report = worker_crash_run(Transport::Sctp);
    assert_crash_tolerated(&report, Transport::Sctp);
}

/// A four-thread threaded proxy, optionally losing thread 0 at 1.0 s.
fn threaded_run(faults: FaultSchedule) -> siperf::workload::ScenarioReport {
    let mut s = Scenario::builder("threaded-crash")
        .transport(Transport::Tcp)
        .tune_proxy(|p| {
            p.arch = Arch::MultiThread;
            p.workers = Some(4);
        })
        .client_pairs(12)
        .seed(7)
        .fault_schedule(faults)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(1200);
    s.measure = SimDuration::from_secs(2);
    s.run()
}

/// The replacement of a crashed worker thread takes over the connections
/// the dead thread was reading; otherwise their phones stall until the
/// idle timeout and a quarter of the callers drop out of the window.
#[test]
fn respawned_worker_thread_adopts_the_dead_threads_connections() {
    let clean = threaded_run(FaultSchedule::new());
    let crash = FaultSchedule::new().at(
        SimDuration::from_millis(1000),
        Fault::KillWorker { index: 0 },
    );
    let crashed = threaded_run(crash);
    assert_eq!(crashed.workers_respawned, 1);
    assert!(
        crashed.proxy.conns_reassigned > 0,
        "the replacement thread adopted no connection"
    );
    let (clean_ops, crashed_ops) = (clean.throughput.per_sec(), crashed.throughput.per_sec());
    assert!(
        crashed_ops > 0.9 * clean_ops,
        "one thread crash cut goodput from {clean_ops:.0} to {crashed_ops:.0} ops/s"
    );
}

/// Every client host cut off from the server (host 0) from t=0 for `outage`.
fn client_outage(outage: SimDuration) -> FaultSchedule {
    (1..=3).fold(FaultSchedule::new(), |f, h| {
        f.at(
            SimDuration::ZERO,
            Fault::Partition {
                a: HostId(h),
                b: HostId(0),
                heal_after: outage,
            },
        )
    })
}

/// Six pairs at seed 7 under `faults`, measured for 300 ms from
/// `measure_from`. Also returns how many phone processes are still blocked
/// at the end (a phone that gave up has exited).
fn outage_run(
    transport: Transport,
    faults: FaultSchedule,
    measure_from: SimDuration,
) -> (siperf::workload::ScenarioReport, usize) {
    let mut s = Scenario::builder(format!("reg-outage-{transport:?}"))
        .transport(transport)
        .client_pairs(6)
        .seed(7)
        .fault_schedule(faults)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = measure_from;
    s.measure = SimDuration::from_millis(300);
    let mut world = s.build_world();
    s.drive(&mut world);
    let blocked = world
        .kernel
        .blocked_summary()
        .iter()
        .filter(|(_, what)| what.starts_with("phone_"))
        .count();
    (s.report(&world), blocked)
}

/// A registration that reaches Timer F is sent again under a fresh clock;
/// once the partition heals every phone registers and calls complete.
#[test]
fn message_phones_register_again_after_timer_f() {
    for transport in [Transport::Udp, Transport::Sctp] {
        let outage = client_outage(SimDuration::from_secs(33));
        let (r, _) = outage_run(transport, outage, SimDuration::from_secs(34));
        assert_eq!(r.registered, 12, "{transport:?}");
        assert!(r.ops_total > 0, "{transport:?}: no call completed");
        assert_eq!(r.connect_errors, 0, "{transport:?}: a phone gave up");
    }
}

/// The instant by which every phone has had `MAX_REG_ATTEMPTS`
/// registrations time out (the stagger is under half a second).
fn past_the_last_registration() -> SimDuration {
    TIMEOUT * u64::from(MAX_REG_ATTEMPTS) + SimDuration::from_secs(1)
}

/// A phone whose every registration times out gives up after
/// `MAX_REG_ATTEMPTS` tries and exits; the run goes on without it. UDP
/// registrations reach Timer F behind a partition; TCP ones time out behind
/// a frozen accept queue (a partition would only delay the handshake until
/// it heals).
#[test]
fn phones_give_up_registering() {
    let end = past_the_last_registration();
    let outage = end + SimDuration::from_secs(10);
    let freeze = FaultSchedule::new().at(
        SimDuration::ZERO,
        Fault::AcceptFreeze {
            host: HostId(0),
            duration: outage,
        },
    );
    for (transport, faults) in [
        (Transport::Udp, client_outage(outage)),
        (Transport::Tcp, freeze),
    ] {
        let (r, blocked) = outage_run(transport, faults, end);
        assert_eq!(r.registered, 0, "{transport:?}");
        assert_eq!(
            r.connect_errors, 12,
            "{transport:?}: every phone gives up once"
        );
        assert_eq!(blocked, 0, "{transport:?}: a phone is still waiting");
    }
}
