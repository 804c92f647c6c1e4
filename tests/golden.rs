//! Behaviour lock: one committed digest per canonical fixed-seed scenario.
//!
//! Same-seed determinism (see `determinism.rs`) only compares two runs of
//! one build with each other, so a refactor that changes behaviour but stays
//! deterministic would pass it. These rows pin the behaviour itself: each is
//! a short, fixed-seed run whose [`ScenarioReport::fingerprint`] is hashed
//! with FNV-1a-64 and compared with the digest committed below.
//!
//! Twenty-one rows: both caller kinds on every transport, TCP churn, CANCEL,
//! shedding, the canonical storms, the idle-connection hunt under the fd
//! cache, the priority queue and the threaded architecture, a worker
//! thread crash, and registration retried through a UDP partition and a
//! TCP accept freeze.
//!
//! A change that moves a digest on purpose must name the row and the reason
//! in CHANGES.md; the failure message prints the new digest to copy in.

use siperf::faults::{Fault, FaultSchedule};
use siperf::overload::OverloadConfig;
use siperf::proxy::config::{Arch, IdleStrategy, ProxyConfig, Transport};
use siperf::simcore::time::SimDuration;
use siperf::simnet::HostId;
use siperf::workload::{Scenario, ScenarioBuilder};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The common short shape: registration staggers over the first 0.5 s,
/// calls start at 0.6 s, the window is [0.8 s, 1.4 s).
fn short(name: &str, transport: Transport) -> ScenarioBuilder {
    Scenario::builder(name)
        .transport(transport)
        .client_pairs(6)
        .seed(7)
}

fn finish(b: ScenarioBuilder) -> Scenario {
    let mut s = b.build();
    s.call_start = ms(600);
    s.measure_from = ms(800);
    s.measure = ms(600);
    s
}

/// Open loop: 30 callees, three Poisson callers, 200 ms setup budget.
fn open(name: &str, transport: Transport, rate: f64) -> ScenarioBuilder {
    short(name, transport)
        .client_pairs(30)
        .arrival_rate(rate)
        .setup_deadline(ms(200))
}

/// The canonical fault trio (burst loss, worker crash, TCP reset) over
/// [0.9 s, 1.2 s), healed before the window closes. At seed 7 the reset
/// lands on a caller mid-call, so the TCP row exercises reconnect-and-redrive.
fn storm(name: &str, transport: Transport, seed: u64) -> Scenario {
    let workers = ProxyConfig::paper(transport).worker_count();
    let faults = FaultSchedule::storm(seed, ms(900), ms(300), workers, HostId(0));
    finish(short(name, transport).seed(seed).fault_schedule(faults))
}

/// TCP reconnecting every 50 ops with an 800 ms idle timeout and the window
/// stretched to [0.8 s, 1.6 s), so the connections abandoned by the first
/// reconnects go idle and are hunted before the run ends. (With a 200 ms
/// timeout the proxy closes connections callers still send on, and no
/// INVITE gets through.)
fn tcp50_idle800(name: &str, arch: Arch, fd_cache: bool, idle: IdleStrategy) -> Scenario {
    let b = short(name, Transport::Tcp)
        .ops_per_conn(50)
        .tune_proxy(|p| {
            p.arch = arch;
            p.fd_cache = fd_cache;
            p.idle_strategy = idle;
            p.idle_timeout = ms(800);
        });
    let mut s = finish(b);
    s.measure = ms(800);
    s
}

fn check(s: &Scenario, expected: u64) -> siperf::workload::ScenarioReport {
    let report = s.run();
    let actual = fnv1a64(report.fingerprint().as_bytes());
    assert_eq!(
        actual, expected,
        "golden digest mismatch for `{}`: expected {expected:#018x}, actual {actual:#018x}",
        s.name
    );
    report
}

#[test]
fn udp_closed_loop() {
    check(
        &finish(short("udp-closed", Transport::Udp)),
        0x8196_8c94_5d6c_afa6,
    );
}

#[test]
fn tcp_closed_loop() {
    check(
        &finish(short("tcp-closed", Transport::Tcp)),
        0x86a4_a2d1_b388_c699,
    );
}

#[test]
fn sctp_closed_loop() {
    check(
        &finish(short("sctp-closed", Transport::Sctp)),
        0xaacf_4376_d464_754e,
    );
}

#[test]
fn tcp_reconnecting_every_50_ops() {
    let r = check(
        &finish(short("tcp-reconnect-50", Transport::Tcp).ops_per_conn(50)),
        0xe386_d62a_86df_5fe8,
    );
    assert!(r.reconnects > 0, "the 50-op policy never fired");
}

#[test]
fn udp_cancelled_ringing_calls() {
    let b = short("udp-cancel", Transport::Udp)
        .cancel_every(4)
        .ring_delay(ms(20));
    let r = check(&finish(b), 0xd880_e9ba_e77c_6a8d);
    assert!(r.calls_cancelled > 0);
}

#[test]
fn tcp_cancelled_ringing_calls() {
    let b = short("tcp-cancel", Transport::Tcp)
        .cancel_every(4)
        .ring_delay(ms(20));
    let r = check(&finish(b), 0x11fe_b983_f0c0_aaee);
    assert!(r.calls_cancelled > 0);
}

#[test]
fn udp_open_loop() {
    check(
        &finish(open("udp-open", Transport::Udp, 3_000.0)),
        0xa733_664b_4847_50d8,
    );
}

#[test]
fn tcp_open_loop() {
    check(
        &finish(open("tcp-open", Transport::Tcp, 3_000.0)),
        0xf917_7f0a_3c9a_3c24,
    );
}

#[test]
fn sctp_open_loop() {
    check(
        &finish(open("sctp-open", Transport::Sctp, 3_000.0)),
        0x163d_3574_a79c_2eab,
    );
}

/// One server core and a low high-water mark put QueueThreshold into
/// shedding at a rate cheap enough for the dev profile.
#[test]
fn udp_open_loop_shedding() {
    let b = open("udp-open-shed", Transport::Udp, 8_000.0).overload_policy(
        OverloadConfig::QueueThreshold {
            high: 40,
            low: 20,
            retry_after: 1,
        },
    );
    let mut s = finish(b);
    s.server_cores = 1;
    let r = check(&s, 0xc320_5605_e098_d4df);
    assert!(r.calls_rejected > 0, "QueueThreshold never shed");
}

#[test]
fn udp_closed_loop_shedding() {
    let b = short("udp-closed-shed", Transport::Udp)
        .client_pairs(40)
        .overload_policy(OverloadConfig::QueueThreshold {
            high: 8,
            low: 4,
            retry_after: 1,
        });
    let r = check(&finish(b), 0xbf93_51ac_e8ac_826f);
    assert!(r.calls_rejected > 0, "QueueThreshold never shed");
}

#[test]
fn udp_canonical_storm() {
    let r = check(
        &storm("udp-storm", Transport::Udp, 7),
        0x7edc_2a07_a874_e802,
    );
    assert_eq!(r.faults_injected, 2);
}

#[test]
fn tcp_canonical_storm() {
    let r = check(
        &storm("tcp-storm", Transport::Tcp, 7),
        0x9d5f_426a_3f21_4e6f,
    );
    assert_eq!(r.faults_injected, 3);
    assert!(r.recovered_calls >= 1, "the reset re-drove no call");
}

/// Pins the SCTP worker respawn (donor search or rebinding the shared
/// endpoint) and the stalls link faults put on a reliable transport.
#[test]
fn sctp_canonical_storm() {
    let r = check(
        &storm("sctp-storm", Transport::Sctp, 7),
        0xb8a7_ac19_04bb_e588,
    );
    assert_eq!(r.faults_injected, 2);
    assert_eq!(r.workers_respawned, 1);
}

#[test]
fn tcp50_fd_cache_idle800() {
    let s = tcp50_idle800(
        "tcp50-fdcache-idle800",
        Arch::MultiProcess,
        true,
        IdleStrategy::LinearScan,
    );
    let r = check(&s, 0x6041_932c_e8a7_0ec2);
    assert!(
        r.proxy.conns_returned > 0,
        "no idle connection was returned"
    );
    assert!(r.proxy.fd_cache_hits > 0, "the fd cache never hit");
}

#[test]
fn tcp50_fd_cache_pq_idle800() {
    let s = tcp50_idle800(
        "tcp50-fdcache-pq-idle800",
        Arch::MultiProcess,
        true,
        IdleStrategy::PriorityQueue,
    );
    let r = check(&s, 0xc7bf_d960_ae31_8f60);
    assert!(
        r.proxy.conns_returned > 0,
        "no idle connection was returned"
    );
    assert!(r.proxy.fd_cache_hits > 0, "the fd cache never hit");
}

#[test]
fn tcp50_threaded_idle800() {
    let s = tcp50_idle800(
        "tcp50-threaded-idle800",
        Arch::MultiThread,
        false,
        IdleStrategy::LinearScan,
    );
    let r = check(&s, 0xf5a1_a43c_45e3_930a);
    assert!(r.proxy.conns_destroyed > 0, "no idle connection was closed");
}

#[test]
fn tcp50_threaded_pq_idle800() {
    let s = tcp50_idle800(
        "tcp50-threaded-pq-idle800",
        Arch::MultiThread,
        false,
        IdleStrategy::PriorityQueue,
    );
    let r = check(&s, 0xadbe_ef3d_9348_e496);
    assert!(r.proxy.conns_destroyed > 0, "no idle connection was closed");
}

/// Worker thread 0 of four dies mid-window and is replaced.
#[test]
fn tcp_threaded_crash() {
    let faults = FaultSchedule::new().at(ms(1100), Fault::KillWorker { index: 0 });
    let b = short("tcp-threaded-crash", Transport::Tcp)
        .tune_proxy(|p| {
            p.arch = Arch::MultiThread;
            p.workers = Some(4);
        })
        .fault_schedule(faults);
    let r = check(&finish(b), 0x8340_1334_89ed_154f);
    assert_eq!(r.workers_respawned, 1);
}

/// Client host 1 is cut off from the server for the first 300 ms, so the
/// REGISTERs of its phones go unanswered and are retransmitted before the
/// partition heals.
#[test]
fn udp_registration_through_a_partition() {
    let faults = FaultSchedule::new().at(
        ms(0),
        Fault::Partition {
            a: HostId(1),
            b: HostId(0),
            heal_after: ms(300),
        },
    );
    let b = short("udp-reg-partition300", Transport::Udp).fault_schedule(faults);
    let r = check(&finish(b), 0x0ebb_6ed8_c09e_aead);
    assert_eq!(
        r.phone_retransmits, 3,
        "the lost REGISTERs are retransmitted"
    );
    assert_eq!(r.registered, 12);
}

/// The server accepts no connection for 32.6 s, so every phone's first
/// REGISTER times out and is sent again over a fresh connection; the
/// window moves to [33.0 s, 33.6 s), after the thaw.
#[test]
fn tcp_registration_through_an_accept_freeze() {
    let faults = FaultSchedule::new().at(
        ms(0),
        Fault::AcceptFreeze {
            host: HostId(0),
            duration: ms(32_600),
        },
    );
    let b = short("tcp-reg-freeze", Transport::Tcp).fault_schedule(faults);
    let mut s = finish(b);
    s.measure_from = ms(33_000);
    let r = check(&s, 0xba88_8f44_2bd7_720f);
    assert_eq!(r.registered, 12);
}
