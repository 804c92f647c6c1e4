//! Chaos tour: the canonical fault storm — a Gilbert–Elliott burst-loss
//! episode, one worker crash, one TCP connection reset — replayed against
//! every transport and both TCP architectures, plus a supervisor
//! assassination for the TCP multi-process architecture.
//!
//! The point is the paper's robustness story told with numbers: reliable
//! transports stall through bursts where UDP drops and retransmits, a
//! crashed TCP worker's connections go to its replacement (the supervisor
//! passes a process its descriptors again; a thread adopts them from the
//! shared descriptor table), a crashed UDP/SCTP worker's replacement
//! shares the socket again, and a reset phone reconnects and re-drives its
//! call. Same seed, same storm, same report — byte for byte.
//!
//! A registration outage follows on every transport: all client hosts are
//! cut off from the server from t=0 for 33 s, past the 32 s registration
//! timeout (Timer F). UDP and SCTP phones register again under a fresh
//! clock, TCP phones' handshakes wait out the partition, and the
//! registered count shows every phone made it. Phones register in a new
//! order after the outage, so a caller whose callee has not registered yet
//! gets 404s, each failing a call, until the callee registers.
//!
//! Run: `cargo run --release --example chaos [seed]`

use siperf::faults::{Fault, FaultSchedule};
use siperf::proxy::config::{Arch, ProxyConfig, Transport};
use siperf::simcore::time::SimDuration;
use siperf::simnet::HostId;
use siperf::workload::Scenario;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn storm_run(transport: Transport, arch: Arch, seed: u64) {
    let workers = ProxyConfig::paper(transport).worker_count();
    let storm = FaultSchedule::storm(seed, ms(2500), ms(3000), workers, HostId(0));
    println!("  schedule:");
    for ev in storm.events() {
        println!("    t={:>8}  {:?}", ev.at.to_string(), ev.fault);
    }

    let mut s = Scenario::builder(format!("chaos-{transport:?}-{arch:?}"))
        .transport(transport)
        .tune_proxy(|p| p.arch = arch)
        .client_pairs(50)
        .seed(seed)
        .fault_schedule(storm)
        .build();
    s.call_start = ms(600);
    s.measure_from = ms(1200);
    s.measure = SimDuration::from_secs(7);
    let r = s.run();

    let failure_ratio = r.call_failures as f64 / r.call_attempts.max(1) as f64;
    println!("  {}", r.summary());
    println!(
        "  faults {}  resets {}  respawns {}  conns reassigned {}  recovered calls {}",
        r.faults_injected,
        r.connections_reset,
        r.workers_respawned,
        r.proxy.conns_reassigned,
        r.recovered_calls,
    );
    println!(
        "  burst: {} dropped, {} delayed   failure ratio {:.1}%   endpoints {}  (TIME_WAIT {})\n",
        r.net.fault_drops,
        r.net.fault_delays,
        100.0 * failure_ratio,
        r.server_endpoints,
        r.server_time_wait,
    );
}

fn supervisor_assassination(seed: u64) {
    println!("TCP, supervisor crash at t=3 s (fresh supervisor, cold fd cache)");
    let faults = FaultSchedule::new().at(ms(3000), Fault::KillSupervisor);
    let mut s = Scenario::builder("chaos-supervisor")
        .transport(Transport::Tcp)
        .client_pairs(50)
        .seed(seed)
        .fault_schedule(faults)
        .build();
    s.call_start = ms(600);
    s.measure_from = ms(1200);
    s.measure = SimDuration::from_secs(7);
    let r = s.run();
    let failure_ratio = r.call_failures as f64 / r.call_attempts.max(1) as f64;
    println!("  {}", r.summary());
    println!(
        "  respawns {}  connect errors {}  failure ratio {:.1}%\n",
        r.workers_respawned,
        r.connect_errors,
        100.0 * failure_ratio,
    );
}

fn registration_outage(transport: Transport, seed: u64) {
    println!("{transport:?}, every client host partitioned from the server for 33 s from t=0");
    let mut s = Scenario::builder(format!("chaos-reg-{transport:?}"))
        .transport(transport)
        .client_pairs(50)
        .seed(seed)
        .build();
    s.faults = (1..=s.client_hosts as u32).fold(FaultSchedule::new(), |f, h| {
        f.at(
            ms(0),
            Fault::Partition {
                a: HostId(h),
                b: HostId(0),
                heal_after: ms(33_000),
            },
        )
    });
    s.call_start = ms(600);
    s.measure_from = ms(35_000);
    s.measure = SimDuration::from_secs(2);
    let r = s.run();
    println!("  {}", r.summary());
    println!(
        "  registered {}/{}  phone retransmits {}  connect errors {}\n",
        r.registered,
        2 * r.pairs,
        r.phone_retransmits,
        r.connect_errors,
    );
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(42);
    println!("SIPerf chaos tour — canonical storm, seed {seed}\n");

    for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
        println!("{transport:?}, paper configuration");
        storm_run(transport, Arch::MultiProcess, seed);
    }
    println!("Tcp, multi-threaded architecture");
    storm_run(Transport::Tcp, Arch::MultiThread, seed);
    supervisor_assassination(seed);
    for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
        registration_outage(transport, seed);
    }

    println!("Replay any line with the same seed: the report is identical, byte for byte.");
}
