//! The four benchmark workloads, as scenarios built through the library's
//! public constructors.

use siperf_bench::{paper_value, FIGURE3};
use siperf_simcore::time::SimDuration;
use siperf_workload::experiments::figure_cell;
use siperf_workload::{FigureConfig, OverloadConfig, Scenario, Transport, TransportWorkload};

/// Virtual time at which callers start dialling (registration runs before).
const CALL_START: SimDuration = SimDuration::from_millis(1000);
/// Virtual time at which the measurement window opens.
const WINDOW_OPEN: SimDuration = SimDuration::from_millis(2000);
/// Length of the measurement window. Every run ends by 5 virtual seconds,
/// before `call_start` + `txn_linger` (6 s): no transaction is reaped yet,
/// so the runs measure the pre-reaping regime.
const WINDOW: SimDuration = SimDuration::from_millis(1500);
/// TCP 50 ops/conn completes a third as many calls per virtual second, so
/// its window is twice as long to keep enough INVITE samples for p99.9.
const TCP50_WINDOW: SimDuration = SimDuration::from_millis(3000);
/// Closed-loop caller/callee pairs.
const PAIRS: usize = 500;
/// Open-loop callees, and the aggregate Poisson call rate (~1.5x the
/// ~16k calls/s knee of that topology).
const OPEN_CALLEES: usize = 300;
const OPEN_RATE: f64 = 24_000.0;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UdpClosed500,
    Tcp50Closed500,
    UdpOpen24kQt,
    SctpClosed500,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UdpClosed500,
        Workload::Tcp50Closed500,
        Workload::UdpOpen24kQt,
        Workload::SctpClosed500,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UdpClosed500 => "udp-closed-500",
            Workload::Tcp50Closed500 => "tcp50-closed-500",
            Workload::UdpOpen24kQt => "udp-open-24k-qt",
            Workload::SctpClosed500 => "sctp-closed-500",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario this workload runs at `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        let mut s = match self {
            Workload::UdpClosed500 => figure_cell(
                FigureConfig::Baseline,
                TransportWorkload::Udp,
                PAIRS,
                1,
                seed,
            ),
            Workload::Tcp50Closed500 => figure_cell(
                FigureConfig::Baseline,
                TransportWorkload::Tcp50,
                PAIRS,
                1,
                seed,
            ),
            Workload::UdpOpen24kQt => {
                Scenario::builder("udp open-loop 24k calls/s, queue-threshold")
                    .transport(Transport::Udp)
                    .overload_policy(OverloadConfig::queue_threshold_default())
                    .client_pairs(OPEN_CALLEES)
                    .arrival_rate(OPEN_RATE)
                    .setup_deadline(SimDuration::from_millis(200))
                    .seed(seed)
                    .build()
            }
            Workload::SctpClosed500 => Scenario::builder("sctp closed-loop 500 pairs")
                .transport(Transport::Sctp)
                .client_pairs(PAIRS)
                .seed(seed)
                .build(),
        };
        s.call_start = CALL_START;
        s.measure_from = WINDOW_OPEN;
        s.measure = if self == Workload::Tcp50Closed500 {
            TCP50_WINDOW
        } else {
            WINDOW
        };
        s
    }

    /// The configured open-loop call rate, if this is an open loop.
    pub fn arrival_rate(self) -> Option<f64> {
        (self == Workload::UdpOpen24kQt).then_some(OPEN_RATE)
    }

    /// The paper's Figure 3 throughput for this workload, where the paper
    /// has a cell for it.
    pub fn paper_ops(self) -> Option<u64> {
        let bar = match self {
            Workload::UdpClosed500 => TransportWorkload::Udp,
            Workload::Tcp50Closed500 => TransportWorkload::Tcp50,
            Workload::UdpOpen24kQt | Workload::SctpClosed500 => return None,
        };
        Some(paper_value(&FIGURE3, bar, PAIRS))
    }
}
