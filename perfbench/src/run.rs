//! One scenario run through the public path `Scenario::build_world` ->
//! `Kernel::run_until` -> `Scenario::report`, timed on the host, plus the
//! virtual metrics read off it.
//!
//! The traced variant drives `run_until` in fixed virtual slices and keeps
//! one span per slice, with a snapshot of every counter surface at each
//! slice boundary. Everything is timed from here; nothing inside the
//! program is instrumented.

use std::time::{Duration, Instant};

use siperf_proxy::core::ProxyStats;
use siperf_simcore::profile::ProfileReport;
use siperf_simcore::stats::Histogram;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::NetStats;
use siperf_simos::kernel::KernelStats;
use siperf_workload::scenario::World;
use siperf_workload::{Scenario, ScenarioReport, Transport};

use crate::json::{array, Obj};
use crate::workloads::Workload;

/// Every counter surface at one instant of virtual time.
#[derive(Clone)]
pub struct Snapshot {
    pub at: SimTime,
    pub kernel: KernelStats,
    pub net: NetStats,
    pub proxy: ProxyStats,
    pub ops: u64,
    pub call_attempts: u64,
    pub calls_rejected: u64,
    pub server_busy_ns: u64,
    pub profile: ProfileReport,
}

impl Snapshot {
    fn take(world: &World) -> Snapshot {
        let k = &world.kernel;
        let w = world.stats.borrow();
        Snapshot {
            at: k.now(),
            kernel: k.stats(),
            net: k.net().stats(),
            proxy: world.proxy.stats(),
            ops: w.ops_total,
            call_attempts: w.call_attempts,
            calls_rejected: w.calls_rejected,
            server_busy_ns: k.host_busy_ns(world.server),
            profile: k.profiler(world.server).report(),
        }
    }

    fn profile_ns(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.profile
            .rows()
            .iter()
            .filter(|(tag, _)| pred(tag))
            .map(|(_, ns)| ns)
            .sum()
    }

    fn to_json(&self) -> Obj {
        let (k, n, p) = (&self.kernel, &self.net, &self.proxy);
        Obj::new()
            .int("virt_ns", self.at.as_nanos())
            .int("kernel.syscalls", k.syscalls)
            .int("kernel.context_switches", k.context_switches)
            .int("kernel.lock_yields", k.lock_yields)
            .int("kernel.wakeups", k.wakeups)
            .int("kernel.preemptions", k.preemptions)
            .int("net.udp_sent", n.udp_sent)
            .int("net.udp_queue_drops", n.udp_queue_drops)
            .int("net.tcp_segments", n.tcp_segments)
            .int("net.tcp_established", n.tcp_established)
            .int("net.sctp_messages", n.sctp_messages)
            .int("proxy.requests", p.requests)
            .int("proxy.responses", p.responses)
            .int("proxy.forwards", p.forwards)
            .int("proxy.fd_requests", p.fd_requests)
            .int("proxy.idle_scan_entries", p.idle_scan_entries)
            .int("proxy.overload_rejections", p.overload_rejections)
            .int("proxy.txns_reaped", p.txns_reaped)
            .int("workload.ops", self.ops)
            .int("workload.call_attempts", self.call_attempts)
            .int("workload.calls_rejected", self.calls_rejected)
            .int("workload.server_busy_ns", self.server_busy_ns)
    }
}

/// One span of the traced run: host interval of one `run_until` call.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start: SimTime,
    pub virt_end: SimTime,
    pub snapshot: Option<Snapshot>,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    fn to_json(&self, run_id: &str) -> String {
        let mut o = Obj::new()
            .str("run_id", run_id)
            .int("span_id", self.id)
            .raw(
                "parent",
                &self.parent.map_or("null".to_string(), |p| p.to_string()),
            )
            .str("name", self.name)
            .int("host_start_ns", self.host_start_ns)
            .int("host_end_ns", self.host_end_ns)
            .int("virt_start_ns", self.virt_start.as_nanos())
            .int("virt_end_ns", self.virt_end.as_nanos());
        if let Some(s) = &self.snapshot {
            o = o.obj("counters_at_end", s.to_json());
        }
        o.finish()
    }
}

/// Spans of one traced run, kept in memory until the run ends.
pub struct Trace {
    pub run_id: String,
    pub spans: Vec<Span>,
}

impl Trace {
    /// Writes every span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = array(self.spans.iter().map(|s| s.to_json(&self.run_id)));
        let doc = Obj::new()
            .str("run_id", &self.run_id)
            .raw("spans", &spans)
            .finish();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }

    /// Host ms of each slice that lies inside `[from, to]` virtual time.
    pub fn slice_ms(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some() && s.virt_start >= from && s.virt_end <= to)
            .map(|s| s.host_ns() as f64 / 1e6)
            .collect()
    }
}

/// How long before the window closes the ledger snapshot is taken: every
/// 503 the proxy sent by then has reached its phone when the run ends.
pub const SETTLE: SimDuration = SimDuration::from_millis(20);

/// A finished run: host timings plus the counters at the window's edges.
pub struct Measured {
    pub setup: Duration,
    pub window_host: Duration,
    pub open: Snapshot,
    /// Counters at `SETTLE` before the window closes.
    pub settled: Snapshot,
    pub close: Snapshot,
    pub report: ScenarioReport,
    pub invite_p50_ms: f64,
    pub invite_p999_ms: f64,
    pub invite_samples: u64,
    pub attempts_in_window: u64,
    pub rejected_in_window: u64,
    pub live_txns: usize,
}

/// Runs `s` untraced, or traced in slices of `slice` virtual time.
pub fn measure(s: &Scenario, slice: Option<SimDuration>) -> (Measured, Option<Trace>) {
    let (open_at, close_at) = s.window();
    let settle_at = close_at - SETTLE;
    let t0 = Instant::now();
    let mut world = s.build_world();
    let mut spans = Vec::new();
    let mut setup = Duration::ZERO;
    let mut window_start = t0;
    let (mut open, mut settled) = (None, None);
    // Untraced, the edges are the only stops; traced, slices of `slice`
    // virtual time never straddle an edge.
    let edges = [open_at, settle_at, close_at];
    let mut at = world.kernel.now();
    while at < close_at {
        let next_edge = *edges.iter().find(|&&e| e > at).expect("at < close_at");
        let end = slice.map_or(next_edge, |d| (at + d).min(next_edge));
        let h0 = t0.elapsed().as_nanos() as u64;
        world.kernel.run_until(end);
        let h1 = t0.elapsed().as_nanos() as u64;
        let snap =
            (slice.is_some() || end == open_at || end == settle_at).then(|| Snapshot::take(&world));
        if end == open_at {
            setup = t0.elapsed();
            window_start = Instant::now();
            open = snap.clone();
        } else if end == settle_at {
            settled = snap.clone();
        }
        if slice.is_some() {
            spans.push(Span {
                id: spans.len() as u64 + 1,
                parent: Some(0),
                name: "kernel.run_until",
                host_start_ns: h0,
                host_end_ns: h1,
                virt_start: at,
                virt_end: end,
                snapshot: snap,
            });
        }
        at = end;
    }
    let window_host = window_start.elapsed();
    let trace = slice.map(|_| {
        spans.insert(
            0,
            Span {
                id: 0,
                parent: None,
                name: "scenario.run",
                host_start_ns: 0,
                host_end_ns: t0.elapsed().as_nanos() as u64,
                virt_start: SimTime::ZERO,
                virt_end: close_at,
                snapshot: None,
            },
        );
        Trace {
            run_id: format!("{}-seed{}", s.name.replace(' ', "_"), s.seed),
            spans,
        }
    });
    let close = Snapshot::take(&world);
    let report = s.report(&world);
    let w = world.stats.borrow();
    let measured = Measured {
        setup,
        window_host,
        open: open.expect("the window opens after virtual time zero"),
        settled: settled.expect("the window is longer than the settle margin"),
        close,
        invite_p50_ms: percentile_ms(&w.invite_latency, 50.0),
        invite_p999_ms: percentile_ms(&w.invite_latency, 99.9),
        invite_samples: w.invite_latency.count(),
        attempts_in_window: w.attempts_in_window,
        rejected_in_window: w.rejected_in_window,
        live_txns: world.proxy.core.borrow().live_txns(),
        report,
    };
    (measured, trace)
}

/// The `p`th percentile in ms, interpolated linearly inside the histogram
/// bucket that holds it. `Histogram::percentile` returns the bucket's lower
/// edge, so on its own it reads the same for every seed whose percentile
/// falls in one bucket; the histogram keeps 32 linear sub-buckets per power
/// of two, which fixes each bucket's width.
pub fn percentile_ms(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Value (bucket lower edge) of the k-th smallest sample, 1-based.
    let kth = |k: u64| h.percentile(100.0 * (k as f64 - 0.5) / n as f64).as_nanos();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
    let lo = kth(rank);
    let first = 1 + partition(n, |k| kth(k) < lo);
    let past = 1 + partition(n, |k| kth(k) <= lo);
    let width = if lo < 32 {
        1
    } else {
        1u64 << (63 - lo.leading_zeros() - 5)
    };
    // The bucket that holds the largest sample ends there.
    let hi = (lo + width).min(h.max().as_nanos());
    let frac = ((p / 100.0) * n as f64 - (first - 1) as f64) / (past - first) as f64;
    (lo as f64 + frac.clamp(0.0, 1.0) * (hi - lo) as f64) / 1e6
}

/// Number of `k` in `1..=n` for which the monotone `pred` holds.
fn partition(n: u64, pred: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Phones a scenario spawns: caller and callee per pair, or callees plus
/// one pooled caller per client host in open-loop mode.
pub fn phones(s: &Scenario) -> u64 {
    if s.arrival_rate.is_some() {
        (s.pairs + s.client_hosts) as u64
    } else {
        2 * s.pairs as u64
    }
}

/// FNV-1a over the report's wall-clock-free fingerprint.
pub fn digest(report: &ScenarioReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in report.fingerprint().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Every virtual metric of a run: identical for every run of one seed.
pub fn virtual_metrics(wl: Workload, s: &Scenario, m: &Measured) -> Obj {
    let r = &m.report;
    let (a, b) = (&m.open, &m.close);
    let window_ops = r.throughput.ops();
    let per_op = |n: u64| n as f64 / window_ops.max(1) as f64;
    let attempts = r.call_attempts.max(1) as f64;
    let window_cpu_ns = (b.profile.total_ns() - a.profile.total_ns()).max(1) as f64;
    let share = |pred: &dyn Fn(&str) -> bool| {
        (b.profile_ns(pred) - a.profile_ns(pred)) as f64 / window_cpu_ns
    };
    let contention = |name: &str| {
        r.lock_contention
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, c)| *c)
    };
    let window_ns = s.measure.as_nanos() as f64;
    let call_phase = (b.at - (SimTime::ZERO + s.call_start)).as_secs_f64();
    let first_attempts = r.call_attempts - r.rejection_retries;
    let failed = r.call_failures + r.calls_rejected + r.calls_late;
    let (k0, k1) = (&a.kernel, &b.kernel);
    let (n0, n1) = (&a.net, &b.net);
    let (p0, p1) = (&a.proxy, &b.proxy);
    Obj::new()
        // End to end.
        .num("virt_ops_per_s", r.throughput.per_sec())
        .num("invite_p50_ms", m.invite_p50_ms)
        .num("invite_p999_ms", m.invite_p999_ms)
        .num("call_ok_ratio", 1.0 - failed as f64 / attempts)
        .num("call_fail_ratio", failed as f64 / attempts)
        // Ledgers the correctness checks compare.
        .int("window_ops", window_ops)
        .int("invite_samples", m.invite_samples)
        .int("registered", r.registered)
        .int("phones", phones(s))
        .int("call_attempts", r.call_attempts)
        .int("call_failures", r.call_failures)
        .int("calls_late", r.calls_late)
        .int("calls_rejected", r.calls_rejected)
        .int("proxy_overload_rejections", r.proxy.overload_rejections)
        .int(
            "proxy_overload_rejections_settled",
            m.settled.proxy.overload_rejections,
        )
        .int("proxy_parse_errors", r.proxy.parse_errors)
        .int("live_txns", m.live_txns as u64)
        // simos.
        .num("simos.syscalls_per_op", per_op(k1.syscalls - k0.syscalls))
        .num(
            "simos.context_switches_per_op",
            per_op(k1.context_switches - k0.context_switches),
        )
        .num(
            "simos.lock_yields_per_op",
            per_op(k1.lock_yields - k0.lock_yields),
        )
        .num("simos.wakeups_per_op", per_op(k1.wakeups - k0.wakeups))
        .num(
            "simos.preemptions_per_op",
            per_op(k1.preemptions - k0.preemptions),
        )
        .num(
            "simos.server_util",
            (b.server_busy_ns - a.server_busy_ns) as f64 / (s.server_cores as f64 * window_ns),
        )
        .num(
            "simos.cpu_share.kernel",
            share(&|t| t.starts_with("kernel/")),
        )
        .num(
            "simos.cpu_share.sched_yield",
            share(&|t| t == "kernel/sched_yield"),
        )
        .num(
            "simos.cpu_share.ipc",
            share(&|t| t == "kernel/ipc_send" || t == "kernel/ipc_recv"),
        )
        // simnet.
        .num("simnet.udp_sent_per_op", per_op(n1.udp_sent - n0.udp_sent))
        .int(
            "simnet.udp_queue_drops",
            n1.udp_queue_drops - n0.udp_queue_drops,
        )
        .num(
            "simnet.tcp_segments_per_op",
            per_op(n1.tcp_segments - n0.tcp_segments),
        )
        .num(
            "simnet.tcp_established_per_op",
            per_op(n1.tcp_established - n0.tcp_established),
        )
        .num(
            "simnet.sctp_messages_per_op",
            per_op(n1.sctp_messages - n0.sctp_messages),
        )
        .int("simnet.server_time_wait", r.server_time_wait as u64)
        // proxy.
        .num("proxy.lock_contention.txn_table", contention("txn_table"))
        .num("proxy.lock_contention.timer_list", contention("timer_list"))
        .num(
            "proxy.lock_contention.tcpconn_hash",
            contention("tcpconn_hash"),
        )
        .num(
            "proxy.fd_requests_per_op",
            per_op(p1.fd_requests - p0.fd_requests),
        )
        .num(
            "proxy.idle_scan_entries_per_op",
            per_op(p1.idle_scan_entries - p0.idle_scan_entries),
        )
        .num(
            "proxy.cpu_share.tcpconn_timeout",
            share(&|t| t == "user/tcpconn_timeout"),
        )
        .num(
            "proxy.txns_reaped_per_op",
            per_op(p1.txns_reaped - p0.txns_reaped),
        )
        .int("proxy.txn_timeouts", r.proxy.txn_timeouts)
        .int("proxy.parse_errors", r.proxy.parse_errors)
        // overload.
        .num(
            "overload.rejections_per_attempt",
            m.rejected_in_window as f64 / m.attempts_in_window.max(1) as f64,
        )
        .num(
            "overload.cpu_share.shed_fast",
            share(&|t| t == "user/shed_fast"),
        )
        // workload.
        .num("workload.offered_per_s", r.offered.per_sec())
        .num(
            "workload.arrival_rate_ratio",
            wl.arrival_rate()
                .map_or(0.0, |rate| first_attempts as f64 / (rate * call_phase)),
        )
        .num(
            "workload.rejection_retries_per_attempt",
            r.rejection_retries as f64 / attempts,
        )
        .num(
            "workload.phone_retransmits_per_attempt",
            r.phone_retransmits as f64 / attempts,
        )
        .int("workload.open_calls_peak", r.open_calls_peak)
        .num(
            "paper_ratio",
            wl.paper_ops()
                .map_or(0.0, |paper| r.throughput.per_sec() / paper as f64),
        )
}

/// Counts of the run the host-share estimates multiply probe costs by, all
/// taken over the measurement window.
pub fn window_counts(s: &Scenario, m: &Measured) -> Obj {
    let (a, b) = (&m.open, &m.close);
    let (n0, n1) = (&a.net, &b.net);
    let (p0, p1) = (&a.proxy, &b.proxy);
    let inbound = (p1.requests - p0.requests) + (p1.responses - p0.responses);
    let outbound = (p1.forwards - p0.forwards)
        + (p1.local_replies - p0.local_replies)
        + (p1.retransmits_sent - p0.retransmits_sent);
    let shed = p1.overload_rejections - p0.overload_rejections;
    Obj::new()
        .int("inbound_msgs", inbound)
        .int("outbound_msgs", outbound)
        .int(
            "framed_msgs",
            if s.proxy.transport == Transport::Tcp {
                inbound + outbound
            } else {
                0
            },
        )
        .int("core_msgs", inbound - shed)
        .int("core_sheds", shed)
        .int(
            "timer_passes",
            s.measure.as_nanos() / s.proxy.timer_tick.as_nanos().max(1),
        )
        .int("syscalls", b.kernel.syscalls - a.kernel.syscalls)
        .int("udp_datagrams", n1.udp_sent - n0.udp_sent)
        .int("tcp_segments", n1.tcp_segments - n0.tcp_segments)
        .int("tcp_conns", n1.tcp_established - n0.tcp_established)
        .int("sctp_messages", n1.sctp_messages - n0.sctp_messages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles_track_exact_ones() {
        let mut h = Histogram::new();
        for us in 1..=10_000 {
            h.record(SimDuration::from_micros(us));
        }
        // Exact: 5.000 ms and 9.990 ms; a bucket edge alone is up to 1/32 off.
        assert!((percentile_ms(&h, 50.0) - 5.0).abs() < 0.005);
        assert!((percentile_ms(&h, 99.9) - 9.99).abs() < 0.005);
        assert_eq!(percentile_ms(&Histogram::new(), 50.0), 0.0);
    }
}
