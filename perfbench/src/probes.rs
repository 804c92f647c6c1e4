//! Layer probes: host time per operation of one crate's public functions,
//! fed with inputs derived from a workload run (its transport, its phone
//! count, its message mix and its transaction-table size). The probes never
//! see which workload they serve; only [`Inputs`] reaches them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use siperf_overload::{LoadSignals, OverloadPolicy, Verdict};
use siperf_proxy::core::{FastAdmission, ProxyCore};
use siperf_simcore::queue::EventQueue;
use siperf_simcore::rng::SimRng;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::event::NetEvent;
use siperf_simnet::net::Network;
use siperf_simnet::{bytes_from, Bytes, EpId, HostId, NetConfig, SockAddr};
use siperf_simos::cost::CostModel;
use siperf_simos::kernel::Kernel;
use siperf_simos::process::{Nice, ResumeCtx};
use siperf_simos::syscall::{SysResult, Syscall};
use siperf_sip::framer::StreamFramer;
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::SipMessage;
use siperf_sip::parse::parse_message;
use siperf_workload::phone::callee_answer;
use siperf_workload::{Scenario, Transport};

use crate::json::Obj;
use crate::run::{phones, Measured};

/// Host time each probe spends measuring, after one warm-up batch.
const BUDGET: Duration = Duration::from_millis(300);
/// Calls replayed through one proxy core, bounded to keep memory small.
const MAX_LADDER_CALLS: usize = 4_000;
const MIN_LADDER_CALLS: usize = 250;
/// Messages in the sampled wire mix.
const MIX_LEN: usize = 2_048;
const DOMAIN: &str = "sip.lab";

/// Everything a probe may know about the run it stands in for.
pub struct Inputs {
    pub transport: Transport,
    pub stateful: bool,
    /// Registered phones: registrar size and user-name lengths.
    pub users: usize,
    /// Message-mix weights: completed calls, registrations and 503 sheds.
    pub calls: u64,
    pub registers: u64,
    pub sheds: u64,
    /// Pending events: one timer or in-flight message per process.
    pub queue_depth: usize,
    /// Live proxy transactions at the end of the window.
    pub txn_table: usize,
    pub net: NetConfig,
    pub costs: CostModel,
}

impl Inputs {
    pub fn from_run(s: &Scenario, m: &Measured) -> Inputs {
        let r = &m.report;
        Inputs {
            transport: s.proxy.transport,
            stateful: s.proxy.stateful,
            users: phones(s) as usize,
            calls: r.call_attempts - r.calls_rejected,
            registers: r.registered,
            sheds: r.proxy.overload_rejections,
            queue_depth: phones(s) as usize,
            txn_table: m.live_txns,
            net: s.net.clone(),
            costs: s.kernel_costs.clone(),
        }
    }

    /// Calls per proxy ladder: half the run's table (two transactions per
    /// call), within memory bounds.
    fn ladder_calls(&self) -> usize {
        (self.txn_table / 2).clamp(MIN_LADDER_CALLS, MAX_LADDER_CALLS)
    }

    pub fn to_json(&self) -> Obj {
        Obj::new()
            .str("transport", self.transport.token())
            .int("users", self.users as u64)
            .int("mix.calls", self.calls)
            .int("mix.registers", self.registers)
            .int("mix.sheds", self.sheds)
            .int("queue_depth", self.queue_depth as u64)
            .int("txn_table", self.txn_table as u64)
            .int("ladder_calls", self.ladder_calls() as u64)
            .int("ladder_txns", 2 * self.ladder_calls() as u64)
    }
}

/// Median ns per operation over batches run for [`BUDGET`], and the
/// number of operations timed.
struct Timing {
    ns_per_op: f64,
    samples: u64,
}

/// Times `batch` (which returns how many operations it performed) until the
/// budget is spent, after one untimed warm-up call.
fn time_batches(mut batch: impl FnMut() -> u64) -> Timing {
    time_parts(|| {
        let t = Instant::now();
        let ops = batch();
        (ops, t.elapsed())
    })
}

/// Like [`time_batches`] for a batch that times its own measured part and
/// returns `(operations, host time)`, leaving its set-up untimed.
fn time_parts(mut batch: impl FnMut() -> (u64, Duration)) -> Timing {
    black_box(batch());
    let start = Instant::now();
    let mut per_op = Vec::new();
    let mut samples = 0;
    while start.elapsed() < BUDGET || per_op.len() < 5 {
        let (ops, took) = batch();
        if ops > 0 {
            per_op.push(took.as_nanos() as f64 / ops as f64);
            samples += ops;
        }
    }
    per_op.sort_by(|a, b| a.total_cmp(b));
    Timing {
        ns_per_op: per_op[per_op.len() / 2],
        samples,
    }
}

// ------------------------------------------------------------ SIP traffic

fn caller(i: usize) -> (CallParty, SockAddr) {
    let src = SockAddr::new(HostId(1 + (2 * i % 3) as u32), 20_000 + (2 * i) as u16);
    let party = CallParty::new(format!("c{i}"), format!("{}:{}", src.host, src.port));
    (party, src)
}

fn callee(i: usize) -> (CallParty, SockAddr) {
    let src = SockAddr::new(
        HostId(1 + ((2 * i + 1) % 3) as u32),
        20_000 + (2 * i + 1) as u16,
    );
    let party = CallParty::new(format!("e{i}"), format!("{}:{}", src.host, src.port));
    (party, src)
}

fn pairs(inputs: &Inputs) -> usize {
    (inputs.users / 2).max(1)
}

/// A proxy core with every phone of the run registered.
fn registered_core(inputs: &Inputs, wire: Option<&mut Vec<Vec<u8>>>) -> ProxyCore {
    let mut core = ProxyCore::new("h0:5060".into(), inputs.transport, inputs.stateful);
    let token = inputs.transport.token();
    let mut wire = wire;
    for i in 0..pairs(inputs) {
        for (party, src) in [caller(i), callee(i)] {
            let reg = gen::register(
                &party,
                DOMAIN,
                1,
                &format!("z9hG4bKreg{}", party.user),
                token,
            );
            if let Some(w) = wire.as_deref_mut() {
                w.push(reg.to_bytes());
            }
            let plan = core.handle_message(SimTime::ZERO, reg, src);
            if let Some(w) = wire.as_deref_mut() {
                w.extend(plan.out.iter().map(|o| o.bytes.to_vec()));
            }
        }
    }
    core
}

/// The messages of `calls` complete call ladders, in the order the proxy
/// receives them, recorded once so that timed replays feed a fresh core the
/// same inputs.
struct Ladder {
    inputs: Vec<(SimTime, SipMessage, SockAddr)>,
    /// Every message of the ladder as it crosses the wire, both directions.
    wire_per_call: Vec<Vec<Vec<u8>>>,
    /// Each phone's REGISTER and the proxy's 200.
    wire_register: Vec<Vec<u8>>,
}

fn record_ladder(inputs: &Inputs, calls: usize) -> Ladder {
    let mut wire_register = Vec::new();
    let mut core = registered_core(inputs, Some(&mut wire_register));
    let token = inputs.transport.token();
    let mut recorded = Vec::new();
    let mut wire_per_call = Vec::new();
    let mut now = SimTime::ZERO + SimDuration::from_millis(1);
    let mut deliver = |core: &mut ProxyCore,
                       now: SimTime,
                       msg: SipMessage,
                       src: SockAddr,
                       wire: &mut Vec<Vec<u8>>|
     -> Vec<Vec<u8>> {
        wire.push(msg.to_bytes());
        recorded.push((now, msg.clone(), src));
        let out: Vec<Vec<u8>> = core
            .handle_message(now, msg, src)
            .out
            .into_iter()
            .map(|o| o.bytes.to_vec())
            .collect();
        wire.extend(out.iter().cloned());
        out
    };
    let parse = |b: &[u8]| parse_message(b).expect("the proxy emits well-formed SIP");
    for n in 0..calls {
        let i = n % pairs(inputs);
        let ((a, a_src), (b, b_src)) = (caller(i), callee(i));
        let call_id = format!("c{n}-{}", a.user);
        let mut wire = Vec::new();
        let invite = gen::invite(
            &a,
            &b,
            DOMAIN,
            &call_id,
            &format!("z9hG4bK{}i{n}", a.user),
            token,
        );
        let out = deliver(&mut core, now, invite, a_src, &mut wire);
        let fwd = parse(
            out.last()
                .expect("an INVITE to a registered callee is forwarded"),
        );
        for resp in callee_answer(&b.user, &fwd) {
            deliver(&mut core, now, parse(&resp), b_src, &mut wire);
        }
        let to_tag = format!("tt-{}", b.user);
        let ack = gen::ack(
            &a,
            &b,
            DOMAIN,
            &call_id,
            &to_tag,
            &format!("z9hG4bK{}a{n}", a.user),
            token,
        );
        deliver(&mut core, now, ack, a_src, &mut wire);
        let bye = gen::bye(
            &a,
            &b,
            DOMAIN,
            &call_id,
            &to_tag,
            &format!("z9hG4bK{}b{n}", a.user),
            token,
        );
        let out = deliver(&mut core, now, bye, a_src, &mut wire);
        let fwd = parse(out.last().expect("a BYE is forwarded"));
        for resp in callee_answer(&b.user, &fwd) {
            deliver(&mut core, now, parse(&resp), b_src, &mut wire);
        }
        wire_per_call.push(wire);
        now += SimDuration::from_micros(20);
    }
    Ladder {
        inputs: recorded,
        wire_per_call,
        wire_register,
    }
}

/// An overload policy that sheds every INVITE, to time the reject path.
#[derive(Debug)]
struct ShedAll;

impl OverloadPolicy for ShedAll {
    fn name(&self) -> &'static str {
        "shed-all"
    }

    fn admit(&mut self, _now: SimTime, _src: SockAddr, _load: &LoadSignals) -> Verdict {
        Verdict::Reject { retry_after: 1 }
    }
}

fn shed_invites(inputs: &Inputs, n: usize) -> Vec<(SipMessage, SockAddr)> {
    let token = inputs.transport.token();
    (0..n)
        .map(|k| {
            let i = k % pairs(inputs);
            let ((a, a_src), (b, _)) = (caller(i), callee(i));
            let inv = gen::invite(
                &a,
                &b,
                DOMAIN,
                &format!("s{k}-{}", a.user),
                &format!("z9hG4bK{}s{k}", a.user),
                token,
            );
            (inv, a_src)
        })
        .collect()
}

/// `MIX_LEN` wire messages drawn in the run's proportions of call-ladder,
/// registration and 503-shed traffic.
fn wire_mix(inputs: &Inputs, ladder: &Ladder, seed: u64) -> Vec<Vec<u8>> {
    let mut shed_core = registered_core(inputs, None);
    shed_core.set_overload_policy(Box::new(ShedAll));
    let mut shed_pairs = Vec::new();
    for (inv, src) in shed_invites(inputs, 64) {
        let bytes = inv.to_bytes();
        if let FastAdmission::Shed(plan) = shed_core.fast_admission(SimTime::ZERO, &inv, src) {
            shed_pairs.push([bytes, plan.out[0].bytes.to_vec()]);
        }
    }
    let per_call = ladder.wire_per_call[0].len() as f64;
    let w_calls = inputs.calls as f64 * per_call;
    let w_regs = inputs.registers as f64 * 2.0;
    let w_sheds = inputs.sheds as f64 * 2.0;
    let total = w_calls + w_regs + w_sheds;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut pick = |n: usize| rng.range_u64(0..n as u64) as usize;
    (0..MIX_LEN)
        .map(|_| {
            let x = pick(1 << 20) as f64 / (1 << 20) as f64 * total;
            if x < w_calls {
                let call = &ladder.wire_per_call[pick(ladder.wire_per_call.len())];
                call[pick(call.len())].clone()
            } else if x < w_calls + w_regs {
                ladder.wire_register[pick(ladder.wire_register.len())].clone()
            } else {
                shed_pairs[pick(shed_pairs.len())][pick(2)].clone()
            }
        })
        .collect()
}

// ----------------------------------------------------------------- probes

fn probe_queue(depth: usize, seed: u64) -> Timing {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) as u64 {
        q.schedule(SimTime::from_nanos(rng.range_u64(0..1_000_000)), i);
    }
    const OPS: u64 = 20_000;
    time_batches(|| {
        for _ in 0..OPS {
            let (at, ev) = q.pop().expect("the queue never drains");
            q.schedule(
                at + SimDuration::from_nanos(1 + rng.range_u64(0..1_000_000)),
                ev,
            );
        }
        OPS
    })
}

fn probe_kernel(inputs: &Inputs, seed: u64) -> Timing {
    let mut k = Kernel::new(inputs.net.clone(), inputs.costs.clone(), seed);
    let host = k.add_host(4);
    for p in 0..inputs.users.max(1) {
        let mut computing = false;
        let nap = SimDuration::from_micros(500 + (p as u64 % 997));
        k.spawn(
            host,
            Nice::NORMAL,
            format!("p{p}"),
            Box::new(move |_: &mut ResumeCtx, _: SysResult| {
                computing = !computing;
                if computing {
                    Syscall::Compute {
                        ns: 1_000,
                        tag: "user/work",
                    }
                } else {
                    Syscall::Sleep(nap)
                }
            }),
        );
    }
    let slice = SimDuration::from_millis(5);
    k.run_until(k.now() + slice);
    time_batches(|| {
        let before = k.stats().syscalls;
        let until = k.now() + slice;
        k.run_until(until);
        k.stats().syscalls - before
    })
}

fn probe_parse(mix: &[Vec<u8>]) -> Timing {
    time_batches(|| {
        for m in mix {
            black_box(parse_message(black_box(m)).expect("the mix is well-formed"));
        }
        mix.len() as u64
    })
}

fn probe_serialize(mix: &[Vec<u8>]) -> Timing {
    let msgs: Vec<SipMessage> = mix
        .iter()
        .map(|m| parse_message(m).expect("the mix is well-formed"))
        .collect();
    time_batches(|| {
        for m in &msgs {
            black_box(black_box(m).to_bytes());
        }
        msgs.len() as u64
    })
}

fn probe_framer(mix: &[Vec<u8>]) -> Timing {
    let stream: Vec<u8> = mix.concat();
    // One maximum-size segment at a time, as a TCP reader sees it.
    const MSS: usize = 1448;
    time_batches(|| {
        let mut f = StreamFramer::new();
        let mut n = 0;
        for chunk in stream.chunks(MSS) {
            f.push(black_box(chunk));
            while let Some(m) = f.next_message().expect("the stream is well-framed") {
                black_box(m);
                n += 1;
            }
        }
        n
    })
}

/// A bare network plus the event queue the kernel would run it with.
struct Pump {
    net: Network,
    q: EventQueue<NetEvent>,
    now: SimTime,
}

impl Pump {
    fn new(cfg: &NetConfig, seed: u64) -> (Pump, HostId, HostId) {
        let mut net = Network::new(cfg.clone(), seed);
        let a = net.add_host();
        let b = net.add_host();
        let pump = Pump {
            net,
            q: EventQueue::new(),
            now: SimTime::ZERO,
        };
        (pump, a, b)
    }

    /// Delivers every pending wire event, advancing virtual time.
    fn settle(&mut self) {
        loop {
            for (t, ev) in self.net.take_events() {
                self.q.schedule(t, ev);
            }
            black_box(self.net.take_outcomes());
            match self.q.pop() {
                Some((t, ev)) => {
                    self.now = t;
                    self.net.handle_event(t, ev);
                }
                None => break,
            }
        }
    }
}

fn payloads(mix: &[Vec<u8>], n: usize) -> Vec<Bytes> {
    mix.iter().take(n).map(|m| bytes_from(m.clone())).collect()
}

fn probe_udp(inputs: &Inputs, mix: &[Vec<u8>], seed: u64) -> Timing {
    let (mut p, ha, hb) = Pump::new(&inputs.net, seed);
    let a = p.net.udp_bind(ha, 5060).expect("fresh host");
    let b = p.net.udp_bind(hb, 5060).expect("fresh host");
    let to = SockAddr::new(hb, 5060);
    let batch = payloads(mix, 256);
    time_batches(|| {
        for d in &batch {
            p.net
                .udp_send(p.now, a, to, d.clone())
                .expect("bound socket");
        }
        p.settle();
        let mut n = 0;
        while let Ok(d) = p.net.udp_try_recv(b) {
            black_box(d);
            n += 1;
        }
        n
    })
}

fn tcp_pair(p: &mut Pump, ha: HostId, hb: HostId) -> (EpId, EpId) {
    let listener = p.net.tcp_listen(hb, 5060, 1024).expect("fresh host");
    let c = p
        .net
        .tcp_connect(p.now, ha, SockAddr::new(hb, 5060))
        .expect("ports available");
    p.settle();
    let (s, _) = p.net.tcp_try_accept(listener).expect("handshake done");
    (c, s)
}

fn probe_tcp_segments(inputs: &Inputs, mix: &[Vec<u8>], seed: u64) -> Timing {
    let (mut p, ha, hb) = Pump::new(&inputs.net, seed);
    let (c, s) = tcp_pair(&mut p, ha, hb);
    let batch = payloads(mix, 32);
    time_batches(|| {
        let before = p.net.stats().tcp_segments;
        for d in &batch {
            p.net.tcp_send(p.now, c, d.clone()).expect("window open");
        }
        p.settle();
        while let Ok((data, _)) = p.net.tcp_try_recv(s, 1 << 16) {
            if data.is_empty() {
                break;
            }
            black_box(data);
        }
        p.settle();
        p.net.stats().tcp_segments - before
    })
}

fn probe_tcp_conns(inputs: &Inputs, seed: u64) -> Timing {
    let (mut p, ha, hb) = Pump::new(&inputs.net, seed);
    let listener = p.net.tcp_listen(hb, 5060, 1024).expect("fresh host");
    let to = SockAddr::new(hb, 5060);
    const CYCLES: u64 = 64;
    time_batches(|| {
        for _ in 0..CYCLES {
            let c = p.net.tcp_connect(p.now, ha, to).expect("ports available");
            p.settle();
            let (s, _) = p.net.tcp_try_accept(listener).expect("handshake done");
            p.net.close(p.now, c);
            p.net.close(p.now, s);
            p.settle();
        }
        CYCLES
    })
}

fn probe_sctp(inputs: &Inputs, mix: &[Vec<u8>], seed: u64) -> Timing {
    let (mut p, ha, hb) = Pump::new(&inputs.net, seed);
    let a = p.net.sctp_bind(ha, 5060).expect("fresh host");
    let b = p.net.sctp_bind(hb, 5060).expect("fresh host");
    let to = SockAddr::new(hb, 5060);
    let batch = payloads(mix, 256);
    time_batches(|| {
        for d in &batch {
            p.net
                .sctp_send(p.now, a, to, d.clone())
                .expect("bound socket");
        }
        p.settle();
        let mut n = 0;
        while let Ok(m) = p.net.sctp_try_recv(b) {
            black_box(m);
            n += 1;
        }
        n
    })
}

/// Replays the recorded ladder through a fresh registered core per batch;
/// also times `timer_pass` over the table the replay leaves behind.
fn probe_core(inputs: &Inputs, ladder: &Ladder) -> (Timing, Timing) {
    let last = ladder.inputs.last().map_or(SimTime::ZERO, |(t, _, _)| *t);
    let mut pass_ns = Vec::new();
    let mut passes = 0;
    let msgs = time_parts(|| {
        let mut core = registered_core(inputs, None);
        let batch = ladder.inputs.clone();
        let t = Instant::now();
        for (now, msg, src) in batch {
            black_box(core.handle_message(now, msg, src));
        }
        let took = t.elapsed();
        // Every transaction has completed and lingers: a pass examines
        // each one and reaps none.
        let tp = Instant::now();
        for _ in 0..4 {
            black_box(core.timer_pass(last));
        }
        pass_ns.push(tp.elapsed().as_nanos() as f64 / 4.0);
        passes += 4;
        (ladder.inputs.len() as u64, took)
    });
    pass_ns.sort_by(|a, b| a.total_cmp(b));
    let pass = Timing {
        ns_per_op: pass_ns[pass_ns.len() / 2],
        samples: passes,
    };
    (msgs, pass)
}

fn probe_shed(inputs: &Inputs) -> Timing {
    let invites = shed_invites(inputs, 1_024);
    let mut core = registered_core(inputs, None);
    core.set_overload_policy(Box::new(ShedAll));
    time_batches(|| {
        let mut n = 0;
        for (inv, src) in &invites {
            if let FastAdmission::Shed(plan) = core.fast_admission(SimTime::ZERO, inv, *src) {
                black_box(plan);
                n += 1;
            }
        }
        n
    })
}

fn put(o: Obj, name: &str, t: Timing) -> Obj {
    o.num(name, t.ns_per_op)
        .int(&format!("{name}.samples"), t.samples)
}

/// Runs every probe and returns ns per operation with sample counts.
pub fn run_all(inputs: &Inputs, seed: u64) -> Obj {
    let ladder = record_ladder(inputs, inputs.ladder_calls());
    let mix = wire_mix(inputs, &ladder, seed);
    let (core_msg, core_pass) = probe_core(inputs, &ladder);
    let mut o = Obj::new();
    o = put(
        o,
        "simcore.queue.ns_per_event",
        probe_queue(inputs.queue_depth, seed),
    );
    o = put(o, "simos.kernel.ns_per_syscall", probe_kernel(inputs, seed));
    o = put(o, "sip.parse.ns_per_msg", probe_parse(&mix));
    o = put(o, "sip.serialize.ns_per_msg", probe_serialize(&mix));
    o = put(o, "sip.framer.ns_per_msg", probe_framer(&mix));
    o = put(
        o,
        "simnet.udp.ns_per_datagram",
        probe_udp(inputs, &mix, seed),
    );
    o = put(
        o,
        "simnet.tcp.ns_per_segment",
        probe_tcp_segments(inputs, &mix, seed),
    );
    o = put(
        o,
        "simnet.tcp.ns_per_conn_cycle",
        probe_tcp_conns(inputs, seed),
    );
    o = put(
        o,
        "simnet.sctp.ns_per_message",
        probe_sctp(inputs, &mix, seed),
    );
    o = put(o, "proxy.core.ns_per_msg", core_msg);
    o = put(o, "proxy.core.ns_per_shed", probe_shed(inputs));
    put(o, "proxy.core.ns_per_timer_pass", core_pass)
}
