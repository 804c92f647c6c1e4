//! Transport-independent phone behaviour.
//!
//! The benchmark simulates thousands of phones (§4.2): callers originate
//! calls, callees answer immediately. [`CallEngine`] is the caller's brain —
//! it builds requests, keeps each in-flight call's RFC 3261 retransmission
//! clock, and decides what to do with each response — independent of how
//! bytes reach the proxy, so the logic is unit-testable.
//!
//! Around the engine sits the phone's front end, which the UDP/SCTP and
//! TCP phone processes both drive: it registers (with the retry rule of
//! [`MAX_REG_ATTEMPTS`]), picks the poll loop and its timeout, dispatches
//! each inbound message to registration, the caller engine or the callee's
//! answering machine, and holds ring-delayed 200 OKs. The processes keep
//! only their I/O.
//!
//! One engine serves both caller kinds; only the [`Arrivals`] policy
//! differs. The paper's closed loop keeps exactly one call in flight and
//! starts the next when the last ends, so a slow proxy automatically slows
//! the offered load. The open loop of the overload literature (Hong/Huang/
//! Yan; Shen/Schulzrinne) originates calls on a seeded Poisson clock
//! *regardless of how many are outstanding*, which is what lets offered load
//! exceed capacity and the goodput cliff appear.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::rc::Rc;

use siperf_proxy::config::Transport;
use siperf_simcore::rng::SimRng;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;
use siperf_simnet::endpoint::{bytes_from, Bytes};
use siperf_simos::syscall::Syscall;
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::{Method, SipMessage, StatusCode};
use siperf_sip::parse::parse_message;
use siperf_sip::txn::{RetransClock, TimerVerdict, TIMEOUT};

use crate::stats::WorkloadStats;

/// How many registration attempts a phone makes before giving up and
/// exiting. Keeps an unreachable proxy from panicking the whole simulation
/// while still bounding each phone's patience.
pub const MAX_REG_ATTEMPTS: u32 = 5;

/// Ceiling on the 503 retry backoff in seconds, however many rejections
/// pile up and whatever `Retry-After` the proxy advertises.
pub const REJECT_BACKOFF_CAP_SECS: u64 = 8;

/// [`REJECT_BACKOFF_CAP_SECS`] as a duration.
pub const REJECT_BACKOFF_CAP: SimDuration = SimDuration::from_secs(REJECT_BACKOFF_CAP_SECS);

/// Computes the capped-exponential 503 backoff with bounded "equal jitter":
/// half the nominal delay is kept, the other half drawn uniformly from the
/// phone's own RNG stream, so the delay lands in `[nominal/2, nominal]`.
/// Without the jitter every phone shed in the same burst would wake on
/// exactly the same virtual tick `retry_after · 2^k` later and re-offer its
/// load in lockstep; with it the retries spread out while the delay stays
/// below [`REJECT_BACKOFF_CAP`] and replays identically from the seed.
pub fn reject_backoff(retry_after: u32, consecutive_rejects: u32, rng: &mut SimRng) -> SimDuration {
    let base = u64::from(retry_after.max(1));
    let shifted = base
        .checked_shl(consecutive_rejects.min(16))
        .unwrap_or(u64::MAX);
    let nominal_ns = shifted.min(REJECT_BACKOFF_CAP_SECS) * 1_000_000_000;
    let half = nominal_ns / 2;
    SimDuration::from_nanos(half + rng.range_u64(0..half + 1))
}

/// Where a caller's new calls come from.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrivals {
    /// The paper's closed loop: one call at a time to a fixed callee; the
    /// first starts at `call_start`, each next one the moment the last ends.
    Closed {
        /// User name of the callee this caller always dials.
        peer: String,
    },
    /// Open loop: a seeded Poisson process from `call_start` on, whatever
    /// the outcome of earlier calls. A failed call starts no successor.
    Poisson {
        /// Mean calls per second this caller originates.
        rate: f64,
        /// Number of callees (`e0`..`e{n-1}`), dialled uniformly.
        callees: usize,
    },
}

/// Whether a phone initiates calls or answers them.
#[derive(Debug, Clone, PartialEq)]
pub enum Role {
    /// Initiates INVITE and BYE transactions as its arrivals dictate.
    Caller(Arrivals),
    /// Answers: 180 + 200 to INVITE, 200 to BYE.
    Callee,
}

/// Static description of one phone process.
#[derive(Debug, Clone)]
pub struct PhoneCfg {
    /// SIP user name.
    pub user: String,
    /// Caller (with its arrival policy) or callee.
    pub role: Role,
    /// The phone's fixed local port (contact/listen port).
    pub port: u16,
    /// The proxy's address.
    pub proxy: SockAddr,
    /// SIP domain served by the proxy.
    pub domain: String,
    /// The transport: Via/Contact token, reliability and process kind.
    pub transport: Transport,
    /// When callers may start dialing.
    pub call_start: SimTime,
    /// Per-phone startup stagger before registering.
    pub stagger: SimDuration,
    /// Reconnect after this many operations (TCP; `None` = persistent).
    pub ops_per_conn: Option<u32>,
    /// Abandon (CANCEL) every k-th call while it rings (`None` = never).
    pub cancel_every: Option<u64>,
    /// How long callees ring before answering 200 (zero = instant answer,
    /// the paper's workload; nonzero makes CANCEL races winnable).
    pub ring_delay: SimDuration,
    /// Setup-delay budget: a call whose INVITE transaction takes longer
    /// still completes (the proxy paid for it) but scores zero goodput,
    /// the way the overload literature counts sessions established past
    /// their deadline. `None` counts every completion.
    pub setup_deadline: Option<SimDuration>,
    /// CPU charged per message handled by the phone.
    pub proc_ns: u64,
    /// Seed for the phone's private RNG stream (Poisson gaps, callee
    /// choice, 503 backoff jitter). Each phone gets its own stream so its
    /// draws never perturb any other phone and same-seed runs replay
    /// bit-identically.
    pub seed: u64,
    /// Shared result sink.
    pub stats: Rc<RefCell<WorkloadStats>>,
}

impl PhoneCfg {
    /// This phone as a SIP party (contact host is its `hN:port`).
    pub fn party(&self, host: siperf_simnet::HostId) -> CallParty {
        CallParty::new(self.user.clone(), format!("{}:{}", host, self.port))
    }

    /// Builds this phone's REGISTER request.
    pub fn register_msg(&self, host: siperf_simnet::HostId) -> Bytes {
        let party = self.party(host);
        let msg = gen::register(
            &party,
            &self.domain,
            1,
            &format!("z9hG4bKreg{}", self.user),
            self.transport.token(),
        );
        bytes_from(msg.to_bytes())
    }

    /// The call engine of a caller; `None` for a callee.
    pub fn engine(&self, host: siperf_simnet::HostId) -> Option<CallEngine> {
        match &self.role {
            Role::Caller(arrivals) => Some(CallEngine::new(self, arrivals.clone(), host)),
            Role::Callee => None,
        }
    }
}

/// Phase of one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallPhase {
    /// INVITE sent; waiting for any response, then the 200.
    AwaitInvite,
    /// ACK and BYE sent; waiting for the BYE's 200.
    AwaitByeOk,
}

/// Per-call transaction state held in the engine's pool.
#[derive(Debug)]
struct Call {
    call_id: String,
    peer: CallParty,
    phase: CallPhase,
    clock: RetransClock,
    deadline: SimTime,
    cur_msg: Bytes,
    txn_start: SimTime,
    cancel_sent: bool,
    /// The call hit a transport fault (reset/EOF) and was re-driven; when it
    /// still completes, it counts as recovered.
    disturbed: bool,
    /// Setup exceeded the deadline budget; finish the call but record no
    /// goodput for it.
    late: bool,
    /// The instant this call is filed under in the engine's wake set.
    wake: SimTime,
}

impl Call {
    /// The instant this call next needs the engine's attention.
    fn next_event(&self) -> SimTime {
        if self.clock.is_stopped() {
            self.deadline
        } else {
            self.clock.next_at().min(self.deadline)
        }
    }
}

/// The caller's state machine: the arrival policy, a pool of in-flight
/// calls (one under the closed loop), and the jittered 503 retry queue.
/// Transport processes feed it timer expiries and responses and transmit
/// whatever it returns, in order, to the proxy.
#[derive(Debug)]
pub struct CallEngine {
    party: CallParty,
    domain: String,
    transport: Transport,
    arrivals: Arrivals,
    cancel_every: Option<u64>,
    setup_deadline: Option<SimDuration>,
    /// Private stream: Poisson gaps, callee choice, 503 backoff jitter.
    rng: SimRng,
    stats: Rc<RefCell<WorkloadStats>>,
    call_no: u64,
    /// Per-call state, keyed by origination number (branch IDs and the
    /// Call-ID derive from it). A BTreeMap so that any iteration is
    /// deterministic by construction.
    calls: BTreeMap<u64, Call>,
    /// Exactly one entry per pooled call: its next event and its key. Kept
    /// in step with every state change, so the engine never wakes at an
    /// instant when nothing is due.
    wakes: BTreeSet<(SimTime, u64)>,
    /// Jittered retry instants from 503-shed calls.
    retries: BinaryHeap<Reverse<SimTime>>,
    /// Next arrival: the next Poisson instant, or `call_start` for the
    /// closed loop's first call and [`SimTime::MAX`] after it.
    next_arrival: SimTime,
    /// Consecutive 503s without an admitted call (backoff exponent).
    consecutive_rejects: u32,
    /// Operations completed since the engine started (drives reconnects).
    pub ops_done: u64,
}

impl CallEngine {
    /// Creates the engine for one caller.
    ///
    /// # Panics
    ///
    /// Panics if a Poisson rate is not positive and finite or no callees
    /// exist to dial.
    pub fn new(cfg: &PhoneCfg, arrivals: Arrivals, host: siperf_simnet::HostId) -> Self {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let next_arrival = match arrivals {
            Arrivals::Closed { .. } => cfg.call_start,
            Arrivals::Poisson { rate, callees } => {
                assert!(
                    rate.is_finite() && rate > 0.0,
                    "open-loop arrival rate must be positive, got {rate}"
                );
                assert!(callees > 0, "open-loop caller needs callees to dial");
                cfg.call_start + poisson_gap(&mut rng, rate)
            }
        };
        CallEngine {
            party: cfg.party(host),
            domain: cfg.domain.clone(),
            transport: cfg.transport,
            arrivals,
            cancel_every: cfg.cancel_every,
            setup_deadline: cfg.setup_deadline,
            rng,
            stats: cfg.stats.clone(),
            call_no: 0,
            calls: BTreeMap::new(),
            wakes: BTreeSet::new(),
            retries: BinaryHeap::new(),
            next_arrival,
            consecutive_rejects: 0,
            ops_done: 0,
        }
    }

    /// Number of calls currently in flight.
    pub fn in_flight(&self) -> usize {
        self.calls.len()
    }

    fn new_clock(&self, now: SimTime) -> RetransClock {
        if self.transport.is_reliable() {
            RetransClock::reliable(now)
        } else {
            RetransClock::new(now, Method::Invite)
        }
    }

    /// Originates one call right now, returning its INVITE.
    fn start_call(&mut self, now: SimTime) -> Bytes {
        self.call_no += 1;
        let no = self.call_no;
        let (prefix, peer) = match &self.arrivals {
            Arrivals::Closed { peer } => ('c', peer.clone()),
            Arrivals::Poisson { callees, .. } => {
                ('o', format!("e{}", self.rng.range_usize(0..*callees)))
            }
        };
        let peer = CallParty::new(peer, String::new());
        let call_id = format!("{prefix}{no}-{}", self.party.user);
        let invite = gen::invite(
            &self.party,
            &peer,
            &self.domain,
            &call_id,
            &branch(&self.party.user, 'i', no),
            self.transport.token(),
        );
        let bytes = bytes_from(invite.to_bytes());
        let call = Call {
            call_id,
            peer,
            phase: CallPhase::AwaitInvite,
            clock: self.new_clock(now),
            deadline: now + TIMEOUT,
            cur_msg: bytes.clone(),
            txn_start: now,
            cancel_sent: false,
            disturbed: false,
            late: false,
            wake: SimTime::MAX,
        };
        self.calls.insert(no, call);
        self.reschedule(no);
        let mut stats = self.stats.borrow_mut();
        stats.record_attempt(now);
        if let Arrivals::Poisson { .. } = self.arrivals {
            stats.open_calls_peak = stats.open_calls_peak.max(self.calls.len() as u64);
        }
        bytes
    }

    /// The pool key of the call a response belongs to, if still pooled.
    fn lookup(&self, call_id: &str) -> Option<u64> {
        let no = call_id.get(1..)?.split('-').next()?.parse().ok()?;
        let call = self.calls.get(&no)?;
        (call.call_id == call_id).then_some(no)
    }

    /// Re-files call `no` under its next event after a state change.
    fn reschedule(&mut self, no: u64) {
        let call = self.calls.get_mut(&no).expect("pooled call");
        self.wakes.remove(&(call.wake, no));
        call.wake = call.next_event();
        self.wakes.insert((call.wake, no));
    }

    fn remove_call(&mut self, no: u64) {
        let call = self.calls.remove(&no).expect("pooled call");
        self.wakes.remove(&(call.wake, no));
    }

    /// Retires call `no`; under the closed loop its successor starts now.
    fn retire(&mut self, now: SimTime, no: u64, out: &mut Vec<Bytes>) {
        self.remove_call(no);
        if let Arrivals::Closed { .. } = self.arrivals {
            out.push(self.start_call(now));
        }
    }

    fn fail_call(&mut self, now: SimTime, no: u64, out: &mut Vec<Bytes>) {
        self.stats.borrow_mut().call_failures += 1;
        self.retire(now, no, out);
    }

    /// Transport-fault recovery: the in-flight requests (INVITE or BYE) to
    /// send again after a reconnect, each call marked disturbed so a
    /// later completion counts as recovered. Empty when nothing is in
    /// flight — reconnecting between calls needs no re-drive.
    pub fn redrive(&mut self, now: SimTime) -> Vec<Bytes> {
        let mut out = Vec::new();
        let nos: Vec<u64> = self.calls.keys().copied().collect();
        for no in nos {
            let clock = self.new_clock(now);
            let call = self.calls.get_mut(&no).expect("pooled call");
            // One re-drive per call: the first disturbance re-sends the
            // in-flight request; further connection losses (e.g. a server
            // aggressively reaping idle connections) must not turn one call
            // into a reconnect storm.
            if call.disturbed {
                continue;
            }
            call.disturbed = true;
            // Restart the retransmission clock relative to the reconnect so
            // an unreliable phone does not fire a burst of catch-up
            // retransmits.
            call.clock = clock;
            out.push(call.cur_msg.clone());
            self.reschedule(no);
        }
        out
    }

    /// When the transport should next wake the engine if nothing arrives
    /// ([`SimTime::MAX`] when nothing is pending).
    pub fn next_wake(&self) -> SimTime {
        let mut next = self.next_arrival;
        if let Some(&(at, _)) = self.wakes.first() {
            next = next.min(at);
        }
        if let Some(&Reverse(at)) = self.retries.peek() {
            next = next.min(at);
        }
        next
    }

    /// Clock tick: retransmit or expire due calls, fire due 503 retries and
    /// arrivals, and return everything to transmit.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<Bytes> {
        let mut out = Vec::new();

        // Due per-call events (retransmission clocks and Timer B deadlines).
        while let Some(&(at, no)) = self.wakes.first() {
            if at > now {
                break;
            }
            let call = self.calls.get_mut(&no).expect("filed call is pooled");
            if now >= call.deadline {
                self.fail_call(now, no, &mut out);
                continue;
            }
            match call.clock.check(now) {
                TimerVerdict::Retransmit { .. } => {
                    self.stats.borrow_mut().phone_retransmits += 1;
                    out.push(call.cur_msg.clone());
                    self.reschedule(no);
                }
                TimerVerdict::TimedOut => self.fail_call(now, no, &mut out),
                // A due wake has a running clock or a passed deadline.
                TimerVerdict::Wait { .. } | TimerVerdict::Done => self.reschedule(no),
            }
        }

        // Due 503 retries (the amplification the counters measure).
        while let Some(&Reverse(at)) = self.retries.peek() {
            if at > now {
                break;
            }
            self.retries.pop();
            self.stats.borrow_mut().rejection_retries += 1;
            out.push(self.start_call(now));
        }

        // Due arrivals — under the open loop unconditionally, whatever is
        // outstanding.
        while self.next_arrival <= now {
            out.push(self.start_call(now));
            self.next_arrival = match self.arrivals {
                Arrivals::Closed { .. } => SimTime::MAX,
                Arrivals::Poisson { rate, .. } => {
                    self.next_arrival + poisson_gap(&mut self.rng, rate)
                }
            };
        }
        out
    }

    /// Feeds a parsed response; returns what to transmit next.
    pub fn on_response(&mut self, now: SimTime, msg: &SipMessage) -> Vec<Bytes> {
        let mut out = Vec::new();
        // Phones only expect responses; a request here is a protocol
        // surprise we ignore (e.g. a very late retransmission). The proxy's
        // 200 to our CANCEL needs nothing either; the 487 follows.
        let Some(code) = msg.status() else {
            return out;
        };
        if msg.cseq_method == Method::Cancel {
            return out;
        }
        let Some(no) = self.lookup(&msg.call_id) else {
            return out; // stale call
        };
        let call = self.calls.get_mut(&no).expect("looked up");
        match (call.phase, msg.cseq_method) {
            (CallPhase::AwaitInvite, Method::Invite) if code.is_provisional() => {
                // Any response stops INVITE retransmissions (Timer A).
                call.clock.stop();
                let abandon = code == StatusCode::RINGING
                    && !call.cancel_sent
                    && self.cancel_every.is_some_and(|k| no.is_multiple_of(k));
                if abandon {
                    // Abandon while ringing (RFC 3261 §9: CANCEL only after
                    // a provisional response).
                    call.cancel_sent = true;
                    let cancel = gen::cancel(
                        &self.party,
                        &call.peer,
                        &self.domain,
                        &call.call_id,
                        &branch(&self.party.user, 'i', no),
                        self.transport.token(),
                    );
                    out.push(bytes_from(cancel.to_bytes()));
                }
                self.reschedule(no);
            }
            (CallPhase::AwaitInvite, Method::Invite)
                if code == StatusCode::REQUEST_TERMINATED && call.cancel_sent =>
            {
                // Our CANCEL won: the call ends cleanly, not as a failure.
                self.stats.borrow_mut().calls_cancelled += 1;
                self.retire(now, no, &mut out);
            }
            (CallPhase::AwaitInvite, Method::Invite) if code == StatusCode::SERVICE_UNAVAILABLE => {
                // The proxy shed us. Honor Retry-After with capped,
                // jittered exponential backoff: the advertised wait doubles
                // per consecutive rejection so a persistently overloaded
                // proxy sees the retry rate fall, and the jitter spreads a
                // shedding burst's retries out instead of waking every
                // rejected caller on the same tick. The retry replaces the
                // closed loop's successor; the open loop's arrivals keep
                // coming regardless.
                let delay = reject_backoff(
                    msg.retry_after.unwrap_or(1),
                    self.consecutive_rejects,
                    &mut self.rng,
                );
                self.consecutive_rejects = self.consecutive_rejects.saturating_add(1);
                self.remove_call(no);
                self.retries.push(Reverse(now + delay));
                self.stats.borrow_mut().record_rejection(now);
            }
            (CallPhase::AwaitInvite, Method::Invite) if code == StatusCode::OK => {
                let to_tag = msg.to.tag.clone().unwrap_or_else(|| "t".into());
                let started = call.txn_start;
                let late = self
                    .setup_deadline
                    .is_some_and(|budget| now - started > budget);
                {
                    let mut stats = self.stats.borrow_mut();
                    if call.disturbed {
                        call.disturbed = false;
                        stats.recovered_calls += 1;
                    }
                    if late {
                        stats.calls_late += 1;
                    } else {
                        stats.record_invite(started, now);
                    }
                }
                // Acknowledge and immediately hang up (§4.2's workload:
                // zero hold time, equal invites and byes).
                let token = self.transport.token();
                let ack = gen::ack(
                    &self.party,
                    &call.peer,
                    &self.domain,
                    &call.call_id,
                    &to_tag,
                    &branch(&self.party.user, 'a', no),
                    token,
                );
                let bye = gen::bye(
                    &self.party,
                    &call.peer,
                    &self.domain,
                    &call.call_id,
                    &to_tag,
                    &branch(&self.party.user, 'b', no),
                    token,
                );
                let bye_bytes = bytes_from(bye.to_bytes());
                let clock = self.new_clock(now);
                let call = self.calls.get_mut(&no).expect("looked up");
                call.phase = CallPhase::AwaitByeOk;
                call.clock = clock;
                call.deadline = now + TIMEOUT;
                call.cur_msg = bye_bytes.clone();
                call.txn_start = now;
                call.late = late;
                self.reschedule(no);
                self.consecutive_rejects = 0;
                self.ops_done += 1;
                out.push(bytes_from(ack.to_bytes()));
                out.push(bye_bytes);
            }
            // Final error: abandon the call.
            (CallPhase::AwaitInvite, Method::Invite) => self.fail_call(now, no, &mut out),
            (CallPhase::AwaitByeOk, Method::Bye) if code == StatusCode::OK => {
                let started = call.txn_start;
                {
                    let mut stats = self.stats.borrow_mut();
                    if call.disturbed {
                        stats.recovered_calls += 1;
                    }
                    if !call.late {
                        stats.record_bye(started, now);
                    }
                }
                self.ops_done += 1;
                self.retire(now, no, &mut out);
            }
            (CallPhase::AwaitByeOk, Method::Bye) if !code.is_provisional() => {
                self.fail_call(now, no, &mut out)
            }
            // A provisional BYE response, or a duplicate/late response for
            // the other phase: ignore.
            _ => {}
        }
        out
    }
}

/// Branch of a caller's call `no`: its INVITE (`i`), ACK (`a`) or BYE (`b`).
fn branch(user: &str, kind: char, no: u64) -> String {
    format!("z9hG4bK{user}{kind}{no}")
}

/// One exponential inter-arrival gap at `rate` calls per second (at least
/// a nanosecond, so arrivals always advance).
fn poisson_gap(rng: &mut SimRng, rate: f64) -> SimDuration {
    SimDuration::from_nanos(rng.exponential(1e9 / rate).max(1.0) as u64)
}

/// What a callee sends back for one request: some messages immediately,
/// and possibly one (the 200 to an INVITE) after the ring delay.
#[derive(Debug, Default)]
pub struct CalleeAnswer {
    /// Sent right away.
    pub immediate: Vec<Bytes>,
    /// Sent after the ring delay (the INVITE's 200 OK).
    pub delayed_ok: Option<Bytes>,
}

/// Callee-side answering machine with an optional ring time: 180 Ringing
/// goes out immediately; the 200 OK follows after `ring` (immediately when
/// zero, the paper's workload).
pub fn callee_answer_timed(
    user: &str,
    msg: &SipMessage,
    ring: siperf_simcore::time::SimDuration,
) -> CalleeAnswer {
    let mut immediate = callee_answer(user, msg);
    let delayed_ok = (msg.method() == Some(Method::Invite) && !ring.is_zero()).then(|| {
        immediate
            .pop()
            .expect("an INVITE is answered 180, then 200")
    });
    CalleeAnswer {
        immediate,
        delayed_ok,
    }
}

/// Callee-side answering machine: builds the responses a phone returns for
/// an incoming request (RFC 3261 UAS happy path with zero ring time).
pub fn callee_answer(user: &str, msg: &SipMessage) -> Vec<Bytes> {
    let Some(method) = msg.method() else {
        return Vec::new(); // responses need no answer
    };
    let to_tag = format!("tt-{user}");
    match method {
        Method::Invite => {
            let contact = msg.to.uri.clone();
            vec![
                bytes_from(gen::response(StatusCode::RINGING, msg, Some(&to_tag), None).to_bytes()),
                bytes_from(
                    gen::response(StatusCode::OK, msg, Some(&to_tag), Some(contact)).to_bytes(),
                ),
            ]
        }
        Method::Bye => vec![bytes_from(
            gen::response(StatusCode::OK, msg, Some(&to_tag), None).to_bytes(),
        )],
        Method::Cancel => {
            // 200 for the CANCEL itself, then the INVITE's final answer:
            // 487 Request Terminated on the same branch and CSeq number
            // (RFC 3261 §9.2 — the CANCEL carries both by construction).
            let ok = gen::response(StatusCode::OK, msg, Some(&to_tag), None);
            let mut terminated =
                gen::response(StatusCode::REQUEST_TERMINATED, msg, Some(&to_tag), None);
            terminated.cseq_method = Method::Invite;
            vec![bytes_from(ok.to_bytes()), bytes_from(terminated.to_bytes())]
        }
        Method::Ack => Vec::new(),
        // Anything else (OPTIONS, stray REGISTER) gets a polite 200.
        _ => vec![bytes_from(
            gen::response(StatusCode::OK, msg, Some(&to_tag), None).to_bytes(),
        )],
    }
}

/// Which poll loop a phone process is in.
enum Cont {
    /// Waiting for the REGISTER's 200.
    Reg,
    /// A registered caller: waiting for responses and its engine's clock.
    Call,
    /// A registered callee: waiting for requests and ring-delayed 200s.
    Serve,
}

/// What a phone process does after its front end has handled an inbound
/// message or a poll timeout.
pub(crate) enum Step<D> {
    /// Nothing more to send.
    Park,
    /// Requests for the proxy (caller requests or a REGISTER retransmit).
    ToProxy(Vec<Bytes>),
    /// A callee's answers, due now, for the sender of the request.
    Answer(D, Vec<Bytes>),
    /// A caller just registered: sleep until `call_start`.
    StartCalls,
    /// A registration attempt failed; start another.
    Reregister,
    /// The last registration attempt failed: exit.
    GiveUp,
}

/// The transport-independent half of a phone process: the caller engine,
/// registration, inbound dispatch and the callee's ring-delayed 200s. `D`
/// is where a callee answers: an address for UDP/SCTP, a connection for TCP.
pub(crate) struct FrontEnd<D> {
    cfg: PhoneCfg,
    engine: Option<CallEngine>,
    /// Syscalls queued for the process to issue before it polls again.
    script: VecDeque<Syscall>,
    reg_msg: Option<Bytes>,
    /// The running registration attempt's clock.
    reg_clock: Option<RetransClock>,
    reg_attempts: u32,
    registered: bool,
    /// Ringing calls whose 200 OK is due at the embedded instant.
    delayed: VecDeque<(SimTime, D, Bytes)>,
}

impl<D: Copy> FrontEnd<D> {
    pub(crate) fn new(cfg: PhoneCfg) -> Self {
        FrontEnd {
            cfg,
            engine: None,
            script: VecDeque::new(),
            reg_msg: None,
            reg_clock: None,
            reg_attempts: 0,
            registered: false,
            delayed: VecDeque::new(),
        }
    }

    /// Builds the caller engine and the REGISTER once the host is known.
    pub(crate) fn start(&mut self, host: siperf_simnet::HostId) {
        self.engine = self.cfg.engine(host);
        self.reg_msg = Some(self.cfg.register_msg(host));
    }

    pub(crate) fn cfg(&self) -> &PhoneCfg {
        &self.cfg
    }

    pub(crate) fn registered(&self) -> bool {
        self.registered
    }

    /// Queues a syscall for the process to issue before it polls again.
    pub(crate) fn queue(&mut self, s: Syscall) {
        self.script.push_back(s);
    }

    /// The next queued syscall, if any.
    pub(crate) fn next_queued(&mut self) -> Option<Syscall> {
        self.script.pop_front()
    }

    /// Operations the caller has completed (0 for a callee).
    pub(crate) fn ops_done(&self) -> u64 {
        self.engine.as_ref().map_or(0, |e| e.ops_done)
    }

    /// Every in-flight call's current request, to send again after the
    /// connection carrying it was reset (none for a callee).
    pub(crate) fn redrive(&mut self, now: SimTime) -> Vec<Bytes> {
        self.engine
            .as_mut()
            .map_or_else(Vec::new, |e| e.redrive(now))
    }

    fn caller(&mut self) -> &mut CallEngine {
        self.engine.as_mut().expect("caller engine")
    }

    /// The loop the phone is in: registering, or its role's.
    fn cont(&self) -> Cont {
        match (self.registered, &self.cfg.role) {
            (false, _) => Cont::Reg,
            (true, Role::Caller(_)) => Cont::Call,
            (true, Role::Callee) => Cont::Serve,
        }
    }

    /// How long the phone may poll before its loop needs it (`None` is
    /// forever).
    pub(crate) fn poll_timeout(&self, now: SimTime) -> Option<SimDuration> {
        let next = match self.cont() {
            Cont::Reg => self.reg_clock.as_ref().expect("registering").next_at(),
            Cont::Call => self.engine.as_ref().expect("caller").next_wake(),
            Cont::Serve => self.delayed.front().map_or(SimTime::MAX, |&(at, _, _)| at),
        };
        (next != SimTime::MAX).then(|| next.max(now) - now)
    }

    /// Starts a registration attempt under a fresh clock (Timer F alone on
    /// reliable transports) and returns the REGISTER to send.
    pub(crate) fn register(&mut self, now: SimTime) -> Bytes {
        self.reg_clock = Some(if self.cfg.transport.is_reliable() {
            RetransClock::reliable(now)
        } else {
            RetransClock::new(now, Method::Register)
        });
        self.reg_msg.clone().expect("built at start")
    }

    /// Counts a failed registration attempt, whether it timed out or lost
    /// its connection. After [`MAX_REG_ATTEMPTS`] the phone gives up, which
    /// counts as a connect error.
    pub(crate) fn registration_failed(&mut self) -> Step<D> {
        self.reg_attempts += 1;
        if self.reg_attempts >= MAX_REG_ATTEMPTS {
            self.cfg.stats.borrow_mut().connect_errors += 1;
            return Step::GiveUp;
        }
        Step::Reregister
    }

    /// A poll timed out (or a registered caller woke at `call_start`):
    /// retransmit or retry the REGISTER, or run the caller engine's clock.
    pub(crate) fn on_timeout(&mut self, now: SimTime) -> Step<D> {
        match self.cont() {
            Cont::Reg => match self.reg_clock.as_mut().expect("registering").check(now) {
                TimerVerdict::Retransmit { .. } => {
                    self.cfg.stats.borrow_mut().phone_retransmits += 1;
                    Step::ToProxy(vec![self.reg_msg.clone().expect("built at start")])
                }
                TimerVerdict::Wait { .. } => Step::Park,
                TimerVerdict::TimedOut | TimerVerdict::Done => self.registration_failed(),
            },
            Cont::Call => Step::ToProxy(self.caller().on_timer(now)),
            Cont::Serve => Step::Park,
        }
    }

    /// Handles one inbound message: charges its processing, then completes
    /// registration, feeds a caller's engine, or answers as a callee
    /// towards `reply_to(msg)`.
    pub(crate) fn on_message(
        &mut self,
        now: SimTime,
        raw: &[u8],
        reply_to: impl FnOnce(&SipMessage) -> D,
    ) -> Step<D> {
        self.script.push_back(Syscall::Compute {
            ns: self.cfg.proc_ns.max(10),
            tag: "user/phone",
        });
        let Ok(msg) = parse_message(raw) else {
            return Step::Park;
        };
        match self.cont() {
            Cont::Reg => {
                let is_reg_ok = msg.status().is_some_and(|c| c.is_success())
                    && msg.cseq_method == Method::Register;
                if !is_reg_ok {
                    return Step::Park;
                }
                self.registered = true;
                self.reg_clock = None;
                self.cfg.stats.borrow_mut().register_ok += 1;
                match self.cfg.role {
                    Role::Caller(_) => Step::StartCalls,
                    Role::Callee => Step::Park,
                }
            }
            Cont::Call => Step::ToProxy(self.caller().on_response(now, &msg)),
            Cont::Serve => {
                let answer = callee_answer_timed(&self.cfg.user, &msg, self.cfg.ring_delay);
                let dest = reply_to(&msg);
                if let Some(ok) = answer.delayed_ok {
                    self.delayed
                        .push_back((now + self.cfg.ring_delay, dest, ok));
                }
                Step::Answer(dest, answer.immediate)
            }
        }
    }

    /// Pops the next ring-delayed 200 OK that is due by `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<(D, Bytes)> {
        if self.delayed.front()?.0 > now {
            return None;
        }
        let (_, dest, ok) = self.delayed.pop_front()?;
        Some((dest, ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_simnet::HostId;
    use siperf_sip::parse::parse_message;
    use siperf_sip::txn::T1;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn phone(role: Role, transport: Transport, seed: u64) -> PhoneCfg {
        PhoneCfg {
            user: "alice".into(),
            role,
            port: 20000,
            proxy: SockAddr::new(HostId(0), 5060),
            domain: "sip.lab".into(),
            transport,
            call_start: t(0),
            stagger: SimDuration::ZERO,
            ops_per_conn: None,
            cancel_every: None,
            ring_delay: SimDuration::ZERO,
            setup_deadline: None,
            proc_ns: 500,
            seed,
            stats: WorkloadStats::new((t(0), t(1_000_000))),
        }
    }

    /// A closed-loop caller dialling `bob`.
    fn cfg(reliable: bool) -> PhoneCfg {
        let transport = if reliable {
            Transport::Tcp
        } else {
            Transport::Udp
        };
        let peer = "bob".to_string();
        phone(Role::Caller(Arrivals::Closed { peer }), transport, 7)
    }

    /// An open-loop UDP caller dialling four callees at `rate` calls/s.
    fn open_cfg(seed: u64, rate: f64) -> PhoneCfg {
        let arrivals = Arrivals::Poisson { rate, callees: 4 };
        phone(Role::Caller(arrivals), Transport::Udp, seed)
    }

    fn engine(cfg: &PhoneCfg) -> CallEngine {
        cfg.engine(HostId(1)).expect("caller")
    }

    /// The closed loop's first INVITE, sent at `call_start`.
    fn first_call(e: &mut CallEngine) -> Bytes {
        let mut msgs = e.on_timer(t(0));
        assert_eq!(msgs.len(), 1, "the closed loop starts one call");
        msgs.pop().unwrap()
    }

    /// Steps an open-loop engine until it originates a call; returns the
    /// instant and the INVITE.
    fn next_invite(e: &mut CallEngine) -> (SimTime, Bytes) {
        loop {
            let at = e.next_wake();
            if let Some(invite) = e.on_timer(at).pop() {
                return (at, invite);
            }
        }
    }

    /// Steps an open-loop engine until it has originated `n` calls.
    fn invites(e: &mut CallEngine, n: usize) -> Vec<SipMessage> {
        let mut out = Vec::new();
        while out.len() < n {
            let at = e.next_wake();
            out.extend(e.on_timer(at).iter().map(|m| parse_message(m).unwrap()));
        }
        out
    }

    fn respond(engine_msg: &Bytes, code: StatusCode) -> SipMessage {
        let req = parse_message(engine_msg).unwrap();
        gen::response(code, &req, Some("tt-bob"), None)
    }

    #[test]
    fn happy_call_flow_produces_two_ops() {
        let cfg = cfg(false);
        let mut e = engine(&cfg);
        let invite = first_call(&mut e);
        let inv = parse_message(&invite).unwrap();
        assert_eq!(inv.method(), Some(Method::Invite));

        // 100 then 180 stop retransmissions but complete nothing.
        let trying = respond(&invite, StatusCode::TRYING);
        assert!(e.on_response(t(1), &trying).is_empty());
        let ringing = respond(&invite, StatusCode::RINGING);
        assert!(e.on_response(t(2), &ringing).is_empty());

        // 200 → ACK + BYE.
        let ok = respond(&invite, StatusCode::OK);
        let msgs = e.on_response(t(3), &ok);
        assert_eq!(msgs.len(), 2);
        let ack = parse_message(&msgs[0]).unwrap();
        let bye = parse_message(&msgs[1]).unwrap();
        assert_eq!(ack.method(), Some(Method::Ack));
        assert_eq!(bye.method(), Some(Method::Bye));
        assert_eq!(ack.to.tag.as_deref(), Some("tt-bob"));

        // 200 to BYE → the next call starts.
        let bye_ok = respond(&msgs[1], StatusCode::OK);
        let next = e.on_response(t(4), &bye_ok);
        let next_inv = parse_message(&next[0]).unwrap();
        assert_eq!(next_inv.method(), Some(Method::Invite));
        assert_ne!(next_inv.call_id, inv.call_id);

        let stats = cfg.stats.borrow();
        assert_eq!(stats.invite_ok, 1);
        assert_eq!(stats.bye_ok, 1);
        assert_eq!(stats.ops_total, 2);
        assert_eq!(stats.call_attempts, 2);
        assert_eq!(stats.call_failures, 0);
        assert_eq!(stats.open_calls_peak, 0, "closed loops keep no pool peak");
        assert_eq!(e.ops_done, 2);
    }

    #[test]
    fn udp_engine_retransmits_until_response() {
        let cfg = cfg(false);
        let mut e = engine(&cfg);
        let invite = first_call(&mut e);
        // T1 later the clock demands a retransmission of the same INVITE.
        assert_eq!(e.next_wake(), t(500));
        let msgs = e.on_timer(t(500));
        assert_eq!(&*msgs[0], &*invite, "expected retransmission");
        assert_eq!(cfg.stats.borrow().phone_retransmits, 1);
        // A provisional response silences it.
        let trying = respond(&invite, StatusCode::TRYING);
        e.on_response(t(600), &trying);
        assert!(e.on_timer(t(1500)).is_empty());
    }

    #[test]
    fn reliable_engine_never_retransmits() {
        let cfg = cfg(true);
        let mut e = engine(&cfg);
        let _invite = first_call(&mut e);
        assert!(e.on_timer(t(5_000)).is_empty());
        assert_eq!(e.next_wake(), t(32_000));
        assert_eq!(cfg.stats.borrow().phone_retransmits, 0);
    }

    #[test]
    fn timeout_fails_call_and_starts_next() {
        let cfg = cfg(false);
        let mut e = engine(&cfg);
        let first = first_call(&mut e);
        let next = e.on_timer(t(32_000));
        assert_eq!(next.len(), 1, "expected new call after timeout");
        let next_inv = parse_message(&next[0]).unwrap();
        assert_ne!(next_inv.call_id, parse_message(&first).unwrap().call_id);
        assert_eq!(cfg.stats.borrow().call_failures, 1);
        assert_eq!(cfg.stats.borrow().call_attempts, 2);
    }

    #[test]
    fn error_response_fails_call() {
        let cfg = cfg(false);
        let mut e = engine(&cfg);
        let invite = first_call(&mut e);
        let busy = respond(&invite, StatusCode::BUSY_HERE);
        assert_eq!(e.on_response(t(1), &busy).len(), 1, "expected next call");
        assert_eq!(cfg.stats.borrow().call_failures, 1);
    }

    #[test]
    fn stale_responses_are_ignored() {
        let cfg = cfg(false);
        let mut e = engine(&cfg);
        let first = first_call(&mut e);
        // Complete the first call.
        let ok = respond(&first, StatusCode::OK);
        let msgs = e.on_response(t(1), &ok);
        let bye_ok = respond(&msgs[1], StatusCode::OK);
        assert_eq!(e.on_response(t(2), &bye_ok).len(), 1);
        // A duplicate 200 for the finished call must not disturb call 2.
        let dup = respond(&first, StatusCode::OK);
        assert!(e.on_response(t(3), &dup).is_empty());
        assert_eq!(cfg.stats.borrow().invite_ok, 1);
    }

    #[test]
    fn rejected_call_backs_off_per_retry_after_then_retries() {
        let cfg = cfg(false);
        let mut e = engine(&cfg);
        let invite = first_call(&mut e);
        let req = parse_message(&invite).unwrap();

        // 503 + Retry-After: 2 → back off a jittered [1 s, 2 s], no failure
        // counted.
        let rejected = gen::service_unavailable(&req, 2);
        assert!(e.on_response(t(100), &rejected).is_empty());
        let until = e.next_wake();
        assert!(
            until >= t(1_100) && until <= t(2_100),
            "jittered backoff {until:?} outside [nominal/2, nominal]"
        );
        {
            let s = cfg.stats.borrow();
            assert_eq!(s.calls_rejected, 1);
            assert_eq!(s.call_failures, 0, "a shed call is not a failure");
        }

        // Waking early keeps waiting; at the deadline the retry fires.
        assert!(e.on_timer(t(1_000)).is_empty());
        let msgs = e.on_timer(until);
        let retry = parse_message(&msgs[0]).unwrap();
        assert_eq!(retry.method(), Some(Method::Invite));
        assert_ne!(retry.call_id, req.call_id, "retry is a fresh call");
        let s = cfg.stats.borrow();
        assert_eq!(s.rejection_retries, 1);
        assert_eq!(s.call_attempts, 2);
    }

    /// Rejects `n` consecutive calls with `Retry-After: 1`, retrying each
    /// when its backoff expires. Returns the delays, the last retry's
    /// instant and its INVITE, still in flight.
    fn rejected_delays(
        e: &mut CallEngine,
        mut invite: Bytes,
        n: usize,
    ) -> (Vec<SimDuration>, SimTime, Bytes) {
        let mut now = t(0);
        let mut delays = Vec::new();
        for _ in 0..n {
            let req = parse_message(&invite).unwrap();
            e.on_response(now, &gen::service_unavailable(&req, 1));
            let until = e.next_wake();
            delays.push(until - now);
            now = until;
            invite = e.on_timer(now).pop().expect("retry INVITE");
        }
        (delays, now, invite)
    }

    #[test]
    fn repeated_rejections_double_the_backoff_up_to_the_cap() {
        let cfg = cfg(false);
        let mut e = engine(&cfg);
        let invite = first_call(&mut e);
        let (delays, now, invite) = rejected_delays(&mut e, invite, 5);
        let delays: Vec<f64> = delays.iter().map(|d| d.as_secs_f64()).collect();
        // The nominal delay doubles 1, 2, 4, 8, 8 (capped); jitter keeps
        // each draw inside [nominal/2, nominal].
        for (delay, nominal) in delays.iter().zip([1.0, 2.0, 4.0, 8.0, 8.0]) {
            assert!(
                (nominal / 2.0..=nominal).contains(delay),
                "delay {delay} outside [{}, {nominal}]",
                nominal / 2.0
            );
        }
        assert!(
            delays[4] <= REJECT_BACKOFF_CAP.as_secs_f64(),
            "cap exceeded: {delays:?}"
        );

        // An admitted, completed call resets the exponent.
        let ok = respond(&invite, StatusCode::OK);
        let msgs = e.on_response(now, &ok);
        let bye_ok = respond(&msgs[1], StatusCode::OK);
        let invite = e.on_response(now, &bye_ok).pop().expect("next call");
        let req = parse_message(&invite).unwrap();
        e.on_response(now, &gen::service_unavailable(&req, 1));
        let reset_delay = (e.next_wake() - now).as_secs_f64();
        assert!(
            (0.5..=1.0).contains(&reset_delay),
            "exponent was not reset: {reset_delay}"
        );
    }

    #[test]
    fn backoff_jitter_replays_from_the_seed_and_desynchronizes_phones() {
        let delays = |seed: u64| -> Vec<SimDuration> {
            let mut c = cfg(false);
            c.seed = seed;
            let mut e = engine(&c);
            let invite = first_call(&mut e);
            rejected_delays(&mut e, invite, 4).0
        };
        assert_eq!(
            delays(11),
            delays(11),
            "same seed must replay the same jitter"
        );
        assert_ne!(
            delays(11),
            delays(12),
            "different phones must not retry in lockstep"
        );
    }

    #[test]
    fn cancel_flow_abandons_a_ringing_call() {
        let mut c = cfg(false);
        c.cancel_every = Some(1); // cancel every call
        let mut e = engine(&c);
        let invite = first_call(&mut e);
        let inv = parse_message(&invite).unwrap();

        // 100 Trying must not trigger the CANCEL (only RINGING does).
        let trying = respond(&invite, StatusCode::TRYING);
        assert!(e.on_response(t(1), &trying).is_empty());

        // 180 Ringing → the engine fires the CANCEL, same branch.
        let ringing = respond(&invite, StatusCode::RINGING);
        let msgs = e.on_response(t(2), &ringing);
        let cancel = parse_message(&msgs[0]).unwrap();
        assert_eq!(cancel.method(), Some(Method::Cancel));
        assert_eq!(cancel.branch(), inv.branch());
        assert_eq!(cancel.call_id, inv.call_id);

        // The proxy's 200 to the CANCEL is consumed quietly.
        let cancel_ok = gen::response(StatusCode::OK, &cancel, None, None);
        assert!(e.on_response(t(3), &cancel_ok).is_empty());

        // The 487 ends the call cleanly and starts the next one.
        let mut terminated = respond(&invite, StatusCode::REQUEST_TERMINATED);
        terminated.cseq_method = Method::Invite;
        let next = e.on_response(t(4), &terminated);
        assert_eq!(
            parse_message(&next[0]).unwrap().method(),
            Some(Method::Invite)
        );
        let stats = c.stats.borrow();
        assert_eq!(stats.calls_cancelled, 1);
        assert_eq!(stats.call_failures, 0);
        assert_eq!(stats.invite_ok, 0, "a cancelled call completes nothing");
    }

    #[test]
    fn redrive_resends_each_in_flight_request_once() {
        let cfg = cfg(true);
        let mut e = engine(&cfg);
        assert!(e.redrive(t(0)).is_empty(), "nothing in flight yet");
        let invite = first_call(&mut e);
        assert_eq!(e.redrive(t(10)), vec![invite.clone()]);
        assert!(e.redrive(t(20)).is_empty(), "one re-drive per call");
        let ok = respond(&invite, StatusCode::OK);
        e.on_response(t(30), &ok);
        assert_eq!(cfg.stats.borrow().recovered_calls, 1);
    }

    /// Steps the engine's timer through `until`, collecting the instant of
    /// every *new* call the arrival process originates (retransmissions of
    /// outstanding calls are not arrivals).
    fn collect_arrivals(engine: &mut CallEngine, until: SimTime) -> Vec<SimTime> {
        let mut arrivals = Vec::new();
        loop {
            let at = engine.next_wake();
            if at > until {
                break;
            }
            let before = engine.call_no;
            engine.on_timer(at);
            for _ in before..engine.call_no {
                arrivals.push(at);
            }
        }
        arrivals
    }

    #[test]
    fn poisson_arrivals_replay_from_seed_and_match_the_rate() {
        let c = open_cfg(9, 1000.0);
        let mut a = engine(&c);
        let mut b = engine(&c);
        let ta = collect_arrivals(&mut a, t(2_000));
        let tb = collect_arrivals(&mut b, t(2_000));
        assert_eq!(ta, tb, "same seed must produce the same arrivals");
        // 1000 calls/s over 2 s → ~2000 arrivals; Poisson σ ≈ 45.
        assert!(
            (1700..2300).contains(&ta.len()),
            "arrival count {} far from the configured rate",
            ta.len()
        );

        let mut d = engine(&open_cfg(10, 1000.0));
        assert_ne!(
            collect_arrivals(&mut d, t(2_000)),
            ta,
            "different seeds must diverge"
        );
    }

    #[test]
    fn arrivals_continue_while_calls_are_outstanding() {
        let c = open_cfg(3, 100.0);
        let mut e = engine(&c);
        // Never answer anything: a closed loop would stall after call one,
        // the open loop keeps originating.
        let arrivals = collect_arrivals(&mut e, t(1_000));
        assert!(
            arrivals.len() >= 70,
            "open loop stalled with calls outstanding: {} arrivals",
            arrivals.len()
        );
        assert!(e.in_flight() >= 70, "pool should hold unanswered calls");
        assert_eq!(c.stats.borrow().call_attempts, arrivals.len() as u64);
        assert!(c.stats.borrow().open_calls_peak >= 70);
    }

    #[test]
    fn pool_completes_concurrent_calls_independently() {
        let c = open_cfg(4, 10_000.0);
        let mut e = engine(&c);
        // Originate two calls.
        let [inv0, inv1] = <[SipMessage; 2]>::try_from(invites(&mut e, 2)).unwrap();
        assert_eq!(e.in_flight(), 2);
        assert_ne!(inv0.call_id, inv1.call_id);

        // Answer the *second* call first: the pool must route by Call-ID.
        let ok1 = gen::response(StatusCode::OK, &inv1, Some("tt"), None);
        let msgs = e.on_response(t(50), &ok1);
        let bye1 = parse_message(&msgs[1]).unwrap();
        assert_eq!(bye1.method(), Some(Method::Bye));
        assert_eq!(bye1.call_id, inv1.call_id);
        assert_eq!(
            bye1.to.uri.user, inv1.to.uri.user,
            "BYE goes to call 2's callee"
        );
        assert_eq!(e.in_flight(), 2, "call 1 still awaits its INVITE 200");

        let bye_ok1 = gen::response(StatusCode::OK, &bye1, Some("tt"), None);
        assert!(e.on_response(t(60), &bye_ok1).is_empty(), "no successor");
        assert_eq!(e.in_flight(), 1, "call 2 completed and left the pool");

        let ok0 = gen::response(StatusCode::OK, &inv0, Some("tt"), None);
        let msgs = e.on_response(t(70), &ok0);
        let bye0 = parse_message(&msgs[1]).unwrap();
        let bye_ok0 = gen::response(StatusCode::OK, &bye0, Some("tt"), None);
        e.on_response(t(80), &bye_ok0);
        assert_eq!(e.in_flight(), 0);
        let s = c.stats.borrow();
        assert_eq!(s.invite_ok, 2);
        assert_eq!(s.bye_ok, 2);
        assert_eq!(s.call_failures, 0);
    }

    #[test]
    fn rejected_call_leaves_pool_and_retries_with_jitter() {
        let c = open_cfg(5, 10_000.0);
        let mut e = engine(&c);
        let req = parse_message(&next_invite(&mut e).1).unwrap();
        let now = t(10);
        let rejected = gen::service_unavailable(&req, 2);
        e.on_response(now, &rejected);
        assert_eq!(e.in_flight(), 0, "shed call must leave the pool");
        let retry_at = e
            .retries
            .peek()
            .map(|&Reverse(at)| at)
            .expect("retry queued");
        let delay = retry_at - now;
        assert!(
            delay >= SimDuration::from_secs(1) && delay <= SimDuration::from_secs(2),
            "jittered retry delay {delay:?} outside [Retry-After/2, Retry-After]"
        );
        let s = c.stats.borrow();
        assert_eq!(s.calls_rejected, 1);
        assert_eq!(s.call_failures, 0, "a shed call is not a failure");
    }

    #[test]
    fn call_past_the_setup_deadline_completes_but_scores_no_goodput() {
        let mut c = open_cfg(8, 10_000.0);
        c.setup_deadline = Some(SimDuration::from_millis(200));
        let mut e = engine(&c);
        let [fast, slow] = <[SipMessage; 2]>::try_from(invites(&mut e, 2)).unwrap();

        // First call answered within budget, second well past it.
        let ok = gen::response(StatusCode::OK, &fast, Some("tt"), None);
        let msgs = e.on_response(t(100), &ok);
        let bye = parse_message(&msgs[1]).unwrap();
        e.on_response(
            t(110),
            &gen::response(StatusCode::OK, &bye, Some("tt"), None),
        );

        let ok = gen::response(StatusCode::OK, &slow, Some("tt"), None);
        let msgs = e.on_response(t(900), &ok);
        assert_eq!(msgs.len(), 2, "late call still finishes its ACK+BYE");
        let bye = parse_message(&msgs[1]).unwrap();
        e.on_response(
            t(910),
            &gen::response(StatusCode::OK, &bye, Some("tt"), None),
        );

        assert_eq!(e.in_flight(), 0, "both calls ran to completion");
        let s = c.stats.borrow();
        assert_eq!(s.calls_late, 1);
        assert_eq!(s.invite_ok, 1, "only the in-budget call counts");
        assert_eq!(s.bye_ok, 1);
        assert_eq!(s.call_failures, 0, "late is not failed");
    }

    #[test]
    fn provisional_response_retires_the_stopped_timer_a_wake() {
        // One call every ten seconds on average: the next arrival is far
        // from the first INVITE's Timer A instant.
        let c = open_cfg(6, 0.1);
        let mut e = engine(&c);
        let (at, invite) = next_invite(&mut e);
        assert_eq!(e.next_wake(), at + T1);
        let req = parse_message(&invite).unwrap();
        e.on_response(at, &gen::response(StatusCode::TRYING, &req, None, None));
        assert_ne!(
            e.next_wake(),
            at + T1,
            "the provisional stopped Timer A; its instant must not wake the caller"
        );
    }

    #[test]
    fn unanswered_call_times_out_as_failure() {
        let c = open_cfg(6, 1.0);
        let mut e = engine(&c);
        let (at, invite) = next_invite(&mut e);
        // Stop retransmissions with a provisional, then run past Timer B.
        // Later arrivals keep originating meanwhile — that's the open loop —
        // so assert on the timed-out call specifically.
        let req = parse_message(&invite).unwrap();
        let trying = gen::response(StatusCode::TRYING, &req, None, None);
        e.on_response(at, &trying);
        e.on_timer(at + TIMEOUT + SimDuration::from_millis(1));
        assert!(
            e.lookup(&req.call_id).is_none(),
            "timed-out call must leave the pool"
        );
        assert_eq!(c.stats.borrow().call_failures, 1);
    }

    #[test]
    fn callee_answers_cancel_with_200_and_487() {
        let alice = CallParty::new("alice", "h1:1");
        let bob = CallParty::new("bob", "h2:2");
        let cancel = gen::cancel(&alice, &bob, "d", "c1", "z9hG4bKinv", "UDP");
        let answers = callee_answer("bob", &cancel);
        assert_eq!(answers.len(), 2);
        let ok = parse_message(&answers[0]).unwrap();
        let terminated = parse_message(&answers[1]).unwrap();
        assert_eq!(ok.status(), Some(StatusCode::OK));
        assert_eq!(ok.cseq_method, Method::Cancel);
        assert_eq!(terminated.status(), Some(StatusCode::REQUEST_TERMINATED));
        assert_eq!(
            terminated.cseq_method,
            Method::Invite,
            "the 487 answers the INVITE transaction"
        );
        assert_eq!(terminated.branch(), cancel.branch());
    }

    #[test]
    fn callee_answers_invite_with_ringing_then_ok() {
        let alice = CallParty::new("alice", "h1:1");
        let bob = CallParty::new("bob", "h2:2");
        let inv = gen::invite(&alice, &bob, "d", "c1", "z9hG4bKz", "UDP");
        let answers = callee_answer("bob", &inv);
        assert_eq!(answers.len(), 2);
        let first = parse_message(&answers[0]).unwrap();
        let second = parse_message(&answers[1]).unwrap();
        assert_eq!(first.status(), Some(StatusCode::RINGING));
        assert_eq!(second.status(), Some(StatusCode::OK));
        assert_eq!(second.to.tag.as_deref(), Some("tt-bob"));

        let bye = gen::bye(&alice, &bob, "d", "c1", "tt-bob", "z9hG4bKy", "UDP");
        let answers = callee_answer("bob", &bye);
        assert_eq!(answers.len(), 1);

        let ack = gen::ack(&alice, &bob, "d", "c1", "tt-bob", "z9hG4bKx", "UDP");
        assert!(callee_answer("bob", &ack).is_empty());
    }
}
