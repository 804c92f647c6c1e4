//! End-to-end stateful-proxy behaviour against a *silent* callee: once the
//! proxy answers 100 Trying it owns reliability (§2) — it must retransmit
//! the forwarded INVITE on Timer A and eventually answer the caller with
//! 408 Request Timeout when Timer B expires.

use std::cell::RefCell;
use std::rc::Rc;

use siperf_proxy::config::{ProxyConfig, Transport};
use siperf_proxy::spawn::spawn_proxy;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::NetConfig;
use siperf_simos::cost::CostModel;
use siperf_simos::kernel::Kernel;
use siperf_simos::process::{Nice, ResumeCtx};
use siperf_simos::syscall::MsgTransport::Udp;
use siperf_simos::syscall::{Fd, SysResult, Syscall};
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::StatusCode;
use siperf_sip::parse::parse_message;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

#[test]
fn proxy_retransmits_and_times_out_towards_a_silent_callee() {
    let mut kernel = Kernel::new(NetConfig::lan(), CostModel::opteron_2006(), 3);
    let server = kernel.add_host(4);
    let clients = kernel.add_host(4);
    let mut cfg = ProxyConfig::paper(Transport::Udp);
    cfg.workers = Some(2);
    let proxy = spawn_proxy(&mut kernel, server, cfg);
    let proxy_addr = proxy.addr;

    // The ghost: registers, then receives everything and answers nothing.
    let ghost_rx = Rc::new(RefCell::new(0u32));
    let grx = ghost_rx.clone();
    let mut gstep = 0;
    let mut gfd = Fd(0);
    kernel.spawn(
        clients,
        Nice::NORMAL,
        "ghost",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            gstep += 1;
            match gstep {
                1 => Syscall::MsgBind {
                    proto: Udp,
                    port: 20_002,
                },
                2 => {
                    gfd = last.expect_fd();
                    let ghost = CallParty::new("ghost", "h1:20002");
                    Syscall::MsgSend {
                        fd: gfd,
                        to: proxy_addr,
                        data: siperf_simnet::bytes_from(
                            gen::register(&ghost, "sip.lab", 1, "z9hG4bKgreg", "UDP").to_bytes(),
                        ),
                    }
                }
                _ => {
                    if matches!(last, SysResult::Msg { .. }) && gstep > 3 {
                        *grx.borrow_mut() += 1;
                    }
                    Syscall::MsgRecv { fd: gfd }
                }
            }
        }),
    );

    // The caller: registers, sends one INVITE to the ghost, and records
    // every response it gets back.
    let responses = Rc::new(RefCell::new(Vec::<StatusCode>::new()));
    let resp = responses.clone();
    let mut cstep = 0;
    let mut cfd = Fd(0);
    kernel.spawn(
        clients,
        Nice::NORMAL,
        "caller",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            cstep += 1;
            let alice = CallParty::new("alice", "h1:20001");
            let ghost = CallParty::new("ghost", "h1:20002");
            match cstep {
                1 => Syscall::MsgBind {
                    proto: Udp,
                    port: 20_001,
                },
                2 => {
                    cfd = last.expect_fd();
                    Syscall::MsgSend {
                        fd: cfd,
                        to: proxy_addr,
                        data: siperf_simnet::bytes_from(
                            gen::register(&alice, "sip.lab", 1, "z9hG4bKareg", "UDP").to_bytes(),
                        ),
                    }
                }
                3 => Syscall::MsgRecv { fd: cfd }, // 200 to REGISTER
                4 => Syscall::MsgSend {
                    fd: cfd,
                    to: proxy_addr,
                    data: siperf_simnet::bytes_from(
                        gen::invite(&alice, &ghost, "sip.lab", "dead-call", "z9hG4bKdead", "UDP")
                            .to_bytes(),
                    ),
                },
                _ => {
                    if let SysResult::Msg { data, .. } = &last {
                        if let Ok(msg) = parse_message(data) {
                            if let Some(code) = msg.status() {
                                if msg.call_id == "dead-call" {
                                    resp.borrow_mut().push(code);
                                }
                            }
                        }
                    }
                    Syscall::MsgRecv { fd: cfd }
                }
            }
        }),
    );

    // Well past Timer B (64 × T1 = 32 s).
    kernel.run_until(secs(40));

    let stats = proxy.stats();
    // The ghost received the INVITE and its Timer-A retransmissions
    // (doubling from 500 ms: about 6 before the 32 s deadline).
    assert!(
        *ghost_rx.borrow() >= 4,
        "ghost saw {} deliveries; proxy must retransmit",
        ghost_rx.borrow()
    );
    assert!(stats.retransmits_sent >= 4, "{stats:?}");
    assert_eq!(stats.txn_timeouts, 1, "{stats:?}");
    // The caller got the 100 Trying immediately and the 408 at Timer B.
    let responses = responses.borrow();
    assert_eq!(
        responses.first(),
        Some(&StatusCode::TRYING),
        "{responses:?}"
    );
    assert_eq!(
        responses.last(),
        Some(&StatusCode::REQUEST_TIMEOUT),
        "{responses:?}"
    );
    // The transaction was reaped after its linger.
    assert_eq!(proxy.core.borrow().live_txns(), 0);
}

#[test]
fn unregistered_destination_gets_404_end_to_end() {
    let mut kernel = Kernel::new(NetConfig::lan(), CostModel::opteron_2006(), 3);
    let server = kernel.add_host(4);
    let clients = kernel.add_host(4);
    let mut cfg = ProxyConfig::paper(Transport::Udp);
    cfg.workers = Some(2);
    let proxy = spawn_proxy(&mut kernel, server, cfg);
    let proxy_addr = proxy.addr;

    let got = Rc::new(RefCell::new(None::<StatusCode>));
    let g = got.clone();
    let mut step = 0;
    let mut fd = Fd(0);
    kernel.spawn(
        clients,
        Nice::NORMAL,
        "caller",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            step += 1;
            let alice = CallParty::new("alice", "h1:20001");
            let nobody = CallParty::new("nobody", "h1:1");
            match step {
                1 => Syscall::MsgBind {
                    proto: Udp,
                    port: 20_001,
                },
                2 => {
                    fd = last.expect_fd();
                    Syscall::MsgSend {
                        fd,
                        to: proxy_addr,
                        data: siperf_simnet::bytes_from(
                            gen::invite(&alice, &nobody, "sip.lab", "c404", "z9hG4bK404", "UDP")
                                .to_bytes(),
                        ),
                    }
                }
                3 => Syscall::MsgRecv { fd },
                _ => {
                    if let SysResult::Msg { data, .. } = &last {
                        *g.borrow_mut() = parse_message(data).ok().and_then(|m| m.status());
                    }
                    Syscall::Exit
                }
            }
        }),
    );
    kernel.run_until(secs(2));
    assert_eq!(*got.borrow(), Some(StatusCode::NOT_FOUND));
    assert_eq!(proxy.stats().route_failures, 1);
}
