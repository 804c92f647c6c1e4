//! SCTP-style one-to-many message endpoints (paper §6).
//!
//! The paper's discussion section argues that SCTP combines the properties
//! that matter here: it is **connection-oriented and reliable** like TCP,
//! but **message-based** like UDP, and — crucially — its association
//! management lives **entirely in the kernel**, invisible to the
//! application. A proxy can therefore use the symmetric UDP architecture
//! (every worker receives from one shared endpoint, any worker sends to any
//! peer) with none of the supervisor/fd-passing machinery that cripples the
//! TCP mode.
//!
//! The model captures exactly those properties: a one-to-many endpoint
//! bound to a port, whole-message delivery, and a kernel-managed association
//! table that charges a setup round-trip latency to the first exchange with
//! each peer and nothing thereafter. An SCTP endpoint is a message socket
//! ([`crate::endpoint::MsgEp`]) bound, read and closed by the code it shares
//! with UDP in [`crate::net`]; only sending and delivery live here.

use siperf_simcore::time::SimTime;

use crate::addr::{HostId, Port, SockAddr};
use crate::endpoint::{AssocState, Bytes, Endpoint, EpId, MsgTransport};
use crate::error::Errno;
use crate::event::{NetEvent, NetOutcome};
use crate::net::Network;

impl Network {
    /// Sends one message to `to`, implicitly setting up the association on
    /// first use (the kernel's job, not the application's).
    ///
    /// # Errors
    ///
    /// [`Errno::BadFd`] if `from` is not an SCTP endpoint.
    pub fn sctp_send(
        &mut self,
        now: SimTime,
        from: EpId,
        to: SockAddr,
        data: Bytes,
    ) -> Result<(), Errno> {
        let from_addr = self.msg_local(from, MsgTransport::Sctp)?;
        // SCTP is reliable: link faults stall the stream, never lose a
        // message.
        let fault_extra = self.link_extra(now, from_addr.host, to.host);
        let base_delay = self.delay(now) + fault_extra;
        let setup = self.cfg.sctp_assoc_setup;
        let one_way = self.cfg.one_way_latency;
        let Some(Endpoint::Msg(ep)) = self.eps.get_mut(from) else {
            unreachable!("msg_local checked the endpoint");
        };
        let earliest = match ep.assoc.get(&to).copied() {
            Some(AssocState::Established) => now,
            Some(AssocState::Setup { ready_at }) => {
                if ready_at <= now {
                    ep.assoc.insert(to, AssocState::Established);
                    now
                } else {
                    ready_at
                }
            }
            None => {
                // Four-way handshake: two round trips before data flows.
                let ready_at = now + one_way * 4 + setup;
                ep.assoc.insert(to, AssocState::Setup { ready_at });
                ready_at
            }
        };
        let deliver_at = earliest.max(now) + base_delay;
        self.events.push((
            deliver_at,
            NetEvent::SctpDeliver {
                to_host: to.host,
                to_port: to.port,
                from: from_addr,
                data,
            },
        ));
        Ok(())
    }

    pub(crate) fn sctp_deliver(
        &mut self,
        to_host: HostId,
        to_port: Port,
        from: SockAddr,
        data: Bytes,
    ) {
        let to = SockAddr::new(to_host, to_port);
        let Some(&ep) = self.msg_bound.get(&(MsgTransport::Sctp, to)) else {
            return; // no endpoint: ABORT chunk in real SCTP, vanishes here
        };
        let cap = self.cfg.udp_rcv_queue;
        let mut new_assoc = false;
        if let Some(Endpoint::Msg(e)) = self.eps.get_mut(ep) {
            if let std::collections::hash_map::Entry::Vacant(slot) = e.assoc.entry(from) {
                // Receiver side of the handshake: the kernel records the
                // association so replies flow without another setup.
                slot.insert(AssocState::Established);
                new_assoc = true;
            }
            if e.rx.len() >= cap {
                e.dropped += 1;
            } else {
                e.rx.push_back((from, data));
                self.stats.sctp_messages += 1;
                self.outcomes.push(NetOutcome::Readable(ep));
            }
        }
        if new_assoc {
            self.stats.sctp_assocs += 1;
        }
    }

    /// Number of live associations on an SCTP endpoint (observability for
    /// tests and reports).
    pub fn sctp_assoc_count(&self, ep: EpId) -> usize {
        match self.eps.get(ep) {
            Some(Endpoint::Msg(e)) => e.assoc.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::endpoint::bytes_from;
    use siperf_simcore::queue::EventQueue;

    struct H {
        net: Network,
        q: EventQueue<NetEvent>,
        now: SimTime,
    }

    impl H {
        fn new() -> (Self, HostId, HostId) {
            let mut net = Network::new(NetConfig::lan(), 3);
            let a = net.add_host();
            let b = net.add_host();
            (
                H {
                    net,
                    q: EventQueue::new(),
                    now: SimTime::ZERO,
                },
                a,
                b,
            )
        }

        fn settle(&mut self) -> Vec<NetOutcome> {
            let mut out = Vec::new();
            loop {
                for (t, ev) in self.net.take_events() {
                    self.q.schedule(t, ev);
                }
                out.extend(self.net.take_outcomes());
                match self.q.pop() {
                    Some((t, ev)) => {
                        self.now = t;
                        self.net.handle_event(t, ev);
                    }
                    None => break,
                }
            }
            out
        }
    }

    #[test]
    fn message_roundtrip_with_boundaries() {
        let (mut h, a, b) = H::new();
        let server = h.net.sctp_bind(b, 5060).unwrap();
        let (client, cport) = h.net.msg_bind_ephemeral(MsgTransport::Sctp, a).unwrap();
        h.net
            .sctp_send(
                h.now,
                client,
                SockAddr::new(b, 5060),
                bytes_from(b"one".to_vec()),
            )
            .unwrap();
        h.net
            .sctp_send(
                h.now,
                client,
                SockAddr::new(b, 5060),
                bytes_from(b"two".to_vec()),
            )
            .unwrap();
        h.settle();
        let (from, m1) = h.net.sctp_try_recv(server).unwrap();
        assert_eq!(from, SockAddr::new(a, cport));
        assert_eq!(&*m1, b"one");
        let (_, m2) = h.net.sctp_try_recv(server).unwrap();
        assert_eq!(&*m2, b"two"); // boundaries preserved, order preserved
        assert_eq!(h.net.sctp_try_recv(server), Err(Errno::WouldBlock));
    }

    #[test]
    fn first_exchange_pays_association_setup() {
        let (mut h, a, b) = H::new();
        let _server = h.net.sctp_bind(b, 5060).unwrap();
        let (client, _) = h.net.msg_bind_ephemeral(MsgTransport::Sctp, a).unwrap();
        h.net
            .sctp_send(h.now, client, SockAddr::new(b, 5060), bytes_from(vec![1]))
            .unwrap();
        let evs = h.net.take_events();
        let first_delivery = evs[0].0;
        // Setup costs at least 4 one-way latencies beyond the send latency.
        assert!(
            first_delivery.as_nanos() >= (h.net.config().one_way_latency * 5).as_nanos(),
            "setup not charged: {first_delivery:?}"
        );
        for (t, ev) in evs {
            h.q.schedule(t, ev);
        }
        h.settle();
        // Second message flows at plain latency.
        h.net
            .sctp_send(h.now, client, SockAddr::new(b, 5060), bytes_from(vec![2]))
            .unwrap();
        let evs = h.net.take_events();
        let dt = evs[0].0 - h.now;
        assert!(dt < h.net.config().one_way_latency * 2);
    }

    #[test]
    fn receiver_learns_association_for_replies() {
        let (mut h, a, b) = H::new();
        let server = h.net.sctp_bind(b, 5060).unwrap();
        let (client, cport) = h.net.msg_bind_ephemeral(MsgTransport::Sctp, a).unwrap();
        h.net
            .sctp_send(h.now, client, SockAddr::new(b, 5060), bytes_from(vec![1]))
            .unwrap();
        h.settle();
        assert_eq!(h.net.sctp_assoc_count(server), 1);
        // Reply does not pay setup again.
        h.net
            .sctp_send(h.now, server, SockAddr::new(a, cport), bytes_from(vec![2]))
            .unwrap();
        let evs = h.net.take_events();
        assert!(evs[0].0 - h.now < h.net.config().one_way_latency * 2);
        for (t, ev) in evs {
            h.q.schedule(t, ev);
        }
        h.settle();
        let (from, _) = h.net.sctp_try_recv(client).unwrap();
        assert_eq!(from, SockAddr::new(b, 5060));
    }

    #[test]
    fn bind_conflicts_and_close() {
        let (mut h, a, _) = H::new();
        let ep = h.net.sctp_bind(a, 5060).unwrap();
        assert_eq!(h.net.sctp_bind(a, 5060), Err(Errno::AddrInUse));
        h.net.close(SimTime::ZERO, ep);
        assert_eq!(h.net.endpoints_on(a), 0);
        h.net.sctp_bind(a, 5060).unwrap();
    }

    #[test]
    fn message_to_unbound_port_vanishes() {
        let (mut h, a, b) = H::new();
        let (client, _) = h.net.msg_bind_ephemeral(MsgTransport::Sctp, a).unwrap();
        h.net
            .sctp_send(h.now, client, SockAddr::new(b, 9999), bytes_from(vec![1]))
            .unwrap();
        let outcomes = h.settle();
        assert!(outcomes.is_empty());
    }
}
