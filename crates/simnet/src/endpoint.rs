//! Endpoint state for every socket type the stack supports.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use siperf_simcore::arena::Handle;
use siperf_simcore::time::SimTime;

use crate::addr::{HostId, SockAddr};
use crate::error::Errno;

/// Immutable, cheaply-clonable wire payload.
pub type Bytes = Rc<[u8]>;

/// Builds a payload from a byte vector.
pub fn bytes_from(v: Vec<u8>) -> Bytes {
    Rc::from(v.into_boxed_slice())
}

/// The two message-oriented protocols. A UDP socket and a one-to-many SCTP
/// endpoint have one shape — bind a port, send whole messages to any peer,
/// receive whole messages from any peer — so both are a [`MsgEp`], and the
/// protocol is chosen once, at bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgTransport {
    /// Plain datagrams.
    Udp,
    /// Kernel-managed associations.
    Sctp,
}

/// Handle to any endpoint in the network's arena.
pub type EpId = Handle<Endpoint>;

/// One socket's kernel-side state.
#[derive(Debug)]
pub enum Endpoint {
    /// A bound UDP socket or one-to-many SCTP endpoint.
    Msg(MsgEp),
    /// A TCP socket in LISTEN state.
    TcpListener(ListenEp),
    /// A TCP connection (either side).
    Tcp(TcpEp),
}

impl Endpoint {
    /// The host that owns this endpoint.
    pub fn host(&self) -> HostId {
        match self {
            Endpoint::Msg(e) => e.local.host,
            Endpoint::TcpListener(e) => e.local.host,
            Endpoint::Tcp(e) => e.local.host,
        }
    }
}

/// A bound message socket: a UDP socket, or a one-to-many SCTP endpoint
/// with kernel-managed associations (RFC 4168 usage, paper §6). Either
/// queues whole messages up to a drop threshold.
#[derive(Debug)]
pub struct MsgEp {
    /// The protocol, fixed at bind.
    pub proto: MsgTransport,
    /// Local binding.
    pub local: SockAddr,
    /// Received messages with their source address, not yet read.
    pub rx: VecDeque<(SockAddr, Bytes)>,
    /// Kernel-managed association table (SCTP only; empty under UDP).
    pub assoc: HashMap<SockAddr, AssocState>,
    /// Messages dropped because `rx` was full.
    pub dropped: u64,
}

/// A TCP listening socket with its accept queue.
#[derive(Debug)]
pub struct ListenEp {
    /// Local binding.
    pub local: SockAddr,
    /// Maximum established-but-unaccepted connections.
    pub backlog: usize,
    /// Established connections awaiting `accept()`.
    pub queue: VecDeque<(EpId, SockAddr)>,
}

/// Lifecycle of one side of a TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Client side: SYN sent, waiting for the SYN-ACK.
    SynSent,
    /// Data may flow both ways.
    Established,
    /// Peer sent FIN: reads drain then return EOF; writes fail.
    PeerClosed,
    /// Connection attempt failed; the stored errno is reported to the app.
    Failed(Errno),
}

/// One side of a TCP connection.
#[derive(Debug)]
pub struct TcpEp {
    /// Local address (ephemeral on the client side).
    pub local: SockAddr,
    /// Remote address.
    pub peer_addr: SockAddr,
    /// The other side's endpoint; dangling until established.
    pub peer: EpId,
    /// Protocol state.
    pub state: TcpState,
    /// Reassembled in-order received data, as (buffer, read offset) chunks.
    pub rx: VecDeque<(Bytes, usize)>,
    /// Total unread bytes in `rx`.
    pub rx_bytes: usize,
    /// Peer's FIN has been fully delivered (EOF after draining `rx`).
    pub eof: bool,
    /// Bytes this side has sent that have not yet arrived at the peer.
    pub in_flight: usize,
    /// Enforces in-order delivery despite per-segment jitter.
    pub next_deliver_at: SimTime,
    /// Whether `local.port` came from the ephemeral pool (must be returned).
    pub owns_port: bool,
    /// Set once the application closed this side.
    pub app_closed: bool,
}

impl TcpEp {
    /// True if the application can still write.
    pub fn can_write(&self) -> bool {
        self.state == TcpState::Established && !self.app_closed
    }

    /// True if a read would return data, EOF, or an error immediately.
    pub fn readable(&self) -> bool {
        self.rx_bytes > 0 || self.eof || matches!(self.state, TcpState::Failed(_))
    }
}

/// Establishment state of one SCTP association.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocState {
    /// Four-way handshake in progress; messages queue behind it.
    Setup {
        /// When the association becomes usable.
        ready_at: SimTime,
    },
    /// Messages flow with normal latency.
    Established,
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_simcore::arena::Handle;

    fn tcp_ep(state: TcpState) -> TcpEp {
        TcpEp {
            local: SockAddr::new(HostId(0), 40000),
            peer_addr: SockAddr::new(HostId(1), 5060),
            peer: Handle::DANGLING,
            state,
            rx: VecDeque::new(),
            rx_bytes: 0,
            eof: false,
            in_flight: 0,
            next_deliver_at: SimTime::ZERO,
            owns_port: true,
            app_closed: false,
        }
    }

    #[test]
    fn tcp_write_requires_established() {
        assert!(tcp_ep(TcpState::Established).can_write());
        assert!(!tcp_ep(TcpState::SynSent).can_write());
        assert!(!tcp_ep(TcpState::PeerClosed).can_write());
        let mut e = tcp_ep(TcpState::Established);
        e.app_closed = true;
        assert!(!e.can_write());
    }

    #[test]
    fn tcp_readable_on_data_eof_or_failure() {
        let mut e = tcp_ep(TcpState::Established);
        assert!(!e.readable());
        e.rx_bytes = 10;
        assert!(e.readable());
        e.rx_bytes = 0;
        e.eof = true;
        assert!(e.readable());
        assert!(tcp_ep(TcpState::Failed(Errno::ConnRefused)).readable());
    }

    #[test]
    fn payload_is_cheap_to_clone() {
        let b = bytes_from(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(&*c, &[1, 2, 3]);
        assert_eq!(Rc::strong_count(&b), 2);
    }
}
