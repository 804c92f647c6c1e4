//! Wire events and kernel-visible outcomes.
//!
//! The network never schedules anything itself: every operation pushes
//! `(SimTime, NetEvent)` pairs into a pending list that the simulated kernel
//! drains into its global event queue, and every state change that could
//! unblock a process pushes a [`NetOutcome`]. This keeps `simnet` a pure
//! state machine and keeps all causality in one queue.

use crate::addr::{HostId, Port, SockAddr};
use crate::endpoint::{Bytes, EpId};
use crate::error::Errno;

/// A frame (or protocol control message) in flight between hosts.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// A UDP datagram arriving at a bound socket (resolved at send time).
    UdpDeliver {
        /// Destination endpoint.
        to: EpId,
        /// Sender's address.
        from: SockAddr,
        /// Payload.
        data: Bytes,
    },
    /// A TCP SYN arriving at `to_host:to_port`; the listener is looked up at
    /// delivery time, as in a real stack.
    TcpSyn {
        /// Destination host.
        to_host: HostId,
        /// Destination port.
        to_port: Port,
        /// The connecting client's endpoint.
        from_ep: EpId,
        /// The connecting client's address.
        from_addr: SockAddr,
    },
    /// SYN-ACK completing the client side of the handshake.
    TcpSynAck {
        /// The client endpoint that sent the SYN.
        to: EpId,
        /// The server-side connection endpoint created by the SYN.
        server_ep: EpId,
    },
    /// RST refusing a connection attempt.
    TcpRefused {
        /// The client endpoint that sent the SYN.
        to: EpId,
        /// Why the connection was refused.
        err: Errno,
    },
    /// An in-order TCP segment.
    TcpSegment {
        /// Receiving endpoint.
        to: EpId,
        /// Backing buffer (shared with other segments of the same send).
        data: Bytes,
        /// First byte of this segment within `data`.
        offset: usize,
        /// Segment length.
        len: usize,
    },
    /// FIN: the peer will send no more data.
    TcpFin {
        /// Receiving endpoint.
        to: EpId,
    },
    /// An ephemeral port leaves TIME_WAIT and returns to the pool.
    PortRelease {
        /// Host owning the port.
        host: HostId,
        /// The port.
        port: Port,
    },
    /// A frozen accept queue thaws (fault injection); listeners on the host
    /// re-announce queued connections.
    AcceptThaw {
        /// Host whose accept queues thaw.
        host: HostId,
    },
    /// An SCTP message arriving at a bound endpoint.
    SctpDeliver {
        /// Destination host (endpoint resolved at delivery).
        to_host: HostId,
        /// Destination port.
        to_port: Port,
        /// Source association address.
        from: SockAddr,
        /// Message payload (whole message: SCTP preserves boundaries).
        data: Bytes,
    },
}

/// A state change the kernel may need to act on (wake blocked processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetOutcome {
    /// The endpoint has data, EOF, an error, or an acceptable connection.
    Readable(EpId),
    /// Send space opened up on this endpoint (or writes now fail fast).
    Writable(EpId),
    /// A `connect()` completed successfully.
    ConnectOk(EpId),
    /// A `connect()` failed.
    ConnectErr(EpId, Errno),
}

impl NetOutcome {
    /// The endpoint this outcome concerns.
    pub fn endpoint(self) -> EpId {
        match self {
            NetOutcome::Readable(e)
            | NetOutcome::Writable(e)
            | NetOutcome::ConnectOk(e)
            | NetOutcome::ConnectErr(e, _) => e,
        }
    }
}
