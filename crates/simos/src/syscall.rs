//! The syscall interface between simulated processes and the kernel.

use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::{Port, SockAddr};
use siperf_simnet::endpoint::Bytes;
use siperf_simnet::error::Errno;

use crate::ipc::{ChanId, Side};
use crate::lock::LockId;

/// A per-process file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl std::fmt::Display for Fd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// A small fixed-shape IPC message, modelled on OpenSER's fixed-size control
/// messages between the TCP supervisor and its workers. The `fd` field
/// carries a descriptor `SCM_RIGHTS`-style: the kernel resolves the sender's
/// descriptor at send time and installs a fresh one in the receiver's table
/// at receive time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcMsg {
    /// Application-defined message type.
    pub kind: u32,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Descriptor to pass (sender-local on send, receiver-local on receive).
    pub fd: Option<Fd>,
}

impl IpcMsg {
    /// A message with no descriptor attached.
    pub fn new(kind: u32, a: u64, b: u64) -> Self {
        IpcMsg {
            kind,
            a,
            b,
            fd: None,
        }
    }

    /// A message passing a descriptor.
    pub fn with_fd(kind: u32, a: u64, b: u64, fd: Fd) -> Self {
        IpcMsg {
            kind,
            a,
            b,
            fd: Some(fd),
        }
    }
}

/// What a process asks the kernel to do next. Exactly one syscall is
/// outstanding per process; the kernel charges its CPU cost, performs it
/// (blocking the process if necessary), and resumes the process with a
/// [`SysResult`].
#[derive(Debug, Clone)]
pub enum Syscall {
    /// Burn CPU for `ns` nanoseconds, attributed to `tag` in the profile.
    /// This is how application-level work (parsing, table lookups, …) is
    /// modelled.
    Compute {
        /// Nanoseconds of CPU.
        ns: u64,
        /// Profile tag, conventionally `"user/<function>"`.
        tag: &'static str,
    },
    /// Sleep for a duration (timer arm + wakeup).
    Sleep(SimDuration),
    /// Sleep until an absolute instant (used for phased workloads).
    SleepUntil(SimTime),
    /// Give up the CPU, go to the back of the run queue.
    Yield,
    /// Terminate; all descriptors are closed.
    Exit,
    /// Bind a UDP socket on this process's host.
    UdpBind {
        /// Port to bind.
        port: Port,
    },
    /// Bind a UDP socket on an ephemeral port.
    UdpBindEphemeral,
    /// Send a datagram.
    UdpSend {
        /// Sending socket.
        fd: Fd,
        /// Destination.
        to: SockAddr,
        /// Payload.
        data: Bytes,
    },
    /// Receive a datagram, blocking until one arrives.
    UdpRecv {
        /// Receiving socket.
        fd: Fd,
    },
    /// Open a TCP listening socket.
    TcpListen {
        /// Port to listen on.
        port: Port,
        /// Accept-queue depth.
        backlog: usize,
    },
    /// Connect to a remote listener, blocking until the handshake resolves.
    TcpConnect {
        /// Destination.
        to: SockAddr,
    },
    /// Accept a connection, blocking until one is queued.
    TcpAccept {
        /// Listening socket.
        fd: Fd,
    },
    /// Write a whole buffer to a stream, blocking on backpressure.
    TcpSend {
        /// Connected socket.
        fd: Fd,
        /// Payload.
        data: Bytes,
    },
    /// Read up to `max` bytes, blocking until data or EOF.
    TcpRecv {
        /// Connected socket.
        fd: Fd,
        /// Maximum bytes to return.
        max: usize,
    },
    /// Bind an SCTP one-to-many endpoint.
    SctpBind {
        /// Port to bind.
        port: Port,
    },
    /// Bind an SCTP endpoint on an ephemeral port.
    SctpBindEphemeral,
    /// Send one SCTP message (association managed by the kernel).
    SctpSend {
        /// Sending endpoint.
        fd: Fd,
        /// Destination.
        to: SockAddr,
        /// Whole message.
        data: Bytes,
    },
    /// Receive one SCTP message, blocking until one arrives.
    SctpRecv {
        /// Receiving endpoint.
        fd: Fd,
    },
    /// Close a descriptor.
    Close {
        /// Descriptor to close.
        fd: Fd,
    },
    /// Wait until any of `fds` is readable (epoll-style). Returns the ready
    /// subset, or [`SysResult::TimedOut`] after `timeout`.
    Poll {
        /// Descriptors to watch.
        fds: Vec<Fd>,
        /// Optional timeout.
        timeout: Option<SimDuration>,
    },
    /// Attach to one side of an IPC channel, returning a descriptor.
    IpcAttach {
        /// Channel created at world-building time.
        chan: ChanId,
        /// Which side this process speaks from.
        side: Side,
    },
    /// Send an IPC message, blocking while the channel is full — the
    /// blocking send at the heart of the paper's §6 deadlock.
    IpcSend {
        /// Channel descriptor from [`Syscall::IpcAttach`].
        fd: Fd,
        /// Message (may carry a descriptor).
        msg: IpcMsg,
    },
    /// Receive an IPC message, blocking while the channel is empty.
    IpcRecv {
        /// Channel descriptor.
        fd: Fd,
    },
    /// Acquire a shared-memory spinlock. Contention is modelled as OpenSER
    /// implements it: bounded spin, then `sched_yield`, then retry.
    LockAcquire {
        /// The lock.
        lock: LockId,
    },
    /// Release a lock this process holds.
    LockRelease {
        /// The lock.
        lock: LockId,
    },
}

/// The two message-oriented transports. UDP datagrams and SCTP one-to-many
/// messages have one socket shape — bind a port, send whole messages to any
/// peer, receive whole messages from any peer — so processes that speak
/// either build their syscalls through this selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgTransport {
    /// Plain datagrams.
    Udp,
    /// Kernel-managed associations.
    Sctp,
}

impl MsgTransport {
    /// Binds a socket on `port`.
    pub fn bind(self, port: Port) -> Syscall {
        match self {
            MsgTransport::Udp => Syscall::UdpBind { port },
            MsgTransport::Sctp => Syscall::SctpBind { port },
        }
    }

    /// Sends one whole message to `to`.
    pub fn send(self, fd: Fd, to: SockAddr, data: Bytes) -> Syscall {
        match self {
            MsgTransport::Udp => Syscall::UdpSend { fd, to, data },
            MsgTransport::Sctp => Syscall::SctpSend { fd, to, data },
        }
    }

    /// Receives one whole message, blocking until one arrives.
    pub fn recv(self, fd: Fd) -> Syscall {
        match self {
            MsgTransport::Udp => Syscall::UdpRecv { fd },
            MsgTransport::Sctp => Syscall::SctpRecv { fd },
        }
    }
}

/// The completion value delivered to [`crate::process::Process::resume`].
#[derive(Debug, Clone)]
pub enum SysResult {
    /// First activation of the process; no syscall has completed.
    Start,
    /// The syscall completed with nothing to return.
    Done,
    /// A descriptor (bind/listen/connect/attach).
    NewFd(Fd),
    /// A descriptor plus the ephemeral port that was chosen.
    NewFdPort {
        /// The descriptor.
        fd: Fd,
        /// The bound port.
        port: Port,
    },
    /// A received datagram.
    Datagram {
        /// Sender address.
        from: SockAddr,
        /// Payload.
        data: Bytes,
    },
    /// Bytes read from a TCP stream.
    Data(Vec<u8>),
    /// The TCP peer closed; the stream is drained.
    Eof,
    /// An accepted connection.
    Accepted {
        /// Descriptor for the new connection.
        fd: Fd,
        /// Peer address.
        peer: SockAddr,
    },
    /// A received SCTP message.
    SctpMsg {
        /// Source association address.
        from: SockAddr,
        /// Whole message.
        data: Bytes,
    },
    /// A received IPC message; `fd` (if any) is receiver-local.
    Ipc(IpcMsg),
    /// The ready descriptors from a poll.
    Ready(Vec<Fd>),
    /// A poll timed out with nothing ready.
    TimedOut,
    /// The syscall failed.
    Err(Errno),
}

impl SysResult {
    /// Unwraps a new descriptor, panicking otherwise — for process state
    /// machines at points where any other result is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`SysResult::NewFd`] or
    /// [`SysResult::NewFdPort`].
    pub fn expect_fd(&self) -> Fd {
        match self {
            SysResult::NewFd(fd) => *fd,
            SysResult::NewFdPort { fd, .. } => *fd,
            other => panic!("expected fd result, got {other:?}"),
        }
    }

    /// True if this is an error result.
    pub fn is_err(&self) -> bool {
        matches!(self, SysResult::Err(_))
    }

    /// Takes a received UDP datagram or SCTP message as `(from, data)`;
    /// `None` for any other result.
    pub fn into_msg(self) -> Option<(SockAddr, Bytes)> {
        match self {
            SysResult::Datagram { from, data } | SysResult::SctpMsg { from, data } => {
                Some((from, data))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_msg_constructors() {
        let m = IpcMsg::new(1, 2, 3);
        assert_eq!(m.fd, None);
        let m = IpcMsg::with_fd(1, 2, 3, Fd(7));
        assert_eq!(m.fd, Some(Fd(7)));
    }

    #[test]
    fn expect_fd_unwraps() {
        assert_eq!(SysResult::NewFd(Fd(3)).expect_fd(), Fd(3));
        assert_eq!(
            SysResult::NewFdPort {
                fd: Fd(4),
                port: 99
            }
            .expect_fd(),
            Fd(4)
        );
    }

    #[test]
    #[should_panic(expected = "expected fd result")]
    fn expect_fd_panics_on_other() {
        SysResult::Done.expect_fd();
    }

    #[test]
    fn msg_transport_selects_the_variant() {
        let to = SockAddr::new(siperf_simnet::HostId(0), 5060);
        let data: Bytes = siperf_simnet::endpoint::bytes_from(b"x".to_vec());
        assert!(matches!(
            MsgTransport::Udp.bind(1),
            Syscall::UdpBind { port: 1 }
        ));
        assert!(matches!(
            MsgTransport::Sctp.bind(1),
            Syscall::SctpBind { port: 1 }
        ));
        assert!(matches!(
            MsgTransport::Udp.send(Fd(1), to, data.clone()),
            Syscall::UdpSend { .. }
        ));
        assert!(matches!(
            MsgTransport::Sctp.send(Fd(1), to, data.clone()),
            Syscall::SctpSend { .. }
        ));
        assert!(matches!(
            MsgTransport::Udp.recv(Fd(2)),
            Syscall::UdpRecv { fd: Fd(2) }
        ));
        assert!(matches!(
            MsgTransport::Sctp.recv(Fd(2)),
            Syscall::SctpRecv { fd: Fd(2) }
        ));
        let sctp = SysResult::SctpMsg {
            from: to,
            data: data.clone(),
        };
        assert_eq!(sctp.into_msg().map(|(from, _)| from), Some(to));
        let udp = SysResult::Datagram { from: to, data };
        assert!(udp.into_msg().is_some());
        assert!(SysResult::Done.into_msg().is_none());
    }

    #[test]
    fn is_err() {
        assert!(SysResult::Err(Errno::BadFd).is_err());
        assert!(!SysResult::Done.is_err());
    }
}
