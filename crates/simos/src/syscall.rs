//! The syscall interface between simulated processes and the kernel.

use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::{Port, SockAddr};
use siperf_simnet::endpoint::Bytes;
pub use siperf_simnet::endpoint::MsgTransport;
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
    /// Bind a message socket — a UDP socket or a one-to-many SCTP
    /// endpoint — on this process's host. The protocol is chosen here, once:
    /// sends, receives and their costs read it from the descriptor.
    MsgBind {
        /// UDP or SCTP.
        proto: MsgTransport,
        /// Port to bind.
        port: Port,
    },
    /// Bind a message socket on an ephemeral port.
    MsgBindEphemeral {
        /// UDP or SCTP.
        proto: MsgTransport,
    },
    /// Send one whole message: a datagram, or an SCTP message whose
    /// association the kernel manages.
    MsgSend {
        /// Sending socket.
        fd: Fd,
        /// Destination.
        to: SockAddr,
        /// Payload.
        data: Bytes,
    },
    /// Receive one whole message, blocking until one arrives.
    MsgRecv {
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
    /// A received UDP datagram or SCTP message.
    Msg {
        /// Sender address.
        from: SockAddr,
        /// Whole message.
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
    fn is_err() {
        assert!(SysResult::Err(Errno::BadFd).is_err());
        assert!(!SysResult::Done.is_err());
    }
}
