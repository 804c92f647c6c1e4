//! The read side both TCP architectures share.
//!
//! TCP has no message boundaries, so exactly one worker reads each
//! connection (§3.1). [`Streams`] is one worker's set of the connections it
//! reads: descriptor, peer and framer for each, indexed by descriptor for
//! the poll result. It builds the worker's poll set, handles each receive
//! (touch the shared table, charge §5.3's per-message priority-queue
//! update, frame) and serves the framed messages in arrival order.
//!
//! How a worker comes to own a descriptor, how an idle connection is
//! closed and how a send is locked are where the two architectures differ,
//! and stay with [`crate::tcp`] and [`crate::threaded`].

use std::collections::{HashMap, VecDeque};

use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;
use siperf_simos::syscall::{Fd, SysResult, Syscall};
use siperf_sip::framer::StreamFramer;

use crate::config::IdleStrategy;
use crate::conn::ConnId;
use crate::core::Outgoing;
use crate::plumbing::{locked, tags, Shared};

/// Bytes asked for per receive.
const RECV_CHUNK: usize = 16 * 1024;

struct Stream {
    fd: Fd,
    peer: SockAddr,
    framer: StreamFramer,
}

/// What a stream worker waits on, for the resume arms [`Streams::resume`]
/// handles.
#[derive(Debug, Clone, Copy)]
pub enum Io {
    /// The poll over the control descriptor and every owned connection.
    Poll,
    /// A receive on an owned connection.
    Recv(u64),
    /// A scripted syscall whose only possible failure is a send error.
    Script,
}

/// The next descriptor a worker should read.
#[derive(Debug, Clone)]
pub enum Next {
    /// The worker's control channel (new connections, closes).
    Ctl,
    /// An owned connection: the syscall to issue and what to wait on.
    Recv(Syscall, Io),
}

enum Ready {
    Ctl,
    Conn(u64),
}

/// One worker's owned connections and what they have delivered.
#[derive(Default)]
pub struct Streams {
    conns: HashMap<u64, Stream>,
    by_fd: HashMap<Fd, u64>,
    ready: VecDeque<Ready>,
    frames: VecDeque<(Vec<u8>, SockAddr)>,
}

impl Streams {
    /// Starts reading connection `conn` on `fd`, with an empty framer.
    pub fn adopt(&mut self, conn: u64, fd: Fd, peer: SockAddr) {
        let framer = StreamFramer::new();
        self.conns.insert(conn, Stream { fd, peer, framer });
        self.by_fd.insert(fd, conn);
    }

    /// Stops reading `conn`; returns its descriptor if it was owned.
    pub fn release(&mut self, conn: u64) -> Option<Fd> {
        let stream = self.conns.remove(&conn)?;
        self.by_fd.remove(&stream.fd);
        Some(stream.fd)
    }

    /// The descriptor of an owned connection.
    pub fn fd(&self, conn: u64) -> Option<Fd> {
        self.conns.get(&conn).map(|s| s.fd)
    }

    /// True when `conn` is owned.
    pub fn owns(&self, conn: u64) -> bool {
        self.conns.contains_key(&conn)
    }

    /// The owned connections, in no particular order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.conns.keys().copied()
    }

    /// Number of owned connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Polls `ctl` and every owned connection. Poll order decides which
    /// ready connection is served first, so the connections are listed by
    /// descriptor, not in hash-map order.
    pub fn poll(&self, ctl: Fd, timeout: Option<SimDuration>) -> Syscall {
        let mut fds = Vec::with_capacity(1 + self.conns.len());
        fds.push(ctl);
        fds.extend(self.conns.values().map(|s| s.fd));
        fds[1..].sort_unstable();
        Syscall::Poll { fds, timeout }
    }

    /// The next descriptor to read, in poll-result order; connections
    /// released since the poll are skipped.
    pub fn next_ready(&mut self) -> Option<Next> {
        while let Some(ready) = self.ready.pop_front() {
            match ready {
                Ready::Ctl => return Some(Next::Ctl),
                Ready::Conn(conn) => {
                    if let Some(fd) = self.fd(conn) {
                        let recv = Syscall::TcpRecv {
                            fd,
                            max: RECV_CHUNK,
                        };
                        return Some(Next::Recv(recv, Io::Recv(conn)));
                    }
                }
            }
        }
        None
    }

    /// Serves the oldest framed message and queues its sends on `out_q`.
    /// Returns false when no message is waiting. The worker's backlog
    /// reported to the overload policy is what it still holds: framed
    /// messages plus queued sends.
    pub fn serve_next(
        &mut self,
        shared: &Shared,
        script: &mut VecDeque<Syscall>,
        out_q: &mut VecDeque<Outgoing>,
        worker: usize,
        now: SimTime,
    ) -> bool {
        let Some((raw, src)) = self.frames.pop_front() else {
            return false;
        };
        let depth = self.frames.len() + out_q.len();
        out_q.extend(shared.serve(script, Some((worker, depth)), now, &raw, src));
        true
    }

    /// Takes the result of the syscall a worker waited on with `io`.
    /// Returns a connection that died (EOF, reset or a corrupt stream),
    /// already released: the caller closes it the way its architecture
    /// does.
    pub fn resume(
        &mut self,
        shared: &Shared,
        script: &mut VecDeque<Syscall>,
        ctl: Fd,
        now: SimTime,
        io: Io,
        last: SysResult,
    ) -> Option<(u64, Fd)> {
        match (io, last) {
            (Io::Poll, SysResult::Ready(fds)) => {
                for fd in fds {
                    if fd == ctl {
                        self.ready.push_back(Ready::Ctl);
                    } else if let Some(&conn) = self.by_fd.get(&fd) {
                        self.ready.push_back(Ready::Conn(conn));
                    }
                }
                None
            }
            (Io::Poll, SysResult::TimedOut) => None,
            (Io::Recv(conn), SysResult::Data(bytes)) => {
                // Update the connection's idle clock; in PQ mode this
                // repositions it in the shared heap under the table lock
                // (§5.3's per-message price).
                let cfg = &shared.cfg;
                shared
                    .conns
                    .borrow_mut()
                    .touch(ConnId(conn), now, cfg.idle_timeout);
                if cfg.idle_strategy == IdleStrategy::PriorityQueue {
                    let ns = cfg.app_costs.pq_update;
                    locked(script, shared.locks.conn, ns, tags::CONN_HASH);
                }
                let stream = self.conns.get_mut(&conn).expect("receiving on owned conn");
                stream.framer.push(&bytes);
                match stream.framer.drain_messages() {
                    Ok(frames) => {
                        let peer = stream.peer;
                        self.frames
                            .extend(frames.into_iter().map(|raw| (raw, peer)));
                        None
                    }
                    Err(_) => {
                        // Corrupt stream: drop the connection.
                        shared.core.borrow_mut().stats.parse_errors += 1;
                        self.release(conn).map(|fd| (conn, fd))
                    }
                }
            }
            (Io::Recv(conn), SysResult::Eof | SysResult::Err(_)) => {
                self.release(conn).map(|fd| (conn, fd))
            }
            (Io::Script, last) => {
                if let SysResult::Err(_) = last {
                    shared.core.borrow_mut().stats.send_errors += 1;
                }
                None
            }
            (io, other) => panic!("stream worker {io:?} got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use siperf_simnet::addr::HostId;
    use siperf_simos::lock::LockId;

    use crate::config::{ProxyConfig, Transport};
    use crate::conn::ConnTable;
    use crate::core::ProxyCore;
    use crate::plumbing::Locks;

    const MSG: &[u8] = b"OPTIONS sip:bob@h2:20002 SIP/2.0\r\nContent-Length: 0\r\n\r\n";

    fn shared() -> Shared {
        let cfg = ProxyConfig::paper(Transport::Tcp);
        Shared {
            core: Rc::new(RefCell::new(ProxyCore::new(
                "h0:5060".into(),
                Transport::Tcp,
                true,
            ))),
            conns: Rc::new(RefCell::new(ConnTable::new(cfg.idle_strategy))),
            cfg: Rc::new(cfg),
            locks: Locks {
                txn: LockId(0),
                usrloc: LockId(1),
                timer: LockId(2),
                conn: LockId(3),
            },
        }
    }

    fn peer(n: u16) -> SockAddr {
        SockAddr::new(HostId(1), 20_000 + n)
    }

    fn data(bytes: &[u8]) -> SysResult {
        SysResult::Data(bytes.to_vec())
    }

    #[test]
    fn poll_set_lists_ctl_first_then_connections_by_fd() {
        let mut streams = Streams::default();
        for (conn, fd) in [(1, 9), (2, 4), (3, 7), (4, 5)] {
            streams.adopt(conn, Fd(fd), peer(conn as u16));
        }
        streams.release(3);
        let Syscall::Poll { fds, timeout } = streams.poll(Fd(2), None) else {
            panic!("not a poll");
        };
        assert_eq!(fds, vec![Fd(2), Fd(4), Fd(5), Fd(9)]);
        assert_eq!(timeout, None);
    }

    #[test]
    fn a_frame_split_across_two_receives_is_served_once() {
        let sh = shared();
        let mut streams = Streams::default();
        let mut script = VecDeque::new();
        streams.adopt(1, Fd(4), peer(1));
        let now = SimTime::ZERO;
        let (head, tail) = MSG.split_at(20);
        let io = Io::Recv(1);
        assert_eq!(
            streams.resume(&sh, &mut script, Fd(2), now, io, data(head)),
            None
        );
        assert!(streams.frames.is_empty(), "half a message framed");
        assert_eq!(
            streams.resume(&sh, &mut script, Fd(2), now, io, data(tail)),
            None
        );
        assert_eq!(streams.frames.len(), 1);
        assert_eq!(streams.frames[0], (MSG.to_vec(), peer(1)));
        assert!(streams.owns(1));
    }

    #[test]
    fn a_corrupt_stream_releases_the_connection_and_counts_a_parse_error() {
        let sh = shared();
        let mut streams = Streams::default();
        let mut script = VecDeque::new();
        streams.adopt(1, Fd(4), peer(1));
        let corrupt = data(b"OPTIONS sip:bob@h2 SIP/2.0\r\nVia: x\r\n\r\n");
        let dead = streams.resume(&sh, &mut script, Fd(2), SimTime::ZERO, Io::Recv(1), corrupt);
        assert_eq!(dead, Some((1, Fd(4))));
        assert!(!streams.owns(1));
        assert_eq!(sh.core.borrow().stats.parse_errors, 1);
        // A poll result naming the released descriptor is ignored.
        let ready = SysResult::Ready(vec![Fd(4)]);
        streams.resume(&sh, &mut script, Fd(2), SimTime::ZERO, Io::Poll, ready);
        assert!(streams.next_ready().is_none());
    }
}
