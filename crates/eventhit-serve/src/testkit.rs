//! An in-memory transport, so a session can be driven without a socket.
//!
//! [`pipe`] returns the two ends of a duplex byte pipe; each end is
//! `Read + Write`, which is all [`Server::serve_on`](crate::Server::serve_on)
//! and [`ServeClient::over`](crate::ServeClient::over) ask of a
//! transport. Writes never block (the pipe is unbounded — it is a test
//! transport); reads block until the peer writes or goes away.
//!
//! **A `read` never returns bytes of more than one `write`.** The chunks a
//! test writes are exactly the pieces the reader's `read`s see, so a test
//! *chooses* where a frame is cut, or that two frames arrive together,
//! instead of hoping a scheduler does it. A real socket promises no such
//! thing — which is the point: a session must give the same answers for
//! every cut, and here every cut can be enumerated.
//!
//! Dropping an end closes both directions: the peer's reads drain what
//! was written and then see EOF, its writes fail `BrokenPipe`.
//! [`PipeEnd::shutdown_write`] is the half-close — "I have sent
//! everything" — after which the end can still read the replies.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One direction of the pipe.
#[derive(Default)]
struct Lane {
    state: Mutex<LaneState>,
    arrived: Condvar,
}

#[derive(Default)]
struct LaneState {
    /// Written and not yet read, one entry per `write`.
    chunks: VecDeque<Vec<u8>>,
    /// Nothing more will be written (writer shut down or gone) or read
    /// (reader gone).
    closed: bool,
}

impl Lane {
    /// The state is valid after every single update (a chunk is queued
    /// or it is not), so a peer thread that panicked holding the lock
    /// leaves nothing to repair.
    fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.arrived.notify_all();
    }
}

/// One end of an in-memory duplex pipe (see the [module docs](self)).
pub struct PipeEnd {
    incoming: Arc<Lane>,
    outgoing: Arc<Lane>,
}

/// A connected pair of pipe ends: what either writes, the other reads.
pub fn pipe() -> (PipeEnd, PipeEnd) {
    let (a_to_b, b_to_a) = (Arc::new(Lane::default()), Arc::new(Lane::default()));
    let a = PipeEnd {
        incoming: Arc::clone(&b_to_a),
        outgoing: Arc::clone(&a_to_b),
    };
    let b = PipeEnd {
        incoming: a_to_b,
        outgoing: b_to_a,
    };
    (a, b)
}

impl PipeEnd {
    /// Half-close: the peer reads what was written so far, then EOF; this
    /// end can still read.
    pub fn shutdown_write(&self) {
        self.outgoing.close();
    }
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut lane = self.incoming.lock();
        while lane.chunks.is_empty() && !lane.closed {
            lane = self
                .incoming
                .arrived
                .wait(lane)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let Some(chunk) = lane.chunks.front_mut() else {
            return Ok(0); // closed and drained
        };
        let n = buf.len().min(chunk.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        if n == chunk.len() {
            lane.chunks.pop_front();
        } else {
            chunk.drain(..n);
        }
        Ok(n)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // An empty chunk would read as EOF.
        if buf.is_empty() {
            return Ok(0);
        }
        let mut lane = self.outgoing.lock();
        if lane.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        lane.chunks.push_back(buf.to_vec());
        self.outgoing.arrived.notify_one();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        self.outgoing.close();
        self.incoming.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_sees_one_write_at_most_and_eof_after_the_last() {
        let (mut a, mut b) = pipe();
        a.write_all(b"hello").unwrap();
        a.write_all(b"pipe").unwrap();
        a.shutdown_write();
        let mut buf = [0u8; 16];
        assert_eq!(
            b.read(&mut buf[..3]).unwrap(),
            3,
            "a short read splits a chunk"
        );
        assert_eq!(
            b.read(&mut buf[3..]).unwrap(),
            2,
            "...and never runs into the next"
        );
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF once drained");
        // Half-closed, `a` still hears `b`.
        b.write_all(b"ack").unwrap();
        assert_eq!(a.read(&mut buf).unwrap(), 3);
        assert_eq!(
            a.write(b"more").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn a_blocked_read_wakes_on_a_write_and_on_a_drop() {
        let (mut a, mut b) = pipe();
        let reader = std::thread::spawn(move || {
            let mut all = Vec::new();
            b.read_to_end(&mut all).unwrap();
            all
        });
        a.write_all(b"late").unwrap();
        drop(a);
        assert_eq!(reader.join().unwrap(), b"late");
    }
}
