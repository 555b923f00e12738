//! Transport: the in-process duplex stream, and the connection front
//! that serves it and TCP alike.
//!
//! A [`DuplexStream`] pair behaves like the two ends of a connected
//! socket — blocking `Read`/`Write` over a pair of in-memory channels —
//! without touching the network stack. Tests and the load generator
//! run the full wire protocol over it, deterministically and
//! socket-free; the same server code serves `TcpStream`s unchanged
//! (both are just `Read + Write`).
//!
//! A [`ConnectionFront`] is how a [`Server`](crate::Server) and a
//! router take connections: one handler thread per connection, whether
//! it came from [`ConnectionFront::connect_in_proc`] or a TCP accept
//! loop, and every one of those threads joined at shutdown.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A byte stream a connection is served over: an in-process duplex
/// end or a TCP socket.
pub trait Channel: Read + Write + Send {}
impl<T: Read + Write + Send> Channel for T {}

/// How shutdown stops one of a front's threads before joining it.
enum Stop {
    /// An in-process handler: its peer hangs up.
    Peer,
    /// A TCP handler: a clone of its socket, hung up.
    HangUp(TcpStream),
    /// An accept loop: one connection wakes it to see `closing`.
    Wake(SocketAddr),
}

struct Front {
    name: &'static str,
    serve: Box<dyn Fn(Box<dyn Channel>) + Send + Sync>,
    threads: Mutex<Vec<(JoinHandle<()>, Stop)>>,
    closing: AtomicBool,
}

impl Front {
    fn spawn(&self, run: impl FnOnce() + Send + 'static, stop: Stop) {
        let thread = std::thread::Builder::new()
            .name(self.name.into())
            .spawn(run)
            .expect("spawn connection thread");
        let mut threads = self.threads.lock().expect("locked only to push or take");
        // Finished threads are dropped here, so a long-lived front holds
        // only its live ones.
        threads.retain(|(t, _)| !t.is_finished());
        threads.push((thread, stop));
    }

    fn serve(self: &Arc<Self>, conn: Box<dyn Channel>, stop: Stop) {
        let front = Arc::clone(self);
        self.spawn(move || (front.serve)(conn), stop);
    }
}

/// The connection front of a server or router: one handler thread
/// running the owner's `serve` per connection, in process or accepted
/// over TCP, and every thread it started joined at
/// [`shutdown`](Self::shutdown).
pub struct ConnectionFront(Arc<Front>);

impl ConnectionFront {
    /// A front whose threads are named `name`, and whose handlers run
    /// `serve`.
    pub fn new(
        name: &'static str,
        serve: impl Fn(Box<dyn Channel>) + Send + Sync + 'static,
    ) -> Self {
        Self(Arc::new(Front {
            name,
            serve: Box::new(serve),
            threads: Mutex::new(Vec::new()),
            closing: AtomicBool::new(false),
        }))
    }

    /// Opens an in-process connection: the client end of a duplex pair
    /// whose other end a new handler thread serves.
    pub fn connect_in_proc(&self) -> DuplexStream {
        let (client, end) = duplex_pair();
        self.0.serve(Box::new(end), Stop::Peer);
        client
    }

    /// Serves every connection `listener` accepts until shutdown (or
    /// an accept error).
    pub fn listen(&self, listener: TcpListener) {
        let Ok(addr) = listener.local_addr() else {
            return;
        };
        let front = Arc::clone(&self.0);
        let accept = move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                if front.closing.load(Ordering::Acquire) {
                    return;
                }
                let stop = stream.try_clone().map_or(Stop::Peer, Stop::HangUp);
                front.serve(Box::new(stream), stop);
            }
        };
        self.0.spawn(accept, Stop::Wake(addr));
    }

    /// Stops the accept loops, hangs up every TCP connection, and joins
    /// every thread. In-process callers must drop their client streams
    /// first: such a handler returns only when its peer hangs up.
    pub fn shutdown(self) {
        self.0.closing.store(true, Ordering::Release);
        // An accept loop can add a handler until it is joined, so drain
        // until nothing is left.
        loop {
            let threads =
                std::mem::take(&mut *self.0.threads.lock().expect("locked only to push or take"));
            if threads.is_empty() {
                return;
            }
            for (thread, stop) in threads {
                match stop {
                    Stop::Peer => {}
                    Stop::HangUp(tcp) => drop(tcp.shutdown(Shutdown::Both)),
                    // An accept loop no connection can reach is left running.
                    Stop::Wake(addr) if TcpStream::connect(addr).is_err() => continue,
                    Stop::Wake(_) => {}
                }
                let _ = thread.join();
            }
        }
    }
}

/// One end of an in-process bidirectional byte stream.
pub struct DuplexStream {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
    at: usize,
}

/// Creates a connected pair: bytes written to one end are read from
/// the other. Dropping an end reads as EOF on its peer (a hung-up
/// socket).
pub fn duplex_pair() -> (DuplexStream, DuplexStream) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let mk = |tx, rx| DuplexStream {
        tx,
        rx,
        pending: Vec::new(),
        at: 0,
    };
    (mk(a_tx, a_rx), mk(b_tx, b_rx))
}

impl Read for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.at == self.pending.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.at = 0;
                }
                // Peer dropped: clean EOF, like a closed socket.
                Err(_) => return Ok(0),
            }
        }
        let n = buf.len().min(self.pending.len() - self.at);
        buf[..n].copy_from_slice(&self.pending[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

impl Write for DuplexStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx.send(buf.to_vec()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer disconnected")
        })?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_and_eof_on_drop() {
        let (mut a, mut b) = duplex_pair();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        drop(a);
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert!(b.write_all(b"x").is_err());
    }

    #[test]
    fn short_reads_reassemble() {
        let (mut a, mut b) = duplex_pair();
        a.write_all(b"abc").unwrap();
        a.write_all(b"defg").unwrap();
        let mut out = Vec::new();
        let mut one = [0u8; 2];
        for _ in 0..4 {
            let n = b.read(&mut one).unwrap();
            out.extend_from_slice(&one[..n]);
        }
        assert_eq!(out, b"abcdefg");
    }
}
