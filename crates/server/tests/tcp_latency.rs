//! Over TCP, a request/response round trip must cost loopback time, not
//! a delayed-ACK timer: a frame written as header then payload makes
//! the payload wait for the header's ACK (Nagle's algorithm), tens of
//! milliseconds per frame on Linux.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use tq_server::{CacheMode, Client, Server, ServerConfig};
use tq_workload::{build, BuildConfig, DbShape, Organization};

#[test]
fn hello_close_round_trips_take_loopback_time() {
    let db = build(&BuildConfig::scaled(
        DbShape::Db2,
        Organization::ClassClustered,
        1000,
    ));
    let server = Server::start(db, ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.listen(listener);

    let mut client = Client::new(TcpStream::connect(addr).unwrap());
    let mut times: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let session = client.open_session(CacheMode::Cold).unwrap();
            client.close_session(session).unwrap();
            started.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    drop(client);
    server.shutdown();
    assert!(
        median < Duration::from_millis(10),
        "median Hello/Close round trip {median:?} (all: {times:?})"
    );
}
