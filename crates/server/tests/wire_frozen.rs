//! The wire format, frozen: one fixed instance of every `Request` and
//! `Response` variant must encode to exactly the bytes in
//! `wire_frozen.hex`, rendered once from the commit before the codec
//! was refactored. The round-trip properties in `proto_roundtrip.rs`
//! would let encoder and decoder drift together; this cannot.
//!
//! `wire_decode.fp` pins the other direction: which `DecodeError` (or
//! which decoded value) every payload of a fixed mutation corpus built
//! from those bytes gets, one FNV-1a digest per variant.

use std::path::PathBuf;

use tq_query::{JoinAlgo, PlannerPolicy};
use tq_server::proto::{
    CacheMode, ChainQuerySpec, PartialStat, QuerySpec, Request, Response, ShardAbort, UpdateTarget,
    SHARD_SELF,
};
use tq_statsdb::{ExtentDesc, OperatorStat, QueryDesc, Stat, SystemDesc};

fn operator(op: &str, label: &str, depth: u32, seed: u64) -> OperatorStat {
    OperatorStat {
        op: op.into(),
        label: label.into(),
        depth,
        d2sc_read_pages: seed,
        sc2cc_read_pages: seed + 1,
        client_misses: seed + 2,
        handle_gets: seed * 3,
        handle_frees: seed * 3 - 1,
        cpu_events: seed * 7,
        io_nanos: seed * 1_000_003,
        rpc_nanos: seed * 100_019,
        cpu_nanos: seed * 10_007,
        swap_nanos: seed % 5,
    }
}

fn stat(faults: u64) -> Stat {
    Stat {
        numtest: 17,
        query: QueryDesc {
            cold: true,
            projection_type: "[p.name, pa.age]".into(),
            selectivities: vec![("Patient".into(), 10), ("Provider".into(), 90)],
            text: "select [p.name, pa.age] from p in Providers, pa in p.clients \
                   where pa.mrn < 300 and p.upin < 9000 -- é√"
                .into(),
        },
        database: vec![
            ExtentDesc {
                classname: "Provider".into(),
                size: 1_000,
                associations: vec![("Patient".into(), 3)],
            },
            ExtentDesc {
                classname: "Patient".into(),
                size: 3_000,
                associations: vec![],
            },
        ],
        cluster: "class".into(),
        algo: "CHJ".into(),
        system: SystemDesc {
            server_cache_kb: 16_384,
            client_cache_kb: 4_096,
            same_workstation: true,
        },
        cc_pagefaults: faults,
        cc_lookups: faults * 9 + 4,
        elapsed_time: 12.345_678_901_234_5,
        rpcs_number: 421,
        rpcs_total_mb: 1.724_416,
        d2sc_read_pages: 388,
        sc2cc_read_pages: 421,
        cc_miss_rate: 100.0 / 3.0,
        sc_miss_rate: -0.0,
        operators: vec![
            operator("IndexScan", "Providers.upin < 9000", 0, 41),
            operator("Teardown", "end_of_query", 1, 7),
        ],
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let query = QuerySpec {
        session: 0x0102_0304_0506_0708,
        algo: JoinAlgo::Chj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos: 5_000_000_000,
    };
    vec![
        (
            "Hello",
            Request::Hello {
                mode: CacheMode::Warm,
            },
        ),
        ("Query", Request::Query(query)),
        ("Close", Request::Close { session: 7 }),
        (
            "Update",
            Request::Update {
                session: 9,
                target: UpdateTarget::Providers,
                sel_pct: 25,
                delta: -3,
                deadline_nanos: 77,
            },
        ),
        ("Commit", Request::Commit { session: 11 }),
        ("Abort", Request::Abort { session: 13 }),
        (
            "Chain",
            Request::Chain(ChainQuerySpec {
                session: 15,
                depth: 4,
                pat_pct: 30,
                prov_pct: 60,
                policy: PlannerPolicy::Syntactic,
                deadline_nanos: 1,
            }),
        ),
        (
            "Scatter",
            Request::Scatter(QuerySpec {
                algo: JoinAlgo::Nojoin,
                ..query
            }),
        ),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        ("SessionOpened", Response::SessionOpened { session: 42 }),
        (
            "QueryOk",
            Response::QueryOk {
                results: 2_718,
                stat: Box::new(stat(31)),
            },
        ),
        (
            "Overloaded",
            Response::Overloaded {
                queue_depth: 16,
                shard: SHARD_SELF,
            },
        ),
        (
            "DeadlineExceeded",
            Response::DeadlineExceeded {
                elapsed_nanos: 1_234_567_890_123,
            },
        ),
        (
            "SessionClosed",
            Response::SessionClosed {
                drained_handles: 640,
                leaked_handles: 0,
                uncommitted_pages: 12,
            },
        ),
        (
            "Error",
            Response::Error {
                msg: "unknown session 999 — é".into(),
            },
        ),
        (
            "UpdateOk",
            Response::UpdateOk {
                updated: 300,
                stat: Box::new(stat(5)),
            },
        ),
        (
            "Committed",
            Response::Committed {
                epoch: 3,
                pages: 88,
            },
        ),
        (
            "Aborted",
            Response::Aborted {
                conflict_file: "Patients.dat".into(),
                conflict_epoch: 2,
            },
        ),
        (
            "RolledBack",
            Response::RolledBack {
                discarded_pages: 19,
            },
        ),
        (
            "ScatterOk",
            Response::ScatterOk {
                results: 30,
                stat: Box::new(stat(36)),
                partials: vec![
                    PartialStat {
                        shard: 0,
                        results: 10,
                        stat: stat(12),
                    },
                    PartialStat {
                        shard: 1,
                        results: 20,
                        stat: stat(24),
                    },
                ],
            },
        ),
        (
            "ShardUnavailable",
            Response::ShardUnavailable {
                shard: 1,
                detail: "connect failed: refused".into(),
            },
        ),
        (
            "ShardsAborted",
            Response::ShardsAborted {
                committed: vec![0, 2],
                aborts: vec![ShardAbort {
                    shard: 1,
                    conflict_file: "Providers.dat".into(),
                    conflict_epoch: 5,
                }],
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_variant_encodes_to_its_frozen_bytes() {
    let mut actual = String::new();
    for (name, req) in requests() {
        assert_eq!(Request::decode(&req.encode()).as_ref(), Ok(&req), "{name}");
        actual.push_str(&format!("Request::{name} {}\n", hex(&req.encode())));
    }
    for (name, resp) in responses() {
        assert_eq!(
            Response::decode(&resp.encode()).as_ref(),
            Ok(&resp),
            "{name}"
        );
        actual.push_str(&format!("Response::{name} {}\n", hex(&resp.encode())));
    }
    let frozen = include_str!("wire_frozen.hex");
    if actual == frozen {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wire_frozen.hex");
    std::fs::write(&out, &actual).expect("write the actual encodings");
    let first = actual
        .lines()
        .zip(frozen.lines().chain(std::iter::repeat("<missing>")))
        .find(|(a, f)| a != f)
        .map_or("the frozen file has extra lines", |(a, _)| {
            a.split(' ').next().unwrap_or(a)
        });
    panic!(
        "wire encoding drifted from tests/wire_frozen.hex at {first} \
         (actual encodings written to {})",
        out.display()
    );
}

/// Every mutation of one valid payload the decode pin covers: each
/// prefix (empty and whole included), the payload plus one appended
/// byte, each byte set to ten values, and each 4-byte window set to
/// nine little-endian `u32`s (counts and string lengths land there).
fn mutations(p: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..=p.len()).map(|k| p[..k].to_vec()).collect();
    out.push([p, &[0]].concat());
    for i in 0..p.len() {
        let b = p[i];
        for v in [0, 1, 2, 3, 0x7f, 0x80, 0xfe, 0xff, b ^ 1, b.wrapping_add(1)] {
            let mut m = p.to_vec();
            m[i] = v;
            out.push(m);
        }
    }
    for i in 0..p.len().saturating_sub(3) {
        for v in [0u32, 1, 2, 3, 7, 100, 1000, 0x7fff_ffff, u32::MAX] {
            let mut m = p.to_vec();
            m[i..i + 4].copy_from_slice(&v.to_le_bytes());
            out.push(m);
        }
    }
    out
}

/// FNV-1a (64-bit) over everything written to it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// One `wire_decode.fp` line: the variant, its corpus size, the
/// outcome tally, and the digest of every `Debug`-rendered result.
fn decode_line<T: std::fmt::Debug, E: std::fmt::Debug>(
    name: &str,
    payload: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> String {
    use std::fmt::Write;
    let corpus = mutations(payload);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let mut tally: Vec<(String, usize)> = Vec::new();
    for m in &corpus {
        let result = decode(m);
        writeln!(fnv, "{result:?}").unwrap();
        let kind = match &result {
            Ok(_) => "Ok".to_string(),
            Err(e) => format!("{e:?}").split('(').next().unwrap().to_string(),
        };
        match tally.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => tally.push((kind, 1)),
        }
    }
    tally.sort();
    let tally: Vec<String> = tally.iter().map(|(k, n)| format!("{k}={n}")).collect();
    format!(
        "{name} {} fnv1a={:016x} {}\n",
        corpus.len(),
        fnv.0,
        tally.join(" ")
    )
}

#[test]
fn mutated_payloads_decode_to_their_pinned_results() {
    let mut actual = String::new();
    for (name, req) in requests() {
        let line = decode_line(&format!("Request::{name}"), &req.encode(), Request::decode);
        actual.push_str(&line);
    }
    for (name, resp) in responses() {
        let line = decode_line(
            &format!("Response::{name}"),
            &resp.encode(),
            Response::decode,
        );
        actual.push_str(&line);
    }
    let pinned = include_str!("wire_decode.fp");
    if actual == pinned {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wire_decode.fp");
    std::fs::write(&out, &actual).expect("write the actual digests");
    let first = actual
        .lines()
        .zip(pinned.lines().chain(std::iter::repeat("<missing>")))
        .find(|(a, p)| a != p)
        .map_or("the pinned file has extra lines", |(a, _)| {
            a.split(' ').next().unwrap_or(a)
        });
    panic!(
        "decoding of mutated payloads drifted from tests/wire_decode.fp at {first} \
         (actual results written to {})",
        out.display()
    );
}
