//! Merging per-shard replies into the single response a client sees.
//!
//! The `Stat`-level arithmetic is `tq_statsdb::merge_stats`; this
//! module lifts it to the response vocabulary and fixes the outcome
//! precedence a gather obeys:
//!
//! 1. **unavailability** — any unreachable shard fails the whole
//!    request (`ShardUnavailable`); a partial answer is never returned;
//! 2. **error** — any shard-side `Error` propagates, prefixed with the
//!    shard index;
//! 3. **overload** — any shard-level shed makes the request shed; the
//!    shard's `SHARD_SELF` marker is rewritten to its index so clients
//!    can distinguish shard-level from router-level sheds;
//! 4. **deadline** — any fired deadline reports the largest elapsed
//!    simulated time;
//! 5. **success** — results sum, stats merge.

use tq_server::proto::{PartialStat, Response, ShardAbort, SHARD_SELF};
use tq_statsdb::merge_stats;

/// One gather: per shard (in shard order), either a decoded reply or
/// the transport-level reason the shard could not answer.
pub(crate) type Gathered = Vec<Result<Response, String>>;

/// The precedence-ordered failure outcomes shared by every request
/// shape: unavailability, then error, then overload. `None` means all
/// shards produced an admissible reply.
fn failures(parts: &Gathered) -> Option<Response> {
    for (i, p) in parts.iter().enumerate() {
        if let Err(detail) = p {
            return Some(Response::ShardUnavailable {
                shard: i as u32,
                detail: detail.clone(),
            });
        }
    }
    for (i, p) in parts.iter().enumerate() {
        if let Ok(Response::Error { msg }) = p {
            return Some(Response::Error {
                msg: format!("shard {i}: {msg}"),
            });
        }
    }
    for (i, p) in parts.iter().enumerate() {
        if let Ok(Response::Overloaded { queue_depth, shard }) = p {
            // A shard reports its own admission edge as SHARD_SELF;
            // seen from the router that edge has a name.
            let shard = if *shard == SHARD_SELF {
                i as u32
            } else {
                *shard
            };
            return Some(Response::Overloaded {
                queue_depth: *queue_depth,
                shard,
            });
        }
    }
    None
}

/// A shard answered with a response shape the request cannot produce.
fn out_of_protocol(shard: usize, got: &Response) -> Response {
    // The variant's name is the head of its derived `Debug` rendering.
    let rendered = format!("{got:?}");
    let tag = rendered.split([' ', '{']).next().unwrap_or_default();
    Response::Error {
        msg: format!("shard {shard} answered out of protocol: {tag}"),
    }
}

/// Any fired deadline wins over success; the client sees the largest
/// simulated time any shard had consumed when its deadline fired.
fn deadline(parts: &Gathered) -> Option<Response> {
    let mut worst = None;
    for p in parts {
        if let Ok(Response::DeadlineExceeded { elapsed_nanos }) = p {
            let cur = worst.unwrap_or(0);
            worst = Some(cur.max(*elapsed_nanos));
        }
    }
    worst.map(|elapsed_nanos| Response::DeadlineExceeded { elapsed_nanos })
}

/// The skeleton every merge goes through: the shared failures, then —
/// for engine work — a fired deadline, then the replies folded into
/// `acc` in shard order. `Err` is the response that ends the gather
/// early: a failure, a deadline, or the first reply `fold` has no place
/// for (`None`), reported as out of protocol.
fn gather<A>(
    parts: &Gathered,
    engine_work: bool,
    mut acc: A,
    fold: impl Fn(A, u32, &Response) -> Option<A>,
) -> Result<A, Response> {
    if let Some(fail) = failures(parts) {
        return Err(fail);
    }
    if engine_work {
        if let Some(late) = deadline(parts) {
            return Err(late);
        }
    }
    // `failures` has answered for every shard that sent no reply.
    for (i, reply) in parts.iter().enumerate() {
        if let Ok(reply) = reply {
            acc = fold(acc, i as u32, reply).ok_or_else(|| out_of_protocol(i, reply))?;
        }
    }
    Ok(acc)
}

/// Merges a gathered `Hello` into the per-shard session ids, in shard
/// order.
pub(crate) fn merge_hello(parts: &Gathered) -> Result<Vec<u64>, Response> {
    gather(parts, false, Vec::new(), |mut sessions, _, reply| {
        let Response::SessionOpened { session } = reply else {
            return None;
        };
        sessions.push(*session);
        Some(sessions)
    })
}

/// Merges a gathered query (or chain) into one `QueryOk` — or, for a
/// scattered request, a `ScatterOk` that keeps the per-shard partials
/// as the audit trail.
pub(crate) fn merge_query(parts: &Gathered, scatter: bool) -> Response {
    let gathered = gather(parts, true, Vec::new(), |mut oks, shard, reply| {
        let Response::QueryOk { results, stat } = reply else {
            return None;
        };
        oks.push(PartialStat {
            shard,
            results: *results,
            stat: (**stat).clone(),
        });
        Some(oks)
    });
    let oks = match gathered {
        Ok(oks) => oks,
        Err(early) => return early,
    };
    let results = oks.iter().map(|p| p.results).sum();
    let stat = merge_stats(oks.iter().map(|p| &p.stat)).expect("gather is never empty");
    if scatter {
        Response::ScatterOk {
            results,
            stat: Box::new(stat),
            partials: oks,
        }
    } else {
        Response::QueryOk {
            results,
            stat: Box::new(stat),
        }
    }
}

/// Merges a gathered update: rewritten rows sum, stats merge.
pub(crate) fn merge_update(parts: &Gathered) -> Response {
    let gathered = gather(
        parts,
        true,
        (0, Vec::new()),
        |(sum, mut stats), _, reply| {
            let Response::UpdateOk { updated, stat } = reply else {
                return None;
            };
            stats.push((**stat).clone());
            Some((sum + updated, stats))
        },
    );
    match gathered {
        Ok((updated, stats)) => Response::UpdateOk {
            updated,
            stat: Box::new(merge_stats(stats.iter()).expect("gather is never empty")),
        },
        Err(early) => early,
    }
}

/// Merges a gathered commit. All shards committed → one `Committed`
/// with the highest published epoch and the summed page count. Any
/// first-committer-wins loss → `ShardsAborted` naming the shards that
/// did publish and, per losing shard, the conflict that beat it.
pub(crate) fn merge_commit(parts: &Gathered) -> Response {
    let init = (Vec::new(), Vec::new(), 0u64, 0u64);
    let gathered = gather(
        parts,
        false,
        init,
        |(mut committed, mut aborts, epoch, pages), shard, reply| match reply {
            Response::Committed { epoch: e, pages: n } => {
                committed.push(shard);
                Some((committed, aborts, epoch.max(*e), pages + n))
            }
            Response::Aborted {
                conflict_file,
                conflict_epoch,
            } => {
                aborts.push(ShardAbort {
                    shard,
                    conflict_file: conflict_file.clone(),
                    conflict_epoch: *conflict_epoch,
                });
                Some((committed, aborts, epoch, pages))
            }
            _ => None,
        },
    );
    match gathered {
        Ok((_, aborts, epoch, pages)) if aborts.is_empty() => Response::Committed { epoch, pages },
        Ok((committed, aborts, ..)) => Response::ShardsAborted { committed, aborts },
        Err(early) => early,
    }
}

/// Merges a gathered rollback: discarded pages sum.
pub(crate) fn merge_abort(parts: &Gathered) -> Response {
    let gathered = gather(parts, false, 0, |sum, _, reply| match reply {
        Response::RolledBack { discarded_pages } => Some(sum + discarded_pages),
        _ => None,
    });
    match gathered {
        Ok(discarded_pages) => Response::RolledBack { discarded_pages },
        Err(early) => early,
    }
}

/// Merges a gathered close: the teardown counters sum.
pub(crate) fn merge_close(parts: &Gathered) -> Response {
    let gathered = gather(parts, false, [0u64; 3], |[d, l, u], _, reply| match reply {
        Response::SessionClosed {
            drained_handles,
            leaked_handles,
            uncommitted_pages,
        } => Some([
            d + drained_handles,
            l + leaked_handles,
            u + uncommitted_pages,
        ]),
        _ => None,
    });
    match gathered {
        Ok([drained_handles, leaked_handles, uncommitted_pages]) => Response::SessionClosed {
            drained_handles,
            leaked_handles,
            uncommitted_pages,
        },
        Err(early) => early,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_statsdb::{QueryDesc, Stat, SystemDesc};

    fn tiny_stat(faults: u64) -> Stat {
        Stat {
            numtest: 1,
            query: QueryDesc {
                cold: true,
                projection_type: "select".into(),
                selectivities: vec![],
                text: "q".into(),
            },
            database: vec![],
            cluster: "class".into(),
            algo: "chj".into(),
            system: SystemDesc {
                server_cache_kb: 1,
                client_cache_kb: 1,
                same_workstation: true,
            },
            cc_pagefaults: faults,
            cc_lookups: faults * 2,
            elapsed_time: 1.0,
            rpcs_number: 0,
            rpcs_total_mb: 0.0,
            d2sc_read_pages: 0,
            sc2cc_read_pages: 0,
            cc_miss_rate: 50.0,
            sc_miss_rate: 0.0,
            operators: vec![],
        }
    }

    fn ok(results: u64) -> Result<Response, String> {
        Ok(Response::QueryOk {
            results,
            stat: Box::new(tiny_stat(10)),
        })
    }

    #[test]
    fn precedence_unavailable_beats_error_beats_overload_beats_deadline() {
        let unavailable = Err("gone".to_string());
        let error = Ok(Response::Error { msg: "bad".into() });
        let overloaded = Ok(Response::Overloaded {
            queue_depth: 3,
            shard: SHARD_SELF,
        });
        let deadline = Ok(Response::DeadlineExceeded { elapsed_nanos: 9 });

        let parts = vec![
            ok(1),
            deadline.clone(),
            overloaded.clone(),
            error.clone(),
            unavailable,
        ];
        assert!(matches!(
            merge_query(&parts, false),
            Response::ShardUnavailable { shard: 4, .. }
        ));
        let parts = vec![ok(1), deadline.clone(), overloaded.clone(), error];
        assert!(matches!(merge_query(&parts, false), Response::Error { .. }));
        // A shard's SHARD_SELF marker is rewritten to its index.
        let parts = vec![ok(1), deadline.clone(), overloaded];
        assert_eq!(
            merge_query(&parts, false),
            Response::Overloaded {
                queue_depth: 3,
                shard: 2
            }
        );
        let parts = vec![ok(1), deadline];
        assert_eq!(
            merge_query(&parts, false),
            Response::DeadlineExceeded { elapsed_nanos: 9 }
        );
    }

    #[test]
    fn query_merge_sums_results_and_merges_stats() {
        let parts = vec![ok(2), ok(3)];
        match merge_query(&parts, false) {
            Response::QueryOk { results, stat } => {
                assert_eq!(results, 5);
                assert_eq!(stat.cc_pagefaults, 20);
                assert_eq!(stat.cc_lookups, 40);
                assert_eq!(stat.cc_miss_rate, 50.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match merge_query(&parts, true) {
            Response::ScatterOk {
                results, partials, ..
            } => {
                assert_eq!(results, 5);
                assert_eq!(partials.len(), 2);
                assert_eq!(partials[0].shard, 0);
                assert_eq!(partials[1].shard, 1);
                assert_eq!(partials[1].results, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn commit_merge_distinguishes_clean_and_aborted_gathers() {
        let committed = |epoch, pages| Ok(Response::Committed { epoch, pages });
        let aborted = Ok(Response::Aborted {
            conflict_file: "Patients.dat".into(),
            conflict_epoch: 7,
        });
        assert_eq!(
            merge_commit(&vec![committed(2, 5), committed(4, 1)]),
            Response::Committed { epoch: 4, pages: 6 }
        );
        match merge_commit(&vec![committed(2, 5), aborted]) {
            Response::ShardsAborted { committed, aborts } => {
                assert_eq!(committed, vec![0]);
                assert_eq!(aborts.len(), 1);
                assert_eq!(aborts[0].shard, 1);
                assert_eq!(aborts[0].conflict_file, "Patients.dat");
                assert_eq!(aborts[0].conflict_epoch, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_protocol_replies_become_typed_errors() {
        let parts = vec![Ok(Response::SessionOpened { session: 3 })];
        assert!(matches!(merge_query(&parts, false), Response::Error { .. }));
        assert!(matches!(merge_commit(&parts), Response::Error { .. }));
    }
}
