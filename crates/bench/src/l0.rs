//! **Ladder L0**: what one timed clock operation of a lock handoff
//! costs, with no engine around it (ROADMAP 10(b)).
//!
//! Each row times one operation at one thread count `n`, for the tree
//! and the vector clock:
//!
//! - `join`: a thread joins a peer that has progressed on every entry
//!   but the thread's own. The thread has released into a lock since it
//!   last changed, so a wide tree clock's receiver shape is shared (the
//!   state of most progressing acquires on the Fig. 10d pairwise trace).
//! - `copy`: a release into a lock clock that holds an older value of
//!   the releasing thread (a monotone copy).
//! - `publish`: a first release into a lock: its slot in a fresh
//!   [`ClockTable`] materializes while the pool has no parked clock, as
//!   in an engine's first run.
//!
//! The thread and the peer learn every thread in one join, so a wide
//! tree clock is flat there, as on the pairwise trace. A run sets up
//! 256 destination clocks per round (untimed), times one operation on
//! each, and reports ns per operation. Every cell keeps
//! [`REPETITIONS`] runs after a warm-up and prints their median and
//! nearest-rank quartiles.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tc_core::{ClockPool, ClockTable, LocalTime, LogicalClock, ThreadId, TreeClock, VectorClock};

use crate::render::{fnum, TextTable};
use crate::runner::{nearest_rank, REPETITIONS};
use crate::suite::Scale;

/// Thread counts L0 times: inside one cache line's worth of entries,
/// at the width past which tree clocks share their shapes, and at the
/// Fig. 10 maximum.
pub const L0_THREADS: [u32; 3] = [8, 64, 360];

/// Destination clocks per round: each round times one operation on
/// each.
const BATCH: usize = 256;

/// One timed operation of a lock handoff.
#[derive(Clone, Copy)]
enum L0Op {
    /// A progressing join into a receiver whose last value a lock holds.
    Join,
    /// A monotone copy into a lock that holds an older value.
    Copy,
    /// A first publication into a lock that has not materialized.
    Publish,
}

impl L0Op {
    /// Every operation, in handoff order.
    const ALL: [L0Op; 3] = [L0Op::Join, L0Op::Copy, L0Op::Publish];

    /// The row label.
    fn name(self) -> &'static str {
        match self {
            L0Op::Join => "join",
            L0Op::Copy => "copy",
            L0Op::Publish => "publish",
        }
    }
}

/// Rounds per run at each scale.
fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 16,
        Scale::Default => 64,
        Scale::Full => 256,
    }
}

/// Thread `root`'s clock at local time `time`, knowing nothing else.
fn rooted<C: LogicalClock>(root: u32, time: u32) -> C {
    let mut c = C::new();
    c.init_root(ThreadId::new(root));
    c.increment(time);
    c
}

/// One exchange through the last clock of `clocks` as a hub: every
/// clock steps once, the hub joins each of the others, and each of them
/// joins the hub, so that every clock knows every thread of the
/// exchange at its new time.
fn exchange<C: LogicalClock>(clocks: &mut [C]) {
    let Some((hub, rest)) = clocks.split_last_mut() else {
        return;
    };
    hub.increment(1);
    for c in rest.iter_mut() {
        c.increment(1);
        hub.join(c);
    }
    for c in rest {
        c.join(hub);
    }
}

/// Threads 0 and 1 of a causal history over `n` threads: all of them
/// exchange their first step, then all but thread 0 their second. So
/// thread 1 has progressed past thread 0 on every entry but thread 0's
/// own, and each clock learned its peers in one join from the hub.
fn thread_and_peer<C: LogicalClock>(n: u32) -> (C, C) {
    let mut clocks: Vec<C> = (0..n).map(|i| rooted(i, 0)).collect();
    exchange(&mut clocks);
    exchange(&mut clocks[1..]);
    let mut clocks = clocks.into_iter();
    let thread = clocks.next().expect("n >= 2");
    let peer = clocks.next().expect("n >= 2");
    (thread, peer)
}

/// Times `ops` after dropping `spare`. Buffers freed beneath a round's
/// clocks just before its timed loop let the loop's allocations reuse
/// warm memory, as the shapes freed by earlier handoffs do in an engine
/// run, instead of faulting in fresh pages.
fn timed(spare: Vec<Vec<LocalTime>>, ops: impl FnOnce()) -> Duration {
    drop(spare);
    let start = Instant::now();
    ops();
    start.elapsed()
}

/// Sets up one round of `op` at `n` threads and times its [`BATCH`]
/// operations.
fn round<C: LogicalClock>(op: L0Op, n: u32) -> Duration {
    let spare: Vec<Vec<LocalTime>> = (0..2 * BATCH).map(|_| vec![1; n as usize]).collect();
    let (mut thread, peer) = thread_and_peer::<C>(n);
    match op {
        L0Op::Join => {
            let mut locks = Vec::with_capacity(BATCH);
            let mut receivers: Vec<C> = (0..BATCH)
                .map(|_| {
                    // The counted copy gives each receiver a shape of
                    // its own, which the release then shares.
                    let mut receiver = C::new();
                    receiver.monotone_copy_counted(&thread);
                    let mut lock = C::new();
                    lock.monotone_copy(&receiver);
                    locks.push(lock);
                    receiver.increment(1);
                    receiver
                })
                .collect();
            let elapsed = timed(spare, || {
                for receiver in &mut receivers {
                    receiver.join(&peer);
                }
            });
            black_box((&receivers, &locks));
            elapsed
        }
        L0Op::Copy => {
            let mut locks: Vec<C> = (0..BATCH)
                .map(|_| {
                    let mut lock = C::new();
                    lock.monotone_copy(&thread);
                    lock
                })
                .collect();
            thread.increment(1);
            thread.join(&peer);
            let elapsed = timed(spare, || {
                for lock in &mut locks {
                    lock.monotone_copy(&thread);
                }
            });
            black_box(&locks);
            elapsed
        }
        L0Op::Publish => {
            thread.increment(1);
            thread.join(&peer);
            let mut table = ClockTable::<C>::with_len(BATCH);
            let mut pool = ClockPool::<C>::new();
            let elapsed = timed(spare, || {
                for id in 0..BATCH {
                    if let Some(lock) = table.publication_target(id, &mut pool, &thread) {
                        lock.monotone_copy(&thread);
                    }
                }
            });
            black_box(&table);
            elapsed
        }
    }
}

/// ns per operation of `op` at `n` threads: [`REPETITIONS`] runs of
/// `rounds` rounds each after one warm-up run, fastest first.
fn ns_per_op<C: LogicalClock>(op: L0Op, n: u32, rounds: usize) -> [f64; REPETITIONS] {
    let run = || {
        let total: Duration = (0..rounds).map(|_| round::<C>(op, n)).sum();
        total.as_secs_f64() * 1e9 / (rounds * BATCH) as f64
    };
    run();
    let mut ns = [0.0; REPETITIONS];
    for s in &mut ns {
        *s = run();
    }
    ns.sort_by(f64::total_cmp);
    ns
}

/// A cell's median and quartiles, as three columns.
fn spread_cells(ns: &[f64; REPETITIONS]) -> [String; 3] {
    [0.5, 0.25, 0.75].map(|p| fnum(nearest_rank(ns, p)))
}

/// **Ladder L0**: ns per timed join, monotone copy and first
/// publication at each of [`L0_THREADS`], for the tree and the vector
/// clock, each the median of [`REPETITIONS`] runs with its quartiles.
pub fn l0(scale: Scale) -> TextTable {
    l0_rounds(rounds(scale))
}

fn l0_rounds(rounds: usize) -> TextTable {
    let mut t = TextTable::new([
        "op", "threads", "tc_ns", "tc_q1", "tc_q3", "vc_ns", "vc_q1", "vc_q3",
    ])
    .with_title("Ladder L0: ns per timed clock operation of a lock handoff (medians, quartiles)");
    for op in L0Op::ALL {
        for &n in &L0_THREADS {
            let mut row = vec![op.name().to_owned(), n.to_string()];
            row.extend(spread_cells(&ns_per_op::<TreeClock>(op, n, rounds)));
            row.extend(spread_cells(&ns_per_op::<VectorClock>(op, n, rounds)));
            t.row(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operation_and_width_gets_an_ordered_spread() {
        let t = l0_rounds(1);
        assert_eq!(t.len(), L0Op::ALL.len() * L0_THREADS.len());
        let csv = t.to_csv();
        let field = |line, col| crate::render::csv_field::<f64>(&csv, line, col).unwrap();
        for line in 2..=t.len() + 1 {
            for median in [2, 5] {
                let (m, q1, q3) = (
                    field(line, median),
                    field(line, median + 1),
                    field(line, median + 2),
                );
                assert!(q1 > 0.0 && q1 <= m && m <= q3, "line {line}: {q1} {m} {q3}");
            }
        }
    }

    /// The set-up matches the module documentation: the join raises
    /// every entry but the receiver's own, on both clocks alike.
    #[test]
    fn the_join_raises_every_entry_but_the_receivers_own() {
        fn joined<C: LogicalClock>(n: u32) -> (u64, tc_core::VectorTime) {
            let (mut thread, peer) = thread_and_peer::<C>(n);
            assert!((0..n).all(|i| thread.get(ThreadId::new(i)) == 1));
            thread.increment(1);
            (thread.join_counted(&peer).changed, thread.vector_time())
        }
        for n in L0_THREADS {
            let tree = joined::<TreeClock>(n);
            assert_eq!(tree, joined::<VectorClock>(n), "{n} threads");
            assert_eq!(tree.0, u64::from(n) - 1);
            assert!(tree.1.as_slice().iter().all(|&t| t == 2));
        }
    }
}
