//! Unit tests for the tree clock, including the paper's worked examples:
//! the traces of Figure 2 (producing the trees of Figure 3) and the full
//! Appendix B run (Figures 11 and 12), with exact work counts.

use crate::clock::{CopyMode, LogicalClock, OpStats};
use crate::{ThreadId, TreeClock, VectorTime};

fn t(i: u32) -> ThreadId {
    ThreadId::new(i)
}

/// A `sync(ℓ)` step as in Figure 2: one local event that acquires and
/// releases `lock` (the paper counts it as a single local time unit).
fn sync(thread: &mut TreeClock, lock: &mut TreeClock) {
    thread.increment(1);
    thread.join(lock);
    lock.monotone_copy(thread);
}

fn rooted(i: u32, time: u32) -> TreeClock {
    let mut c = TreeClock::new();
    c.init_root(t(i));
    c.increment(time);
    c
}

// ---------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------

#[test]
fn new_clock_is_empty() {
    let c = TreeClock::new();
    assert!(c.is_empty());
    assert_eq!(c.root_tid(), None);
    assert_eq!(c.get(t(5)), 0);
    assert_eq!(c.node_count(), 0);
}

#[test]
fn init_root_and_increment() {
    let c = rooted(2, 7);
    assert_eq!(c.root_tid(), Some(t(2)));
    assert_eq!(c.get(t(2)), 7);
    assert_eq!(c.node_count(), 1);
    assert!(!c.is_empty());
}

#[test]
#[should_panic(expected = "already initialized")]
fn double_init_panics() {
    let mut c = rooted(0, 1);
    c.init_root(t(1));
}

#[test]
#[should_panic(expected = "no root thread")]
fn increment_without_root_panics() {
    let mut c = TreeClock::new();
    c.increment(1);
}

#[test]
fn join_with_empty_clock_is_noop() {
    let mut c = rooted(0, 3);
    let stats = c.join_counted(&TreeClock::new());
    assert_eq!(stats, OpStats::NOOP);
    assert_eq!(c.get(t(0)), 3);
}

#[test]
fn join_into_empty_clock_copies() {
    let mut empty = TreeClock::new();
    let src = rooted(1, 4);
    empty.join(&src);
    assert_eq!(empty.get(t(1)), 4);
    assert_eq!(empty.root_tid(), Some(t(1)));
    assert_eq!(empty.check_invariants(), Ok(()));
}

#[test]
fn join_already_known_is_cheap_noop() {
    let mut a = rooted(0, 1);
    let b = rooted(1, 5);
    a.join(&b);
    // Joining the same information again touches only the root.
    let stats = a.join_counted(&b);
    assert_eq!(stats, OpStats::new(1, 0, 0));
}

#[test]
#[should_panic(expected = "progressed on self's root thread")]
fn join_rejects_foreign_progress_on_own_thread() {
    let mut src = rooted(1, 1);
    src.join(&rooted(0, 5));
    let mut a = rooted(0, 1);
    a.join(&src);
}

#[test]
fn monotone_copy_into_empty_is_deep_copy() {
    let mut lock = TreeClock::new();
    let mut c = rooted(0, 2);
    c.join(&rooted(1, 1));
    let stats = lock.monotone_copy_counted(&c);
    assert_eq!(lock.vector_time(), c.vector_time());
    assert_eq!(lock.root_tid(), Some(t(0)));
    assert_eq!(stats.changed, 2);
    assert_eq!(lock.check_invariants(), Ok(()));
}

#[test]
fn monotone_copy_of_empty_into_empty_is_noop() {
    let mut a = TreeClock::new();
    let stats = a.monotone_copy_counted(&TreeClock::new());
    assert_eq!(stats, OpStats::NOOP);
    assert!(a.is_empty());
}

#[test]
#[should_panic(expected = "self ⋢ other")]
fn monotone_copy_rejects_non_monotone_target() {
    let mut lw = rooted(1, 9);
    let c = rooted(0, 2);
    lw.monotone_copy(&c);
}

#[test]
fn copy_check_monotone_takes_fast_path_when_ordered() {
    let mut lw = TreeClock::new();
    let mut c = rooted(0, 1);
    lw.monotone_copy(&c); // lw = [1]
    c.increment(2);
    let mode = lw.copy_check_monotone(&c);
    assert_eq!(mode, CopyMode::Monotone);
    assert_eq!(lw.get(t(0)), 3);
}

#[test]
fn copy_check_monotone_falls_back_to_deep_copy() {
    // lw knows t1@9, which c does not: the copy is not monotone
    // (in SHB this is exactly a write-read race).
    let mut lw = rooted(1, 9);
    let c = rooted(0, 2);
    let mode = lw.copy_check_monotone(&c);
    assert_eq!(mode, CopyMode::Deep);
    assert_eq!(lw.get(t(1)), 0); // entries may decrease: copy, not join
    assert_eq!(lw.get(t(0)), 2);
    assert_eq!(lw.root_tid(), Some(t(0)));
    assert_eq!(lw.check_invariants(), Ok(()));
}

#[test]
fn clock_grows_for_large_thread_ids() {
    let mut a = rooted(0, 1);
    a.join(&rooted(100, 42));
    assert_eq!(a.get(t(100)), 42);
    assert!(a.num_threads() >= 101);
    assert_eq!(a.check_invariants(), Ok(()));
}

#[test]
fn equality_is_vector_time_equality() {
    // Same times, different shapes (learned in different orders).
    let mut a = rooted(0, 1);
    a.join(&rooted(1, 1));
    a.join(&rooted(2, 1));

    let mut via = rooted(1, 1);
    via.join(&rooted(2, 1));
    let mut b = rooted(0, 1);
    b.join(&via);

    assert_ne!(a.children(t(0)), b.children(t(0))); // shapes differ
    assert_eq!(a, b); // values agree
}

#[test]
fn leq_uses_root_entry() {
    let mut a = rooted(0, 1);
    let b = rooted(1, 1);
    a.join(&b);
    assert!(b.leq(&a));
    assert!(!a.leq(&b));
    assert!(TreeClock::new().leq(&b));
}

#[test]
fn vector_time_reflects_all_nodes() {
    let mut a = rooted(0, 2);
    a.join(&rooted(3, 5));
    assert_eq!(a.vector_time(), VectorTime::from(vec![2, 0, 0, 5]));
}

// ---------------------------------------------------------------------
// Figure 2a → Figure 3 (left): direct monotonicity
// ---------------------------------------------------------------------

#[test]
fn figure_2a_direct_monotonicity() {
    let mut c1 = TreeClock::new();
    let mut c2 = TreeClock::new();
    let mut c3 = TreeClock::new();
    let mut c4 = TreeClock::new();
    c1.init_root(t(1));
    c2.init_root(t(2));
    c3.init_root(t(3));
    c4.init_root(t(4));
    let (mut l1, mut l2, mut l3) = (TreeClock::new(), TreeClock::new(), TreeClock::new());

    sync(&mut c1, &mut l1); // e1: t1 sync(l1)
    sync(&mut c2, &mut l1); // e2: t2 sync(l1)
    sync(&mut c3, &mut l1); // e3: t3 sync(l1)
    sync(&mut c2, &mut l2); // e4: t2 sync(l2)
    sync(&mut c4, &mut l2); // e5: t4 sync(l2)
    sync(&mut c3, &mut l3); // e6: t3 sync(l3)

    // e7: t4 sync(l3). Before the join, t4 knows t2@2 while l3 records
    // t2@1, so the join must not descend below t2 (and never examine t1).
    c4.increment(1);
    let stats = c4.join_counted(&l3);
    // examined: the root progress check (t3) + one child comparison (t2).
    assert_eq!(stats.examined, 2);
    assert_eq!(stats.changed, 1); // only t3's entry progressed
    assert_eq!(stats.moved, 1);
    l3.monotone_copy(&c4);

    // Figure 3 (left): the tree clock of t4 after e7.
    assert_eq!(
        c4.to_string(),
        "(t4, 2, ⊥)[(t3, 2, 2), (t2, 2, 1)[(t1, 1, 1)]]"
    );
    assert_eq!(c4.check_invariants(), Ok(()));
}

// ---------------------------------------------------------------------
// Figure 2b → Figure 3 (right): indirect monotonicity
// ---------------------------------------------------------------------

#[test]
fn figure_2b_indirect_monotonicity() {
    let mut c1 = TreeClock::new();
    let mut c2 = TreeClock::new();
    let mut c3 = TreeClock::new();
    let mut c4 = TreeClock::new();
    c1.init_root(t(1));
    c2.init_root(t(2));
    c3.init_root(t(3));
    c4.init_root(t(4));
    let (mut l1, mut l2, mut l3) = (TreeClock::new(), TreeClock::new(), TreeClock::new());

    sync(&mut c1, &mut l1); // e1: t1 sync(l1)
    sync(&mut c2, &mut l2); // e2: t2 sync(l2)
    sync(&mut c3, &mut l1); // e3: t3 sync(l1), learns t1 at t3-time 1
    sync(&mut c3, &mut l2); // e4: t3 sync(l2), learns t2 at t3-time 2
    sync(&mut c4, &mut l2); // e5: t4 sync(l2), learns e1-e4 through t3
    assert_eq!(
        c4.to_string(),
        "(t4, 1, ⊥)[(t3, 2, 1)[(t2, 1, 2), (t1, 1, 1)]]"
    );
    sync(&mut c3, &mut l3); // e6: t3 sync(l3)

    // e7: t4 sync(l3): t3 progressed (2 -> 3), but its children were
    // attached at t3-times <= 2, all of which t4 already knows about:
    // the child scan stops at t2 and never reaches t1.
    c4.increment(1);
    let stats = c4.join_counted(&l3);
    assert_eq!(stats.examined, 2); // root check + t2, then the break
    assert_eq!(stats.changed, 1);
    assert_eq!(stats.moved, 1);

    // Figure 3 (right): the tree clock of t4 after e7.
    assert_eq!(
        c4.to_string(),
        "(t4, 2, ⊥)[(t3, 3, 2)[(t2, 1, 2), (t1, 1, 1)]]"
    );
    assert_eq!(c4.check_invariants(), Ok(()));
}

// ---------------------------------------------------------------------
// Appendix B: the full 16-event run of Figures 11 and 12
// ---------------------------------------------------------------------

/// Drives Algorithm 3 by hand on the Appendix B trace and checks the
/// intermediate clock trees shown in Figures 11b and 12, including the
/// exact sets of examined/updated nodes of Figure 12.
#[test]
fn appendix_b_example_run() {
    let mut c: Vec<TreeClock> = (0..6).map(|_| TreeClock::new()).collect();
    for i in 1..=5u32 {
        c[i as usize].init_root(t(i));
    }
    let mut l1 = TreeClock::new();
    let mut l2 = TreeClock::new();
    let mut l3 = TreeClock::new();

    let acq = |c: &mut TreeClock, l: &mut TreeClock| {
        c.increment(1);
        c.join_counted(l)
    };
    let rel = |c: &mut TreeClock, l: &mut TreeClock| {
        c.increment(1);
        l.monotone_copy_counted(c)
    };

    acq(&mut c[1], &mut l1); // e1
    rel(&mut c[1], &mut l1); // e2
    assert_eq!(l1.to_string(), "(t1, 2, ⊥)");
    acq(&mut c[4], &mut l2); // e3
    rel(&mut c[4], &mut l2); // e4
    assert_eq!(l2.to_string(), "(t4, 2, ⊥)");
    acq(&mut c[5], &mut l3); // e5
    rel(&mut c[5], &mut l3); // e6
    assert_eq!(l3.to_string(), "(t5, 2, ⊥)");

    acq(&mut c[3], &mut l1); // e7
    assert_eq!(c[3].to_string(), "(t3, 1, ⊥)[(t1, 2, 1)]");
    acq(&mut c[3], &mut l3); // e8
    assert_eq!(c[3].to_string(), "(t3, 2, ⊥)[(t5, 2, 2), (t1, 2, 1)]");
    rel(&mut c[3], &mut l3); // e9
    assert_eq!(l3.to_string(), "(t3, 3, ⊥)[(t5, 2, 2), (t1, 2, 1)]");
    rel(&mut c[3], &mut l1); // e10
    assert_eq!(l1.to_string(), "(t3, 4, ⊥)[(t5, 2, 2), (t1, 2, 1)]");
    acq(&mut c[3], &mut l2); // e11
    assert_eq!(
        c[3].to_string(),
        "(t3, 5, ⊥)[(t4, 2, 5), (t5, 2, 2), (t1, 2, 1)]"
    );
    rel(&mut c[3], &mut l2); // e12
    assert_eq!(
        l2.to_string(),
        "(t3, 6, ⊥)[(t4, 2, 5), (t5, 2, 2), (t1, 2, 1)]"
    );

    acq(&mut c[2], &mut l1); // e13
    assert_eq!(
        c[2].to_string(),
        "(t2, 1, ⊥)[(t3, 4, 1)[(t5, 2, 2), (t1, 2, 1)]]"
    );
    rel(&mut c[2], &mut l1); // e14
    assert_eq!(
        l1.to_string(),
        "(t2, 2, ⊥)[(t3, 4, 1)[(t5, 2, 2), (t1, 2, 1)]]"
    );

    // e15 (Figure 12a): t2 joins l2. The traversal compares the root t3
    // and children t4 (progressed) and t5 (known, attached at t3-time 2
    // <= t2's knowledge 4 of t3 -> break). t1 is never examined. The
    // updated nodes are exactly {t3, t4}.
    let stats = acq(&mut c[2], &mut l2);
    assert_eq!(stats.examined, 3);
    assert_eq!(stats.moved, 2);
    assert_eq!(stats.changed, 2);
    assert_eq!(
        c[2].to_string(),
        "(t2, 3, ⊥)[(t3, 6, 3)[(t4, 2, 5), (t5, 2, 2), (t1, 2, 1)]]"
    );

    // e16 (Figure 12b): l2 monotone-copies t2's clock. Only t2 (the new
    // root) and t3 (l2's old root, repositioned) are touched; t3's
    // subtree moves wholesale.
    let stats = rel(&mut c[2], &mut l2);
    assert_eq!(stats.examined, 2);
    assert_eq!(stats.moved, 2);
    assert_eq!(stats.changed, 1); // only t2's entry changes value
    assert_eq!(
        l2.to_string(),
        "(t2, 4, ⊥)[(t3, 6, 3)[(t4, 2, 5), (t5, 2, 2), (t1, 2, 1)]]"
    );
    assert_eq!(l2.check_invariants(), Ok(()));

    // Final sanity: every clock agrees with its vector-time meaning.
    assert_eq!(c[2].vector_time(), VectorTime::from(vec![0, 2, 4, 6, 2, 2]));
}

// ---------------------------------------------------------------------
// Re-rooting copies
// ---------------------------------------------------------------------

#[test]
fn monotone_copy_rewires_old_root_under_new_root() {
    // lock = (t1, 1); t2 joins it then releases: the lock clock must
    // re-root at t2 and keep t1 as a child.
    let mut lock = TreeClock::new();
    lock.monotone_copy(&rooted(1, 1));
    let mut c2 = rooted(2, 1);
    c2.join(&lock);
    c2.increment(1);
    let stats = lock.monotone_copy_counted(&c2);
    assert_eq!(lock.root_tid(), Some(t(2)));
    assert_eq!(lock.to_string(), "(t2, 2, ⊥)[(t1, 1, 1)]");
    assert_eq!(stats.moved, 2); // t2 (new root) + t1 (old root, rewired)
    assert_eq!(lock.check_invariants(), Ok(()));
}

#[test]
fn monotone_copy_with_same_root_thread_updates_in_place() {
    let mut lock = TreeClock::new();
    let mut c1 = rooted(1, 1);
    lock.monotone_copy(&c1); // lock rooted at t1
    c1.increment(3);
    let stats = lock.monotone_copy_counted(&c1); // same root thread, time 1 -> 4
    assert_eq!(lock.root_tid(), Some(t(1)));
    assert_eq!(lock.get(t(1)), 4);
    assert_eq!(stats.changed, 1);
    assert_eq!(lock.check_invariants(), Ok(()));
}

/// Regression: the gather traversal prunes siblings once a child's
/// attachment clock shows the destination already knew the rest of the
/// list — but the destination's old root may sit *past* that cut when
/// it has not progressed. Star-shaped sources (every child under the
/// root at one attachment clock, the shape a flat clock turning back
/// into a tree and `restore_value` produce) hit this on the very first non-progressed
/// child. The copy must still re-root correctly and keep every entry.
#[test]
fn monotone_copy_star_source_repositions_unreached_old_root() {
    // Source: a star rooted at t9 — t0..t8 attached at t9-time 1.
    let mut src_desc = vec![(t(9), 4u32, None)];
    let src_times = [5u32, 7, 7, 7, 7, 7, 7, 7, 6];
    for (i, &clk) in src_times.iter().enumerate() {
        src_desc.push((t(i as u32), clk, Some((t(9), 1))));
    }
    let src = TreeClock::from_structure(&src_desc).unwrap();

    // Destination: a lock clock rooted at t8 that knows t9 at 1, equals
    // the source on t1..t6 and t8 and lags only on t0. The traversal
    // descends into t0, then breaks at t1 (aclk 1 ≤ known 1) — before
    // reaching the old root t8.
    let mut dst_desc = vec![(t(8), 6u32, None), (t(9), 1, Some((t(8), 6)))];
    let dst_times = [3u32, 7, 7, 7, 7, 7, 7];
    for (i, &clk) in dst_times.iter().enumerate() {
        dst_desc.push((t(i as u32), clk, Some((t(8), 6 - i as u32))));
    }
    let mut lock = TreeClock::from_structure(&dst_desc).unwrap();

    lock.monotone_copy(&src);
    assert_eq!(lock.root_tid(), Some(t(9)));
    assert_eq!(lock.vector_time(), src.vector_time());
    assert_eq!(lock.check_invariants(), Ok(()));
}

/// Regression: a child attached at `aclk = 0` was learned before its
/// parent's first event (a forked thread joins its parent at time 0).
/// A receiver that knows the parent at time 0 knows nothing of it, so
/// the indirect-monotonicity cut must not skip the rest of that child
/// list: here the cut at t1 used to hide t0's progress from both the
/// join and the monotone copy, timed and counted.
#[test]
fn an_unknown_parent_does_not_prune_its_time_zero_children() {
    // t10 was forked by t0 at t0-time 5, when t0 knew t1 at 3.
    let src = TreeClock::from_structure(&[
        (t(10), 1, None),
        (t(1), 3, Some((t(10), 0))),
        (t(0), 5, Some((t(10), 0))),
    ])
    .unwrap();
    // A clock that never heard of t10 and knows t0 only at 4.
    let dst = TreeClock::from_structure(&[(t(1), 3, None), (t(0), 4, Some((t(1), 0)))]).unwrap();
    for counted in [false, true] {
        let mut joined = dst.clone();
        let mut copied = dst.clone();
        if counted {
            assert_eq!(joined.join_counted(&src).changed, 2);
            assert_eq!(copied.monotone_copy_counted(&src).changed, 2);
        } else {
            joined.join(&src);
            copied.monotone_copy(&src);
        }
        assert_eq!(
            joined.vector_time(),
            src.vector_time(),
            "counted: {counted}"
        );
        assert_eq!(
            copied.vector_time(),
            src.vector_time(),
            "counted: {counted}"
        );
        assert_eq!(joined.check_invariants(), Ok(()));
        assert_eq!(copied.check_invariants(), Ok(()));
    }
}

#[test]
fn repeated_lock_handoff_keeps_invariants() {
    // A ring of threads passing one lock around twice.
    let k = 8u32;
    let mut threads: Vec<TreeClock> = (0..k).map(|i| rooted(i, 0)).collect();
    let mut lock = TreeClock::new();
    for round in 0..2 {
        for (i, thread) in threads.iter_mut().enumerate() {
            thread.increment(1);
            thread.join(&lock);
            thread.increment(1);
            lock.monotone_copy(thread);
            assert_eq!(lock.check_invariants(), Ok(()), "round {round}, thread {i}");
        }
    }
    // After the first full round, everyone is (transitively) known.
    let last = &threads[(k - 1) as usize];
    for i in 0..k {
        assert!(last.get(t(i)) > 0, "t{i} unknown to the last thread");
    }
}

// ---------------------------------------------------------------------
// Adaptive copy fallback
// ---------------------------------------------------------------------

/// When most of the tree progressed, `monotone_copy` switches to a flat
/// structural clone; semantics (vector time, invariants) must be
/// indistinguishable from the surgical path.
#[test]
fn adaptive_copy_fallback_is_semantically_transparent() {
    // Target knows a little; source knows a lot more about everyone.
    let mut lock = TreeClock::new();
    lock.monotone_copy(&rooted(0, 1));
    let mut c = rooted(0, 1);
    for i in 1..12u32 {
        c.increment(1);
        c.join(&rooted(i, 7));
    }
    c.increment(1);
    let stats = lock.monotone_copy_counted(&c);
    // Nearly every entry changed -> the fallback path ran; the result
    // must still be exactly `c`'s vector time with valid structure.
    assert!(stats.changed >= 11);
    assert_eq!(lock.vector_time(), c.vector_time());
    assert_eq!(lock.root_tid(), Some(t(0)));
    assert_eq!(lock.check_invariants(), Ok(()));
    // And the work accounting still respects the Theorem 1 budget.
    assert!(stats.examined <= 3 * (stats.changed + 1));
}

/// Small update sets must keep using the surgical path (the clone
/// would examine the whole arena).
#[test]
fn small_copies_stay_surgical() {
    let mut lock = TreeClock::new();
    let mut c = rooted(0, 1);
    for i in 1..32u32 {
        c.increment(1);
        c.join(&rooted(i, 1));
    }
    lock.monotone_copy(&c); // lock now mirrors c
    c.increment(1); // one new local event
    let stats = lock.monotone_copy_counted(&c);
    assert!(
        stats.examined < 8,
        "a one-entry copy must not examine the whole tree (examined {})",
        stats.examined
    );
    assert_eq!(lock.get(t(0)), c.get(t(0)));
    assert_eq!(lock.check_invariants(), Ok(()));
}

// ---------------------------------------------------------------------
// Copy-on-write shapes
// ---------------------------------------------------------------------

use super::shape::SHARED_WIDTH;
use crate::ClockPool;

/// Thread widths on either side of the sharing width.
const NARROW: u32 = SHARED_WIDTH as u32 / 4;
const WIDE: u32 = SHARED_WIDTH as u32 + 16;

/// A clock rooted at t0 that knows every thread below `width` at
/// `time`.
fn clock_at(width: u32, time: u32) -> TreeClock {
    let mut c = rooted(0, time);
    for i in 1..width {
        c.join(&rooted(i, time));
    }
    c
}

/// A timed release publishes the thread's value into the lock; later
/// changes on either side must not show through on the other, whether
/// the copy shared the shape (wide) or copied it (narrow).
fn check_copy_isolation(width: u32) {
    let wide = width as usize > SHARED_WIDTH;
    let mut thread = clock_at(width, 1);
    let mut lock = TreeClock::new();
    lock.monotone_copy(&thread);
    assert_eq!(lock.shares_shape_with(&thread), wide, "width {width}");
    let published = lock.vector_time();
    assert_eq!(published, thread.vector_time());

    // The thread moves on: an increment, then a join that changes it.
    thread.increment(3);
    assert_eq!(lock.vector_time(), published, "width {width}: increment");
    assert_eq!(lock.check_invariants(), Ok(()));
    thread.join(&rooted(1, 50));
    assert_eq!(thread.get(t(0)), 4);
    assert_eq!(thread.get(t(1)), 50);
    assert!(!lock.shares_shape_with(&thread));
    assert_eq!(lock.vector_time(), published, "width {width}: join");
    assert_eq!(lock.check_invariants(), Ok(()));
    assert_eq!(thread.check_invariants(), Ok(()));

    // A join into the lock leaves the thread alone.
    lock.monotone_copy(&thread);
    let before = thread.vector_time();
    lock.join(&rooted(2, 70));
    assert_eq!(lock.get(t(2)), 70);
    assert_eq!(
        thread.vector_time(),
        before,
        "width {width}: join into the lock"
    );
    assert_eq!(thread.check_invariants(), Ok(()));
    assert_eq!(lock.check_invariants(), Ok(()));

    // The counted copy runs Algorithm 2 on a shape of its own.
    let mut counted = TreeClock::new();
    counted.monotone_copy_counted(&thread);
    assert!(!counted.shares_shape_with(&thread));
    assert_eq!(counted.vector_time(), thread.vector_time());
}

#[test]
fn wide_release_shares_the_shape_and_stays_isolated() {
    check_copy_isolation(WIDE);
}

#[test]
fn narrow_release_copies_the_shape_and_stays_isolated() {
    check_copy_isolation(NARROW);
}

/// After a shared copy the thread's shape still holds the root time of
/// the moment it was shared; every read of the root entry must see the
/// clock's own root time instead.
#[test]
fn a_lagging_root_entry_is_never_read() {
    let mut src = clock_at(WIDE, 4);
    let mut lock = TreeClock::new();
    lock.monotone_copy(&src);
    src.increment(5);
    assert!(src.shares_shape_with(&lock));
    assert_eq!(src.check_invariants(), Ok(()));

    let mut expected = vec![4; WIDE as usize];
    expected[0] = 9;
    let expected = VectorTime::from(expected);
    assert_eq!(src.vector_time(), expected);
    assert_eq!(src.node(t(0)).unwrap().clk, 9);
    assert!(src.to_string().starts_with("(t0, 9, ⊥)"));
    assert_ne!(src, lock);
    assert_eq!(lock.get(t(0)), 4);

    // Joins attach the source's root at its root time, timed or counted.
    let mut reader = rooted(WIDE, 1);
    reader.join(&src);
    assert_eq!(reader.get(t(0)), 9);
    let mut counted = rooted(WIDE, 1);
    counted.join_counted(&src);
    assert_eq!(counted.get(t(0)), 9);
    assert_eq!(reader, counted);

    // The counted deep copy reads it too.
    let mut deep = rooted(WIDE + 1, 2);
    let (mode, _) = deep.copy_check_monotone_counted(&src);
    assert_eq!(mode, CopyMode::Deep);
    assert_eq!(deep.vector_time(), expected);
    assert_eq!(deep.check_invariants(), Ok(()));

    // So does the flat sweep: after three dense joins the next timed
    // join turns the clock flat.
    let mut dense = rooted(WIDE, 1);
    for time in 1..=3 {
        dense.join(&clock_at(WIDE, time));
    }
    dense.increment(1);
    dense.join(&src);
    assert!(dense.is_flat());
    assert_eq!(dense.get(t(0)), 9);
    assert_eq!(dense.check_invariants(), Ok(()));
}

/// A wide thread's root entry lags as soon as it increments. When a
/// peer hands the thread's own published time back, the join must see
/// the thread's root time, not the lagging entry, or it would take its
/// own root for news and re-hang it under the peer.
#[test]
fn a_joined_back_root_is_not_news() {
    for counted in [false, true] {
        let mut thread = clock_at(WIDE, 1);
        thread.increment(1);
        let mut lock = TreeClock::new();
        lock.monotone_copy(&thread);
        let mut peer = rooted(WIDE, 1);
        peer.join(&lock);
        peer.increment(1);
        if counted {
            thread.join_counted(&peer);
        } else {
            thread.join(&peer);
        }
        assert_eq!(thread.check_invariants(), Ok(()), "counted: {counted}");
        assert_eq!(thread.root_tid(), Some(t(0)));
        assert_eq!(thread.get(t(0)), 2);
        assert_eq!(thread.get(t(WIDE)), 2);
    }
}

/// `heap_bytes` divides a shared shape by its strong count, so the
/// clocks sharing one shape sum to about one shape's bytes.
#[test]
fn clocks_sharing_a_shape_sum_to_one_shape() {
    const SHARERS: usize = 8;
    let source = clock_at(WIDE * 2, 1);
    let alone = source.heap_bytes();
    let locks: Vec<TreeClock> = (0..SHARERS)
        .map(|_| {
            let mut lock = TreeClock::new();
            lock.monotone_copy(&source);
            lock
        })
        .collect();
    assert!(locks.iter().all(|l| l.shares_shape_with(&source)));
    let total = source.heap_bytes() + locks.iter().map(TreeClock::heap_bytes).sum::<usize>();
    assert!(
        total <= alone && total + SHARERS + 1 > alone,
        "{SHARERS} sharers plus the source sum to {total} bytes, alone {alone}"
    );
}

/// A clock released while its shape is shared parks without it: the
/// pool's byte count of a parked clock must not change when the other
/// sharers go away. A shape the clock owns alone parks with it.
#[test]
fn a_pooled_clock_parks_without_a_shared_shape() {
    let mut pool = ClockPool::<TreeClock>::new();
    let source = clock_at(WIDE, 1);
    let mut lock = pool.acquire();
    lock.monotone_copy(&source);
    assert!(lock.shares_shape_with(&source));
    pool.release(lock);
    let parked = pool.heap_bytes();
    assert_eq!(parked, 0, "the lock owned nothing but its share");
    drop(source);
    assert_eq!(pool.heap_bytes(), parked);

    let owner = clock_at(WIDE, 1);
    let owned = owner.heap_bytes();
    pool.release(owner);
    assert_eq!(pool.heap_bytes(), parked + owned);
    let mut reused = pool.acquire();
    assert!(reused.is_empty());
    assert_eq!(
        reused.heap_bytes(),
        owned,
        "the recycled clock keeps its buffers"
    );
    reused.init_root(t(3));
    reused.increment(2);
    assert_eq!(reused.vector_time(), VectorTime::from(vec![0, 0, 0, 2]));
    assert_eq!(reused.check_invariants(), Ok(()));
}

// ---------------------------------------------------------------------
// Flat shapes
// ---------------------------------------------------------------------

use super::{DENSE_STREAK_LIMIT, SPARSE_SWEEP_LIMIT};

/// A wide thread clock turned flat: it released into `lock` (sharing
/// its shape) and then joined a peer, so the join would have copied the
/// shape the lock still holds. The thread ends at t0 = 3, t1..t79 = 1
/// and t80 = 5; the lock keeps t0 = 2, t1..t79 = 1.
fn flat_thread_and_its_lock() -> (TreeClock, TreeClock) {
    let mut thread = clock_at(WIDE, 1);
    thread.increment(1);
    let mut lock = TreeClock::new();
    lock.monotone_copy(&thread);
    assert!(lock.shares_shape_with(&thread));
    thread.increment(1);
    thread.join(&rooted(WIDE, 5));
    (thread, lock)
}

#[test]
fn a_wide_join_into_a_shared_shape_turns_flat() {
    let (thread, lock) = flat_thread_and_its_lock();
    assert!(thread.is_flat());
    assert!(!thread.shares_shape_with(&lock));
    assert_eq!(thread.node_count(), 0, "a flat clock keeps no nodes");
    assert_eq!(thread.get(t(0)), 3);
    assert_eq!(thread.get(t(1)), 1);
    assert_eq!(thread.get(t(WIDE)), 5);
    assert_eq!(thread.check_invariants(), Ok(()));

    // The lock still holds the old tree and its value.
    let mut published = vec![1; WIDE as usize];
    published[0] = 2;
    assert!(!lock.is_flat());
    assert_eq!(lock.vector_time(), VectorTime::from(published));
    assert_eq!(lock.check_invariants(), Ok(()));

    // A copy takes the source's shape: the next release shares it flat.
    let mut next = TreeClock::new();
    next.monotone_copy(&thread);
    assert!(next.is_flat() && next.shares_shape_with(&thread));
    assert_eq!(next, thread);
    assert!(next.to_string().starts_with("(t0, 3, ⊥)[(t1, 1, 3), "));
}

#[test]
fn sparse_sweeps_bring_back_a_tree() {
    let (mut thread, _lock) = flat_thread_and_its_lock();
    // The join that turned the clock flat changed one entry of 81: the
    // first sparse sweep. Each join below is another.
    for i in 1..u32::from(SPARSE_SWEEP_LIMIT) {
        assert!(thread.is_flat(), "a tree again after {i} sweeps");
        thread.increment(1);
        thread.join(&rooted(i, 10));
    }
    assert!(!thread.is_flat());
    assert_eq!(thread.check_invariants(), Ok(()));
    // The star: every known thread directly under the root.
    assert_eq!(thread.children(t(0)).len(), WIDE as usize);
    assert_eq!(thread.node(t(1)).unwrap().aclk, thread.get(t(0)));
    for i in 1..u32::from(SPARSE_SWEEP_LIMIT) {
        assert_eq!(thread.get(t(i)), 10);
    }
    assert_eq!(thread.get(t(SPARSE_SWEEP_LIMIT.into())), 1);
    assert_eq!(thread.get(t(WIDE)), 5);
}

#[test]
fn clear_returns_a_flat_clock_to_a_tree() {
    let (mut thread, lock) = flat_thread_and_its_lock();
    thread.clear();
    assert!(thread.is_empty() && !thread.is_flat());
    assert_eq!(thread.check_invariants(), Ok(()));
    assert_eq!(lock.get(t(0)), 2, "clearing leaves the lock alone");
    thread.init_root(t(2));
    thread.increment(4);
    thread.join(&rooted(1, 6));
    assert!(!thread.is_flat());
    assert_eq!(thread.to_string(), "(t2, 4, ⊥)[(t1, 6, 4)]");
    assert_eq!(thread.check_invariants(), Ok(()));
}

/// A tree joining a flat source hangs the entries that progressed under
/// its own root, at its root's current time; the rest of the tree stays.
#[test]
fn a_tree_hangs_what_a_flat_source_progressed_under_its_root() {
    let (flat, lock) = flat_thread_and_its_lock();
    let root = t(WIDE + 1);
    // (Built twice rather than cloned: a clone would share the shape.)
    let receiver = || {
        let mut tree = rooted(WIDE + 1, 2);
        tree.join_counted(&lock);
        tree.increment(1);
        assert_eq!(tree.node(t(1)).unwrap().parent, Some(t(0)));
        tree
    };
    let (mut tree, mut counted) = (receiver(), receiver());
    tree.join(&flat);
    let stats = counted.join_counted(&flat);
    assert_eq!(stats, OpStats::new(1 + flat.num_threads() as u64, 2, 2));
    for clock in [&tree, &counted] {
        assert!(!clock.is_flat());
        assert_eq!(clock.check_invariants(), Ok(()));
        // t0 and t80 progressed: both now hang under the root at its
        // time 3, and t0 keeps the subtree it brought from the lock.
        for i in [0, WIDE] {
            let node = clock.node(t(i)).unwrap();
            assert_eq!((node.parent, node.aclk), (Some(root), 3), "t{i}");
            assert_eq!(clock.get(t(i)), flat.get(t(i)));
        }
        assert_eq!(clock.node(t(1)).unwrap().parent, Some(t(0)));
        assert_eq!(clock.get(root), 3);
    }
}

/// A timed join whose walk would move more than an eighth of a wide
/// arena stops and sweeps instead; the counted join walks in full.
#[test]
fn a_dense_wide_walk_turns_the_receiver_flat() {
    for counted in [false, true] {
        let mut thread = rooted(WIDE, 1);
        let dense = clock_at(WIDE, 2);
        if counted {
            thread.join_counted(&dense);
        } else {
            thread.join(&dense);
        }
        assert_eq!(thread.is_flat(), !counted, "counted: {counted}");
        assert_eq!(thread.get(t(WIDE - 1)), 2);
        assert_eq!(thread.get(t(WIDE)), 1);
        assert_eq!(thread.check_invariants(), Ok(()));
    }
}

/// A narrow tree turns flat on its next timed join after
/// `DENSE_STREAK_LIMIT` dense ones (each moving four entries of a
/// 17-entry arena, within the walk limit).
#[test]
fn consecutive_dense_joins_turn_a_narrow_tree_flat() {
    let mut thread = rooted(0, 1);
    for time in 1..=u32::from(DENSE_STREAK_LIMIT) + 1 {
        assert!(!thread.is_flat(), "flat after {} dense joins", time - 1);
        let mut source = rooted(NARROW, time);
        for i in 1..4 {
            source.join(&rooted(i, time));
        }
        thread.increment(1);
        thread.join(&source);
    }
    assert!(thread.is_flat());
    assert_eq!(thread.get(t(NARROW)), u32::from(DENSE_STREAK_LIMIT) + 1);
    assert_eq!(thread.check_invariants(), Ok(()));
}

/// A timed copy between narrow trees that would move more than its
/// walk limit (an eighth of the sharing width) replicates the source; a
/// sparse one stays surgical. Sibling order tells the two apart: a
/// replica takes the source's order, and a walk leaves every entry it
/// does not move where the destination had it.
#[test]
fn a_dense_narrow_copy_replicates_the_source() {
    // The widest inline arena, learned in opposite orders.
    let learned = |threads: &mut dyn Iterator<Item = u32>| {
        let mut clock = rooted(0, 1);
        for i in threads {
            clock.join_counted(&rooted(i, 3));
        }
        clock
    };
    let width = SHARED_WIDTH as u32;
    let mut thread = learned(&mut (1..width));
    let mut lock = learned(&mut (1..width).rev());
    assert_eq!(lock, thread);
    assert_ne!(lock.to_string(), thread.to_string());

    // Only the root progressed: the walk moves it alone.
    thread.increment(1);
    lock.monotone_copy(&thread);
    assert_eq!(lock, thread);
    assert_ne!(lock.to_string(), thread.to_string(), "a sparse copy walks");
    assert_eq!(lock.check_invariants(), Ok(()));

    // Twelve entries and the root progressed: past the walk limit of 8,
    // short of the half-arena fallback.
    thread.increment(1);
    for i in 1..=12 {
        thread.join_counted(&rooted(i, 5));
    }
    lock.monotone_copy(&thread);
    assert_eq!(
        lock.to_string(),
        thread.to_string(),
        "a dense copy replicates"
    );
    assert_eq!(lock.check_invariants(), Ok(()));
}

/// Counted operations meeting a flat clock take the flat path and count
/// it exactly: a sweep examines the source's entries, and a copy from a
/// flat source replicates it.
#[test]
fn counted_operations_count_the_flat_path() {
    let (mut thread, lock) = flat_thread_and_its_lock();
    thread.increment(1);
    let stats = thread.join_counted(&lock);
    assert_eq!(stats, OpStats::new(1, 0, 0), "the root screen");
    let stats = thread.join_counted(&rooted(3, 7));
    assert!(thread.is_flat());
    assert_eq!(stats, OpStats::new(1 + 4, 1, 1));

    let mut copy = rooted(WIDE + 5, 1);
    let (mode, stats) = copy.copy_check_monotone_counted(&thread);
    assert_eq!(mode, CopyMode::Deep);
    assert!(copy.is_flat() && !copy.shares_shape_with(&thread));
    assert_eq!(copy, thread);
    assert_eq!(stats.changed as usize, WIDE as usize + 2);
    assert_eq!(copy.check_invariants(), Ok(()));
}

// ---------------------------------------------------------------------
// One-pass joins into shared shapes
// ---------------------------------------------------------------------

/// Which clock's root entry lags in its shared shape when it joins.
#[derive(Clone, Copy, Debug)]
enum Lag {
    Receiver,
    Source,
}

/// A flat clock rooted at `width - 1` that knows threads 1 to
/// `width - 1` at `time` and thread 0 not at all.
fn flat_source(width: u32, time: u32) -> TreeClock {
    let mut dense = rooted(1, time);
    for i in 2..width {
        dense.join(&rooted(i, time));
    }
    let mut source = rooted(width - 1, time);
    source.join(&dense);
    assert!(source.is_flat() && source.copies_by_sharing());
    source
}

/// The clock's value on a vector clock.
fn as_vector(clock: &TreeClock) -> crate::VectorClock {
    let mut vector = crate::VectorClock::new();
    vector.restore_value(clock.vector_time().as_slice(), clock.root_tid());
    vector
}

/// Whether the shape's entry for `clock`'s root lags its root time.
fn root_entry_lags(clock: &TreeClock) -> bool {
    let root = clock.root_tid().unwrap().raw();
    clock.shape().time(root) < clock.get_idx(root)
}

/// A timed join into a shape a lock shares writes `self ⊔ src` into a
/// fresh flat shape in one pass: the lock keeps its value, the result is
/// the vector clock's join, and `changed` is what the counted join (a
/// copy of the shape, then a sweep or Algorithm 2) counts. The source is
/// first wider than the receiver, then narrower; in each case first the
/// receiver's root entry lags in its shared shape, then the source's.
fn check_one_pass_join(receiver: fn() -> TreeClock) {
    for (width, time) in [(WIDE + 20, 2), (WIDE - 8, 7)] {
        for lag in [Lag::Receiver, Lag::Source] {
            let label = format!("source width {width}, {lag:?} lags");
            let mut thread = receiver();
            let mut source = flat_source(width, time);
            let mut lock = TreeClock::new();
            lock.monotone_copy(&thread);
            let mut source_lock = TreeClock::new();
            source_lock.monotone_copy(&source);
            match lag {
                Lag::Receiver => thread.increment(1),
                Lag::Source => source.increment(1),
            }
            assert!(lock.shares_shape_with(&thread), "{label}");
            assert!(source_lock.shares_shape_with(&source), "{label}");
            match lag {
                Lag::Receiver => assert!(root_entry_lags(&thread), "{label}"),
                Lag::Source => assert!(root_entry_lags(&source), "{label}"),
            }
            let published = lock.vector_time();
            let mut want = as_vector(&thread);
            let want_changed = want.join_counted(&as_vector(&source)).changed;
            // The twin shares the same shape, so its counted join copies
            // it before changing it.
            let mut twin = thread.clone();
            let counted = twin.join_counted(&source);

            let stats = thread.join_impl::<false>(&source);
            assert_eq!(stats.changed, want_changed, "{label}");
            assert_eq!(stats.changed, counted.changed, "{label}");
            assert_eq!(thread.vector_time(), want.vector_time(), "{label}");
            assert_eq!(twin, thread, "{label}");
            assert!(thread.is_flat(), "{label}");
            assert!(!thread.shares_shape_with(&lock), "{label}");
            assert_eq!(thread.check_invariants(), Ok(()), "{label}");
            assert_eq!(lock.vector_time(), published, "{label}: the lock");
            assert_eq!(lock.check_invariants(), Ok(()), "{label}");
            assert_eq!(source_lock.check_invariants(), Ok(()), "{label}");
        }
    }
}

#[test]
fn a_flat_join_into_a_shared_shape_writes_the_join_in_one_pass() {
    check_one_pass_join(|| {
        let (thread, _lock) = flat_thread_and_its_lock();
        assert!(thread.is_flat());
        thread
    });
}

#[test]
fn a_shared_tree_turns_flat_by_writing_the_join_in_one_pass() {
    check_one_pass_join(|| {
        let thread = clock_at(WIDE, 3);
        assert!(!thread.is_flat());
        thread
    });
}

// ---------------------------------------------------------------------
// Dense reads of a lagging root entry
// ---------------------------------------------------------------------

use super::node::NIL;
use super::{count_diffs, Times};

/// A plain dense value, every entry authoritative.
fn plain(slice: &[u32]) -> Times<'_> {
    Times {
        slice,
        root: NIL,
        root_time: 0,
    }
}

#[test]
fn count_diffs_handles_unequal_lengths() {
    let diffs = |a: &[u32], b: &[u32]| count_diffs(plain(a), plain(b));
    assert_eq!(diffs(&[1, 2, 0], &[1, 3]), 1);
    assert_eq!(diffs(&[1, 2, 4], &[1, 2]), 1);
    assert_eq!(diffs(&[], &[0, 0, 5]), 1);
    assert_eq!(diffs(&[7], &[7]), 0);
}

/// A flat clock's sweep over a tree whose root entry lags in its shared
/// shape reads the root time, timed and counted, and so does the diff
/// count of a wholesale copy.
#[test]
fn flat_reads_of_a_tree_use_its_root_time() {
    // 150 threads at time 4, shared with a lock; the root (t0) has
    // since moved on to 9.
    let mut src = clock_at(150, 4);
    let mut lock = TreeClock::new();
    lock.monotone_copy(&src);
    src.increment(5);
    assert!(!src.is_flat() && root_entry_lags(&src));
    assert_eq!(src.get(t(0)), 9);

    // (Built twice rather than cloned: a clone would share the shape,
    // and the timed join would write a fresh one instead of sweeping.)
    let mut flat = flat_source(160, 2);
    let mut counted = flat_source(160, 2);
    let before = flat.vector_time();
    flat.join(&src);
    assert!(flat.is_flat() && flat.copies_by_sharing());
    assert_eq!(flat.get(t(0)), 9);
    let stats = counted.join_counted(&src);
    assert_eq!(counted, flat);
    let progressed = (0..150).filter(|&i| src.get(t(i)) > before.get(t(i)));
    assert_eq!(stats.changed as usize, progressed.count());
    assert_eq!(flat.check_invariants(), Ok(()));

    // Diffs against the tree judge its root on the root time.
    let stale = vec![4; 150];
    assert_eq!(count_diffs(plain(&stale), src.times()), 1);
    assert_eq!(count_diffs(src.times(), plain(&stale)), 1);
}
