//! Property-based differential tests: a [`TreeClock`] and a
//! [`VectorClock`] driven through the *same* random (but causally valid)
//! sequence of operations must represent identical vector times at every
//! step, report identical `changed` work (the data-structure-independent
//! `VTWork` contribution), agree on ordering queries, and the tree clock
//! must satisfy all structural invariants throughout.

use proptest::prelude::*;

use tc_core::{CopyMode, LogicalClock, ThreadId, TreeClock, VectorClock};

/// One causally valid step of a lock/variable-based execution. The steps
/// mirror how the HB/SHB engines drive clocks, which is the contract
/// under which tree clocks operate.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `acq(l)` by thread `t`: increment + join with the lock clock.
    Acquire { t: usize, l: usize },
    /// `rel(l)` by thread `t`: increment + monotone-copy into the lock.
    Release { t: usize, l: usize },
    /// `r(x)` by `t`: increment + join with the last-write clock.
    Read { t: usize, x: usize },
    /// `w(x)` by `t`: increment + copy-check-monotone into last-write.
    Write { t: usize, x: usize },
    /// Thread `t` joins thread `u`'s clock (a `join(u)` event).
    JoinThread { t: usize, u: usize },
}

const THREADS: usize = 6;
const LOCKS: usize = 3;
const VARS: usize = 3;

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..THREADS, 0..LOCKS).prop_map(|(t, l)| Step::Acquire { t, l }),
        (0..THREADS, 0..LOCKS).prop_map(|(t, l)| Step::Release { t, l }),
        (0..THREADS, 0..VARS).prop_map(|(t, x)| Step::Read { t, x }),
        (0..THREADS, 0..VARS).prop_map(|(t, x)| Step::Write { t, x }),
        (0..THREADS, 0..THREADS).prop_map(|(t, u)| Step::JoinThread { t, u }),
    ]
}

/// A pair of clock universes (one per representation) driven in
/// lockstep.
struct Universe {
    /// Whether the steps run the timed operations (which may share,
    /// flatten and unflatten tree clocks) instead of the counted ones.
    timed: bool,
    tc_threads: Vec<TreeClock>,
    vc_threads: Vec<VectorClock>,
    tc_locks: Vec<TreeClock>,
    vc_locks: Vec<VectorClock>,
    tc_lw: Vec<TreeClock>,
    vc_lw: Vec<VectorClock>,
    /// Tracks, per lock, whether a release must be preceded by an acquire
    /// by the same thread (to respect lock semantics we only release what
    /// the thread last acquired).
    held_by: Vec<Option<usize>>,
}

impl Universe {
    /// The small counted universe the property tests drive.
    fn new() -> Self {
        Universe::sized(THREADS, LOCKS, VARS, false)
    }

    fn sized(threads: usize, locks: usize, vars: usize, timed: bool) -> Self {
        let mut u = Universe {
            timed,
            tc_threads: (0..threads).map(|_| TreeClock::new()).collect(),
            vc_threads: (0..threads).map(|_| VectorClock::new()).collect(),
            tc_locks: (0..locks).map(|_| TreeClock::new()).collect(),
            vc_locks: (0..locks).map(|_| VectorClock::new()).collect(),
            tc_lw: (0..vars).map(|_| TreeClock::new()).collect(),
            vc_lw: (0..vars).map(|_| VectorClock::new()).collect(),
            held_by: vec![None; locks],
        };
        for t in 0..threads {
            u.tc_threads[t].init_root(ThreadId::new(t as u32));
            u.vc_threads[t].init_root(ThreadId::new(t as u32));
        }
        u
    }

    /// Applies a step to both universes; returns false if the step was
    /// skipped to keep the execution causally valid.
    fn apply(&mut self, step: Step) -> bool {
        let timed = self.timed;
        match step {
            Step::Acquire { t, l } => {
                if self.held_by[l].is_some() {
                    return false; // lock busy: skip to respect semantics
                }
                self.held_by[l] = Some(t);
                self.tc_threads[t].increment(1);
                self.vc_threads[t].increment(1);
                join_both(
                    timed,
                    (&mut self.tc_threads[t], &self.tc_locks[l]),
                    (&mut self.vc_threads[t], &self.vc_locks[l]),
                    "VTWork(acquire) must be representation independent",
                );
                true
            }
            Step::Release { t, l } => {
                if self.held_by[l] != Some(t) {
                    return false;
                }
                self.held_by[l] = None;
                self.tc_threads[t].increment(1);
                self.vc_threads[t].increment(1);
                if timed {
                    self.tc_locks[l].monotone_copy(&self.tc_threads[t]);
                    self.vc_locks[l].monotone_copy(&self.vc_threads[t]);
                } else {
                    let a = self.tc_locks[l].monotone_copy_counted(&self.tc_threads[t]);
                    let b = self.vc_locks[l].monotone_copy_counted(&self.vc_threads[t]);
                    assert_eq!(
                        a.changed, b.changed,
                        "VTWork(release) must be representation independent"
                    );
                }
                true
            }
            Step::Read { t, x } => {
                self.tc_threads[t].increment(1);
                self.vc_threads[t].increment(1);
                join_both(
                    timed,
                    (&mut self.tc_threads[t], &self.tc_lw[x]),
                    (&mut self.vc_threads[t], &self.vc_lw[x]),
                    "VTWork(read) must be representation independent",
                );
                true
            }
            Step::Write { t, x } => {
                self.tc_threads[t].increment(1);
                self.vc_threads[t].increment(1);
                // The O(1) monotonicity pre-check on the tree clock must
                // agree with the full pointwise comparison.
                let full = self.vc_lw[x].leq(&self.vc_threads[t]);
                let mode = if timed {
                    self.vc_lw[x].copy_check_monotone(&self.vc_threads[t]);
                    self.tc_lw[x].copy_check_monotone(&self.tc_threads[t])
                } else {
                    let (mode, a) = self.tc_lw[x].copy_check_monotone_counted(&self.tc_threads[t]);
                    let (_, b) = self.vc_lw[x].copy_check_monotone_counted(&self.vc_threads[t]);
                    assert_eq!(a.changed, b.changed);
                    mode
                };
                assert_eq!(
                    mode == CopyMode::Monotone,
                    full,
                    "tree clock O(1) leq disagrees with pointwise comparison"
                );
                true
            }
            Step::JoinThread { t, u } => {
                if t == u {
                    return false;
                }
                self.tc_threads[t].increment(1);
                self.vc_threads[t].increment(1);
                join_both(
                    timed,
                    index_two(&mut self.tc_threads, t, u),
                    index_two(&mut self.vc_threads, t, u),
                    "VTWork(join) must be representation independent",
                );
                true
            }
        }
    }

    /// Checks the clocks `step` touched: equal values on both sides and
    /// a sound tree clock.
    fn check_step(&self, step: Step) {
        let (t, other) = match step {
            Step::Acquire { t, l } | Step::Release { t, l } => {
                (t, (&self.tc_locks[l], &self.vc_locks[l]))
            }
            Step::Read { t, x } | Step::Write { t, x } => (t, (&self.tc_lw[x], &self.vc_lw[x])),
            Step::JoinThread { t, u } => (t, (&self.tc_threads[u], &self.vc_threads[u])),
        };
        for (tc, vc) in [(&self.tc_threads[t], &self.vc_threads[t]), other] {
            assert_eq!(tc.vector_time(), vc.vector_time(), "{step:?} diverged");
            tc.check_invariants().unwrap();
        }
    }

    fn check_agreement(&self) {
        for t in 0..self.tc_threads.len() {
            assert_eq!(
                self.tc_threads[t].vector_time(),
                self.vc_threads[t].vector_time(),
                "thread {t} clocks diverged"
            );
            self.tc_threads[t].check_invariants().unwrap();
        }
        for l in 0..self.tc_locks.len() {
            assert_eq!(
                self.tc_locks[l].vector_time(),
                self.vc_locks[l].vector_time(),
                "lock {l} clocks diverged"
            );
            self.tc_locks[l].check_invariants().unwrap();
        }
        for x in 0..self.tc_lw.len() {
            assert_eq!(
                self.tc_lw[x].vector_time(),
                self.vc_lw[x].vector_time(),
                "last-write {x} clocks diverged"
            );
            self.tc_lw[x].check_invariants().unwrap();
        }
        // The O(1) tree-clock ordering check must agree with the full
        // pointwise comparison on clocks from the same computation (on
        // a sample of the pairs of a wide universe).
        let threads = self.tc_threads.len();
        for a in 0..threads {
            for b in (0..threads).step_by(threads.div_ceil(8)) {
                assert_eq!(
                    self.tc_threads[a].leq(&self.tc_threads[b]),
                    self.vc_threads[a].leq(&self.vc_threads[b]),
                    "leq disagreement between threads {a} and {b}"
                );
            }
        }
    }
}

/// Joins `src` into `dst` in both universes: timed, or counted with
/// equal `changed` work.
fn join_both(
    timed: bool,
    (tc, tc_src): (&mut TreeClock, &TreeClock),
    (vc, vc_src): (&mut VectorClock, &VectorClock),
    message: &str,
) {
    if timed {
        tc.join(tc_src);
        vc.join(vc_src);
    } else {
        let a = tc.join_counted(tc_src);
        let b = vc.join_counted(vc_src);
        assert_eq!(a.changed, b.changed, "{message}");
    }
}

/// Mutable access to two distinct indices of a slice.
fn index_two<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &T) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = v.split_at_mut(j);
        (&mut a[i], &b[0])
    } else {
        let (a, b) = v.split_at_mut(i);
        (&mut b[0], &a[j])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flagship differential property: whatever valid op sequence is
    /// thrown at them, the two representations remain observationally
    /// identical and the tree stays structurally sound.
    #[test]
    fn tree_and_vector_clocks_agree(steps in prop::collection::vec(step_strategy(), 1..120)) {
        let mut u = Universe::new();
        for step in steps {
            u.apply(step);
        }
        u.check_agreement();
    }

    /// Checking agreement after *every* step (slower, fewer cases)
    /// pinpoints the first divergence if one exists.
    #[test]
    fn agreement_holds_stepwise(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let mut u = Universe::new();
        for step in steps {
            if u.apply(step) {
                u.check_agreement();
            }
        }
    }
}

#[test]
fn long_deterministic_smoke_run() {
    // A long fixed pseudo-random run (cheap LCG) as a deterministic
    // regression net in addition to the proptest exploration.
    let mut u = Universe::new();
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..5_000 {
        let r = rand();
        let t = (r % THREADS as u64) as usize;
        let aux = ((r >> 8) % 3) as usize;
        let step = match (r >> 16) % 5 {
            0 => Step::Acquire { t, l: aux },
            1 => Step::Release { t, l: aux },
            2 => Step::Read { t, x: aux },
            3 => Step::Write { t, x: aux },
            _ => Step::JoinThread {
                t,
                u: ((r >> 24) % THREADS as u64) as usize,
            },
        };
        u.apply(step);
        if i % 512 == 0 {
            u.check_agreement();
        }
    }
    u.check_agreement();
}

/// Threads past the copy-on-write sharing width (64 entries), so a timed
/// release shares the thread's shape with the lock.
const WIDE_THREADS: usize = 80;

/// The timed operations on clocks wider than the sharing width, checked
/// against vector clocks after every step. Dense phases (every thread
/// through two locks, plus reads, writes and thread joins) turn thread
/// clocks flat; pair phases (each thread syncing only with one partner,
/// so a join changes an entry or two) turn them back into trees. Every
/// release shares its thread's shape, tree or flat, so joins keep
/// meeting shared shapes too.
#[test]
fn wide_timed_runs_agree_through_tree_flat_and_shared_shapes() {
    for width in [WIDE_THREADS, 130] {
        let mut u = Universe::sized(width, width, 8, true);
        let mut state = 0x5DEECE66Du64 + width as u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (dense_steps, phase_steps) = (10 * width, 70 * width);
        let mut was_flat = vec![false; width];
        let (mut flattened, mut unflattened) = (0, 0);
        for i in 0..2 * phase_steps {
            let r = rand();
            let t = (r % width as u64) as usize;
            let pick = (r >> 16) as usize;
            let steps = if i % phase_steps >= dense_steps {
                let l = t & !1;
                [Step::Acquire { t, l }, Step::Release { t, l }]
            } else {
                match (r >> 8) % 8 {
                    0 => [
                        Step::Write { t, x: pick % 8 },
                        Step::Read {
                            t,
                            x: (pick >> 4) % 8,
                        },
                    ],
                    1 => [
                        Step::JoinThread { t, u: pick % width },
                        Step::Read {
                            t,
                            x: (pick >> 8) % 8,
                        },
                    ],
                    _ => {
                        let l = pick % 2;
                        [Step::Acquire { t, l }, Step::Release { t, l }]
                    }
                }
            };
            for step in steps {
                if u.apply(step) {
                    u.check_step(step);
                }
            }
            let flat = u.tc_threads[t].is_flat();
            flattened += usize::from(flat && !was_flat[t]);
            unflattened += usize::from(!flat && was_flat[t]);
            was_flat[t] = flat;
        }
        u.check_agreement();
        assert!(
            flattened > width && unflattened > width,
            "width {width}: {flattened} clocks turned flat, {unflattened} back into trees"
        );
    }
}

// ---------------------------------------------------------------------
// Lazy (empty) vs eagerly-zeroed clocks
// ---------------------------------------------------------------------

/// Drives a lazily created clock (`C::new()`) and an eagerly
/// dimension-sized one (`C::with_threads(k)`) through the same auxiliary
/// clock life cycle (joins and copies from rooted thread clocks) and
/// asserts they are observationally identical: same represented times,
/// same ordering answers, same `changed` (VTWork) accounting. This is
/// the contract that lets the engines start every per-variable clock
/// empty — an untouched variable costs O(1) — without perturbing any
/// cross-backend metric.
fn lazy_matches_eager<C: LogicalClock + PartialEq + std::fmt::Debug>() {
    const K: usize = 16;
    let mut lazy = C::new();
    let mut eager = C::with_threads(K);

    // Thread clocks with some cross-thread knowledge.
    let mut threads: Vec<C> = (0..K)
        .map(|i| {
            let mut c = C::new();
            c.init_root(ThreadId::new(i as u32));
            c.increment(1 + i as u32);
            c
        })
        .collect();
    let snapshot = threads[3].clone();
    threads[3].join(&snapshot); // no-op join keeps the clock valid
    for i in 1..4 {
        let (a, b) = threads.split_at_mut(i);
        b[0].join(&a[i - 1]);
    }

    // First write: copy-check into the auxiliary clock.
    let (m1, s1) = lazy.copy_check_monotone_counted(&threads[3]);
    let (m2, s2) = eager.copy_check_monotone_counted(&threads[3]);
    assert_eq!(m1, m2, "copy modes must agree");
    assert_eq!(s1.changed, s2.changed, "VTWork contribution must agree");
    assert_eq!(lazy.vector_time(), eager.vector_time());

    // Joins from another thread's clock.
    let mut rlazy = C::new();
    let mut reager = C::with_threads(K);
    rlazy.init_root(ThreadId::new(9));
    reager.init_root(ThreadId::new(9));
    rlazy.increment(2);
    reager.increment(2);
    let j1 = rlazy.join_counted(&lazy);
    let j2 = reager.join_counted(&eager);
    assert_eq!(j1.changed, j2.changed);
    assert_eq!(rlazy.vector_time(), reager.vector_time());

    // Ordering queries agree in every direction.
    assert_eq!(lazy.leq(&rlazy), eager.leq(&reager));
    assert!(lazy == eager, "clocks must compare equal");
    for t in 0..K as u32 {
        assert_eq!(lazy.get(ThreadId::new(t)), eager.get(ThreadId::new(t)));
    }
}

#[test]
fn lazy_tree_clock_matches_eagerly_zeroed() {
    lazy_matches_eager::<TreeClock>();
}

#[test]
fn lazy_vector_clock_matches_eagerly_zeroed() {
    lazy_matches_eager::<VectorClock>();
}

/// A cleared (pool-recycled) clock must behave exactly like a fresh one.
fn cleared_matches_fresh<C: LogicalClock + PartialEq>() {
    let mut src = C::new();
    src.init_root(ThreadId::new(5));
    src.increment(7);

    let mut used = C::new();
    used.init_root(ThreadId::new(2));
    used.increment(3);
    used.join(&src);
    used.clear();
    assert!(used.is_empty());

    let mut fresh = C::new();
    let (mu, su) = used.copy_check_monotone_counted(&src);
    let (mf, sf) = fresh.copy_check_monotone_counted(&src);
    assert_eq!(mu, mf);
    assert_eq!(su.changed, sf.changed);
    assert!(used == fresh);
    assert_eq!(used.vector_time(), fresh.vector_time());
}

#[test]
fn cleared_tree_clock_matches_fresh() {
    cleared_matches_fresh::<TreeClock>();
}

#[test]
fn cleared_vector_clock_matches_fresh() {
    cleared_matches_fresh::<VectorClock>();
}

/// The sparse deep copy must charge work proportional to the information
/// transferred, not the thread dimension: a first copy from a clock that
/// knows 3 threads into an empty clock examines ~3 entries even when the
/// source's arrays are sized for 256 threads.
#[test]
fn tree_deep_copy_cost_is_sparse_in_present_entries() {
    const K: usize = 256;
    let mut src = TreeClock::with_threads(K);
    src.init_root(ThreadId::new(0));
    src.increment(4);
    for u in [7u32, 13] {
        let mut other = TreeClock::with_threads(K);
        other.init_root(ThreadId::new(u));
        other.increment(1);
        src.join(&other);
    }
    assert_eq!(src.node_count(), 3);

    let mut lw = TreeClock::new();
    let (mode, stats) = lw.copy_check_monotone_counted(&src);
    assert_eq!(mode, CopyMode::Monotone);
    assert!(
        stats.examined <= 2 * 3,
        "examined {} must scale with the 3 present entries, not k={K}",
        stats.examined
    );
    assert_eq!(stats.changed, 3, "all three known entries are news to lw");
    assert_eq!(lw.vector_time(), src.vector_time());
}
