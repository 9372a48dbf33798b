//! The tree-clock `Join` operation (Algorithm 2, lines 16–27 and
//! `getUpdatedNodesJoin`).
//!
//! `Join` walks `other`'s tree top-down, descending into a child only if
//! its time has *progressed* relative to `self` (direct monotonicity) and
//! abandoning a child list as soon as an attachment clock is already
//! known (indirect monotonicity). The progressed nodes are collected in
//! post-order on a stack `S`, detached from `self`, and re-attached in a
//! shape mirroring `other`; finally the updated subtree is hung under
//! `self`'s root.
//!
//! The `COUNT` const parameter selects the instrumented variant that
//! tallies [`OpStats`]; the plain variant compiles the counters out so
//! timed runs measure only the algorithm.
//!
//! The traversal borrows the scratch stacks (`gather`, `frames`)
//! directly as disjoint fields of `self` — no `mem::take`/restore pair
//! runs on the per-event path (that swap used to cost a handful of ns
//! per operation, a measurable slice of the sparse-regime fixed
//! overhead).

use crate::clock::{LogicalClock, OpStats};
use crate::{LocalTime, ThreadId};

use super::node::{Node, NIL};
use super::shape::Shape;
use super::TreeClock;

/// One frame of the iterative pre-order traversal: a node of `other` and
/// the next child of that node still to be examined.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    pub(crate) node: u32,
    pub(crate) next_child: u32,
}

/// The represented time of thread index `idx` in a dense times slice
/// (0 if out of range).
#[inline]
pub(crate) fn time_at(clks: &[LocalTime], idx: u32) -> LocalTime {
    clks.get(idx as usize).copied().unwrap_or(0)
}

impl TreeClock {
    /// Returns both the join's result statistics and (for the uncounted
    /// path) the number of surgically moved entries in `stats.moved`,
    /// which the hybrid clock reads as its density observation.
    pub(crate) fn join_impl<const COUNT: bool>(&mut self, other: &TreeClock) -> OpStats {
        let mut stats = OpStats::NOOP;
        let Some(zp) = other.root_idx() else {
            return stats; // joining an empty clock is a no-op
        };
        if COUNT {
            stats.examined += 1; // the root progress check
        }
        if other.root_time <= self.get_idx(zp) {
            return stats;
        }
        let Some(z) = self.root_idx() else {
            // Joining into an empty clock yields an exact copy.
            let mut s = self.clone_structure_from::<COUNT>(other);
            s.examined += stats.examined;
            return s;
        };
        assert!(
            zp != z && other.get_idx(z) <= self.root_time,
            "TreeClock::join: `other` has progressed on self's root thread {} — \
             this cannot happen in a causal ordering (misuse of the clock)",
            ThreadId::new(z),
        );

        // Timed-path fast path: when recent joins kept moving most of
        // the tree (dense communication — the regime where the surgical
        // walk's pointer chasing loses to a flat loop), join on the
        // dense arrays instead. Value-identical; see `flat_join`.
        if !COUNT && self.take_dense_path() {
            stats.moved = self.flat_join(other, z) as u64;
            return stats;
        }

        let arena = self.num_threads().max(other.num_threads());
        let shape = self.store.unique(z, self.root_time);
        self.gather.clear();
        self.frames.clear();
        Self::gather_join::<COUNT>(
            &shape.clks,
            other,
            zp,
            &mut self.gather,
            &mut self.frames,
            &mut stats,
        );
        let moved = self.gather.len();
        Self::detach_nodes_in(&mut shape.nodes, z, &self.gather);
        Self::attach_nodes_in::<COUNT>(shape, other, &mut self.gather, &mut stats);

        // Place the updated subtree under the root of `self`, attached at
        // the root's current time, at the front of the child list.
        shape.nodes[zp as usize].aclk = self.root_time;
        Self::push_child_in(&mut shape.nodes, zp, z);
        self.store.settle();
        if !COUNT {
            self.note_density(moved, arena);
            stats.moved = moved as u64;
        }

        debug_assert_eq!(self.check_invariants(), Ok(()));
        stats
    }

    /// Value-equivalent join on the dense arrays: a (vectorizable)
    /// pointwise maximum, followed by re-hanging every known thread
    /// directly under the root at the root's *current* time.
    ///
    /// Attaching at the current root time is sound for both monotonicity
    /// principles: any later joiner that already knows this root's
    /// current local time transitively knows everything the root knows
    /// *now* — including every child's current value — so skipping the
    /// flat child list is exactly as safe as skipping a surgically
    /// maintained one. What the flat shape gives up is *granularity*
    /// (children can no longer be skipped individually by older
    /// knowledge), which is precisely worthless in the dense regime that
    /// triggers this path: most entries change every operation anyway.
    ///
    /// Only the uncounted (timed) path takes this shortcut; the counted
    /// variants always run Algorithm 2 verbatim, so all work accounting
    /// (`OpStats`, Theorem 1 checks) measures the paper's algorithm.
    /// Returns the arena length.
    pub(crate) fn flat_join(&mut self, other: &TreeClock, z: u32) -> usize {
        let src = other.shape();
        let shape = self.store.unique(z, self.root_time);
        let grew = src.clks.len() > shape.clks.len();
        shape.ensure_len(src.clks.len());
        for (mine, &theirs) in shape.clks.iter_mut().zip(src.clks.iter()) {
            if theirs > *mine {
                *mine = theirs;
            }
        }
        // A shared source's root entry may lag: take its root time.
        if other.store.is_shared() {
            let r = other.root as usize;
            shape.clks[r] = shape.clks[r].max(other.root_time);
        }
        Self::rebuild_star(shape, z, |i| src.is_present(i));
        let arena = shape.nodes.len();
        if grew {
            self.store.settle();
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        arena
    }

    /// The slice twin of [`flat_join`](Self::flat_join), for a source
    /// that *is* a flat array (the hybrid clock's `Tree ⊔ Flat` case):
    /// pointwise maximum against `times`, then a flat re-attachment of
    /// every known thread under `self`'s root `z`. Returns the number of
    /// entries whose value changed (the caller's density observation and
    /// exact `VTWork` contribution).
    pub(crate) fn flat_join_slice(&mut self, times: &[LocalTime], z: u32) -> u64 {
        let shape = self.store.unique(z, self.root_time);
        shape.ensure_len(times.len());
        let mut changed = 0u64;
        for (mine, &theirs) in shape.clks.iter_mut().zip(times.iter()) {
            changed += u64::from(theirs > *mine);
            *mine = (*mine).max(theirs);
        }
        Self::rebuild_star(shape, z, |_| false);
        self.root_time = shape.clks[z as usize];
        self.store.settle();
        debug_assert_eq!(self.check_invariants(), Ok(()));
        changed
    }

    /// Rebuilds the tree shape flat: every known thread becomes a direct
    /// child of root `z`, attached at the root's current time, in a
    /// single forward sweep over the arena. A thread is *known* when its
    /// local time is nonzero, its node is currently in the tree, or
    /// `keep_extra` says so (used by [`flat_join`](Self::flat_join) to
    /// retain zero-time nodes present in the join source). `shape` must
    /// hold the root's current time in its root entry.
    pub(crate) fn rebuild_star(shape: &mut Shape, z: u32, keep_extra: impl Fn(u32) -> bool) {
        let root_time = shape.clks[z as usize];
        let mut head = NIL;
        let mut prev = NIL;
        let mut count = 1u32;
        for i in 0..shape.nodes.len() as u32 {
            if i == z {
                continue;
            }
            let iu = i as usize;
            if shape.clks[iu] == 0 && !shape.nodes[iu].present() && !keep_extra(i) {
                continue;
            }
            {
                let n = &mut shape.nodes[iu];
                n.parent = z;
                n.aclk = root_time;
                n.head_child = NIL;
                n.prev_sib = prev;
                n.next_sib = NIL;
            }
            if prev == NIL {
                head = i;
            } else {
                shape.nodes[prev as usize].next_sib = i;
            }
            prev = i;
            count += 1;
        }
        {
            let r = &mut shape.nodes[z as usize];
            r.parent = NIL;
            r.head_child = head;
            r.next_sib = NIL;
            r.prev_sib = NIL;
            r.aclk = 0;
        }
        shape.num_present = count;
    }

    /// Materializes a tree from a flat times array: the values become
    /// `self`'s local times and every known thread hangs directly under
    /// `root` (the star shape [`flat_join`](Self::flat_join) also
    /// produces, sound by the same argument). This is the hybrid clock's
    /// dense→sparse re-materialization: the scan is one forward sweep
    /// and the link work is O(present entries).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not empty.
    pub(crate) fn adopt_flat(&mut self, times: &[LocalTime], root: u32) {
        assert!(
            self.root == NIL,
            "TreeClock::adopt_flat: destination must be empty"
        );
        let shape = self.store.unique(NIL, 0);
        shape.ensure_len(times.len().max(root as usize + 1));
        shape.clks[..times.len()].copy_from_slice(times);
        // Entries past `times.len()` were zeroed by the teardown that
        // emptied this clock; nothing to reset.
        Self::rebuild_star(shape, root, |_| false);
        self.root = root;
        self.root_time = shape.clks[root as usize];
        self.store.settle();
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Iterative `getUpdatedNodesJoin`: collects, in post-order, every
    /// node of `other` (starting at `start`, which the caller has already
    /// determined to be progressed) whose clock has progressed relative
    /// to the receiver's times `self_clks`.
    pub(crate) fn gather_join<const COUNT: bool>(
        self_clks: &[LocalTime],
        other: &TreeClock,
        start: u32,
        gathered: &mut Vec<u32>,
        frames: &mut Vec<Frame>,
        stats: &mut OpStats,
    ) {
        // Only children are read from `other`'s shape, never its root
        // entry (which may lag in a shared shape).
        let o_nodes: &[Node] = &other.shape().nodes;
        let o_clks: &[LocalTime] = &other.shape().clks;
        let mut frame = Frame {
            node: start,
            next_child: o_nodes[start as usize].head_child,
        };
        'outer: loop {
            let mut child = frame.next_child;
            let parent_known = time_at(self_clks, frame.node);
            while child != NIL {
                let v = &o_nodes[child as usize];
                if COUNT {
                    stats.examined += 1;
                }
                if time_at(self_clks, child) < o_clks[child as usize] {
                    // Direct monotonicity: the child has progressed —
                    // descend into it.
                    frame.next_child = v.next_sib;
                    frames.push(frame);
                    frame = Frame {
                        node: child,
                        next_child: v.head_child,
                    };
                    continue 'outer;
                }
                if v.aclk <= parent_known {
                    // Indirect monotonicity: this child (and, by the
                    // descending-aclk order, all later ones) was attached
                    // at a parent time `self` already knows about.
                    break;
                }
                child = v.next_sib;
            }
            // All relevant children handled: emit the node (post-order).
            gathered.push(frame.node);
            match frames.pop() {
                Some(f) => frame = f,
                None => return,
            }
        }
    }
}
