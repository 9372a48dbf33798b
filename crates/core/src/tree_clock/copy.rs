//! The tree-clock `MonotoneCopy` operation (Algorithm 2, lines 28–35 and
//! `getUpdatedNodesCopy`).
//!
//! When the destination is already dominated by the source
//! (`self ⊑ other`), copying has the same semantics as joining, so the
//! same monotonicity arguments let it run sublinearly. The one extra
//! wrinkle is that the destination's root must move: the destination
//! re-roots itself at the source's root thread, and its old root node is
//! repositioned like any other updated node (collected by the traversal
//! even if its time did not progress — line 67 of Algorithm 2).
//!
//! With a flat clock on either side there are no links to walk, and the
//! destination becomes a replica of the source, taking its shape.
//!
//! Like the join, the traversal borrows its OS thread's scratch stacks
//! for the length of the walk; the fallbacks that replace the walk with
//! a replica or a clone run after it has given them back.

use crate::clock::{LogicalClock, OpStats};
use crate::ThreadId;

use super::join::{time_at, walk_limit, with_scratch, Frame};
use super::node::NIL;
use super::TreeClock;

impl TreeClock {
    /// The monotone copy. When `COUNT`, returns its work statistics;
    /// a timed copy returns nothing.
    pub(crate) fn monotone_copy_impl<const COUNT: bool>(&mut self, other: &TreeClock) -> OpStats {
        let mut stats = OpStats::NOOP;
        let Some(zp) = other.root_idx() else {
            assert!(
                self.is_empty(),
                "TreeClock::monotone_copy: copying an empty clock into a non-empty \
                 one violates the precondition self ⊑ other"
            );
            return stats;
        };
        if let Some(z) = self.root_idx() {
            assert!(
                self.root_time <= other.get_idx(z),
                "TreeClock::monotone_copy: self ⋢ other on self's root thread {} — \
                 use copy_check_monotone for unordered copies",
                ThreadId::new(z),
            );
        }
        // Timed path: a wide source's shape is shared, not copied; the
        // source replaces it when it next changes it.
        if !COUNT && self.share(other) {
            return stats;
        }
        let Some(z) = self.root_idx() else {
            // Copy into an empty clock: a deep copy, and every entry of
            // `other` is new information.
            return self.clone_structure_from::<COUNT>(other);
        };
        if self.is_flat() || other.is_flat() {
            // No links on one side to walk: the destination becomes a
            // replica of the source, flat or tree.
            return self.replicate::<COUNT>(other);
        }

        let arena = self.num_threads().max(other.num_threads());
        if COUNT {
            stats.examined += 1; // the root of `other` is always processed
        }
        // A timed copy that would move more than its walk limit stops
        // walking and replicates the source: its arrays cost less to
        // copy than that many moved entries.
        let limit = walk_limit::<COUNT>(arena);
        let shape = self.store.unique(z, self.root_time);
        let walked = with_scratch(|s| {
            let (gather, frames) = (&mut s.gather, &mut s.frames);
            let found_old_root = Self::gather_copy::<COUNT>(
                &shape.clks,
                other,
                (zp, z),
                limit,
                (gather, frames),
                &mut stats,
            )?;
            // The sibling pruning stops a scan once a child's attachment
            // clock shows the destination already knew the rest of the
            // siblings. That is value-correct, but when the destination's
            // old root has not progressed and sits past such a cut it is
            // never reached and cannot be repositioned. Star-shaped
            // sources (a flat representation lifted to a tree attaches
            // every child at one attachment clock) make this reachable
            // in practice: fall back to a full replica, which is always
            // a valid monotone copy.
            //
            // Adaptive fallback: when most of the arena progressed, the
            // surgical detach/re-attach (scattered writes) is slower than
            // replacing the whole structure with `other`'s — which is a
            // valid monotone copy (the result must represent `other`'s
            // vector time, and `other`'s own tree trivially satisfies all
            // invariants). The threshold is *arena*-based because that is
            // what the timed path's flat replica costs; it also keeps the
            // examined-entry count within the Theorem 1 budget: the counted
            // clone walks the union of the two present-node sets — at most
            // `max(len)` entries here, and at least half that many changed.
            if (z != zp && !found_old_root) || gather.len() >= arena / 2 {
                return Some(false);
            }

            Self::detach_nodes_in(&mut shape.nodes, z, gather);
            Self::attach_nodes_in::<COUNT>(shape, other, gather, &mut stats);

            // Re-root at the source's root thread.
            {
                let r = &mut shape.nodes[zp as usize];
                r.parent = NIL;
                r.next_sib = NIL;
                r.prev_sib = NIL;
            }
            debug_assert!(
                z == zp || shape.nodes[z as usize].parent != NIL,
                "old root was not repositioned — monotone-copy precondition violated"
            );
            Some(true)
        });
        let Some(surgical) = walked else {
            return self.replicate::<COUNT>(other);
        };
        if !surgical {
            // The clone runs its own walk, after this one has returned
            // the scratch stacks.
            stats += self.clone_structure_from::<COUNT>(other);
            return stats;
        }
        self.root = zp;
        self.root_time = other.root_time;
        self.store.settle();

        debug_assert_eq!(self.check_invariants(), Ok(()));
        stats
    }

    /// Iterative `getUpdatedNodesCopy`: like the join traversal, but the
    /// start node is unconditionally collected, and the destination's old
    /// root (`old_root`, the `z` parameter of Algorithm 2) is collected
    /// even when it has not progressed, so that it can be repositioned
    /// under the new root.
    ///
    /// Returns whether `old_root` was collected; the caller must handle
    /// the (rare) miss — the sibling pruning can cut a scan short of a
    /// non-progressed `old_root`. Returns `None` instead as soon as
    /// more than `limit` nodes are collected.
    fn gather_copy<const COUNT: bool>(
        self_clks: &[crate::LocalTime],
        other: &TreeClock,
        (start, old_root): (u32, u32),
        limit: usize,
        (gathered, frames): (&mut Vec<u32>, &mut Vec<Frame>),
        stats: &mut OpStats,
    ) -> Option<bool> {
        // Only children are read from `other`'s shape, never its root
        // entry (which may lag in a shared shape).
        let o_nodes = &other.shape().nodes[..];
        let o_clks = &other.shape().clks[..];
        let mut found_old_root = false;
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
                    frame.next_child = v.next_sib;
                    frames.push(frame);
                    frame = Frame {
                        node: child,
                        next_child: v.head_child,
                    };
                    continue 'outer;
                }
                // The destination's old root must be collected for
                // repositioning even though it has not progressed.
                if child == old_root {
                    gathered.push(child);
                    found_old_root = true;
                }
                // The join's indirect-monotonicity cut, with its
                // exception for a parent known only at time 0.
                if parent_known != 0 && v.aclk <= parent_known {
                    break;
                }
                child = v.next_sib;
            }
            if frame.node == old_root {
                found_old_root = true;
            }
            gathered.push(frame.node);
            if gathered.len() > limit {
                return None;
            }
            match frames.pop() {
                Some(f) => frame = f,
                None => return Some(found_old_root),
            }
        }
    }
}
