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
//! A flat clock on either side takes the dense path instead: a flat
//! receiver sweeps the source's times, and a tree receiver hangs each
//! entry a flat source progressed under its own root.
//!
//! The `COUNT` const parameter selects the instrumented variant that
//! tallies [`OpStats`]; the plain variant compiles the counters out so
//! timed runs measure only the algorithm.
//!
//! The traversal's scratch stacks (`gather`, `frames`) belong to the OS
//! thread, not to the clock: [`with_scratch`] lends them for the length
//! of one Algorithm 2 walk. Only walks borrow them; sweeps, shares and
//! replicas never do, and a clock carries no stack headers of its own.

use std::cell::RefCell;

use crate::clock::{LogicalClock, OpStats};
use crate::{LocalTime, ThreadId};

use super::node::{Node, NIL};
use super::shape::{Shape, SHARED_WIDTH};
use super::{Times, TreeClock, DENSE_FRACTION, DENSE_STREAK_LIMIT, SPARSE_SWEEP_LIMIT};

/// One frame of the iterative pre-order traversal: a node of `other` and
/// the next child of that node still to be examined.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    pub(crate) node: u32,
    pub(crate) next_child: u32,
}

/// The scratch stacks of one Algorithm 2 walk: the gathered nodes (the
/// paper's stack `S`) and the traversal frames.
pub(crate) struct Scratch {
    pub(crate) gather: Vec<u32>,
    pub(crate) frames: Vec<Frame>,
}

thread_local! {
    /// This OS thread's scratch stacks, grown to the widest walk it has
    /// run and reused by every later one.
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            gather: Vec::new(),
            frames: Vec::new(),
        })
    };
}

/// Runs `f` with this OS thread's scratch stacks, both empty. Walks do
/// not nest: each caller finishes its walk before it starts another
/// operation (a fallback that walks again runs after `f` returns).
#[inline]
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.gather.clear();
        scratch.frames.clear();
        f(&mut scratch)
    })
}

/// The represented time of thread index `idx` in a dense times slice
/// (0 if out of range).
#[inline]
pub(crate) fn time_at(clks: &[LocalTime], idx: u32) -> LocalTime {
    clks.get(idx as usize).copied().unwrap_or(0)
}

/// How many nodes a timed walk may move before the operation takes the
/// flat path instead: an eighth of the arena, and at least an eighth of
/// the sharing width. The counted operations always walk in full.
#[inline]
pub(crate) fn walk_limit<const COUNT: bool>(arena: usize) -> usize {
    if COUNT {
        usize::MAX
    } else {
        arena.max(SHARED_WIDTH) / DENSE_FRACTION
    }
}

/// The flat join: raises every entry of `mine` (at least as long as
/// `src`) to `src`'s value and returns how many rose. A branchless
/// max-and-count loop the compiler vectorizes; a lagging root entry of
/// the source is settled first, so the loop sees it unchanged.
#[inline]
fn max_sweep(mine: &mut [LocalTime], src: Times<'_>) -> u64 {
    let mut changed = 0u32;
    if let Some((r, time)) = src.root_entry() {
        let entry = &mut mine[r as usize];
        changed += u32::from(time > *entry);
        *entry = (*entry).max(time);
    }
    for (entry, &time) in mine.iter_mut().zip(src.slice) {
        changed += u32::from(time > *entry);
        *entry = (*entry).max(time);
    }
    u64::from(changed)
}

/// The flat join into a fresh array, in one pass over both values:
/// returns `own ⊔ src` and how many entries `src` raised, the count
/// [`max_sweep`] makes on a copy of `own` whose root entry holds its
/// root time. The loop reads the raw slices; the (at most two) root
/// entries, which may lag in their shapes, are judged again afterwards
/// on the authoritative values.
fn max_fresh(own: Times<'_>, src: Times<'_>) -> (Vec<LocalTime>, u64) {
    let (mine, theirs) = (own.slice, src.slice);
    let common = mine.len().min(theirs.len());
    let mut out = Vec::with_capacity(mine.len().max(theirs.len()));
    let mut changed = 0u32;
    out.extend(
        mine[..common]
            .iter()
            .zip(&theirs[..common])
            .map(|(&m, &t)| {
                changed += u32::from(t > m);
                m.max(t)
            }),
    );
    out.extend_from_slice(&mine[common..]);
    out.extend(theirs[common..].iter().map(|&t| {
        changed += u32::from(t > 0);
        t
    }));
    let own_root = own.root_entry().map(|(r, _)| r);
    let src_root = src
        .root_entry()
        .map(|(r, _)| r)
        .filter(|&r| Some(r) != own_root);
    for r in [own_root, src_root].into_iter().flatten() {
        let raw = time_at(theirs, r) > time_at(mine, r);
        let (m, t) = (own.get(r), src.get(r));
        changed = changed + u32::from(t > m) - u32::from(raw);
        out[r as usize] = m.max(t);
    }
    (out, u64::from(changed))
}

impl TreeClock {
    /// The join. When `COUNT`, returns its work statistics; a timed
    /// join returns only the `changed` count its flat paths make anyway,
    /// and nothing after a walk.
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

        let arena = self.num_threads().max(other.num_threads());
        let limit = walk_limit::<COUNT>(arena);
        if !COUNT {
            if let Some(changed) = self.join_into_fresh(other.times()) {
                self.note_density(changed as usize, arena);
                return OpStats::new(0, changed, 0);
            }
            if !self.is_flat() && self.streak >= DENSE_STREAK_LIMIT {
                self.flatten();
            }
        }
        if self.is_flat() || other.is_flat() {
            let mut s = self.join_dense::<COUNT>(other.times(), z, limit);
            if !COUNT {
                self.note_density(s.changed as usize, arena);
            }
            s.examined += stats.examined;
            return s;
        }

        let root_time = self.root_time;
        let shape = self.store.unique(z, root_time);
        let walked = with_scratch(|s| {
            let (gather, frames) = (&mut s.gather, &mut s.frames);
            if !Self::gather_join::<COUNT>(
                &shape.clks,
                other,
                zp,
                limit,
                (gather, frames),
                &mut stats,
            ) {
                return None;
            }
            let moved = gather.len();
            Self::detach_nodes_in(&mut shape.nodes, z, gather);
            Self::attach_nodes_in::<COUNT>(shape, other, gather, &mut stats);

            // Place the updated subtree under the root of `self`,
            // attached at the root's current time, at the front of the
            // child list.
            shape.nodes[zp as usize].aclk = root_time;
            Self::push_child_in(&mut shape.nodes, zp, z);
            Some(moved)
        });
        let Some(moved) = walked else {
            self.flatten();
            return self.join_dense::<false>(other.times(), z, limit);
        };
        self.store.settle();
        if !COUNT {
            self.note_density(moved, arena);
        }

        debug_assert_eq!(self.check_invariants(), Ok(()));
        stats
    }

    /// Turns a tree flat, dropping its links.
    fn flatten(&mut self) {
        self.store.flatten(self.root, self.root_time);
        self.streak = 0;
    }

    /// The timed join into a shape other clocks share. Either way the
    /// shape is replaced: a flat clock would copy it before its sweep,
    /// and a tree turns flat rather than copy its links. So this clock
    /// takes a fresh flat shape holding `self ⊔ src`, written in one
    /// pass, and leaves the old one to the clocks that share it.
    /// Returns how many entries `src` raised, or `None`, doing nothing,
    /// while no other clock shares the shape.
    fn join_into_fresh(&mut self, src: Times<'_>) -> Option<u64> {
        if !self.store.shared_with_others() {
            return None;
        }
        if !self.is_flat() {
            self.streak = 0;
        }
        let (clks, changed) = max_fresh(self.times(), src);
        self.store.replace(Shape {
            clks,
            ..Shape::default()
        });
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Some(changed)
    }

    /// Feeds a timed join's moved (or changed) count to the streak of
    /// the clock's shape. A tree counts consecutive dense joins, each
    /// moving at least an eighth of the arena; its next timed join after
    /// `DENSE_STREAK_LIMIT` of them turns it flat. A flat clock counts
    /// consecutive sparse sweeps, and becomes a tree again after
    /// `SPARSE_SWEEP_LIMIT` of them.
    ///
    /// Density is judged against the *arena length*, not the tree size:
    /// a flat sweep costs Θ(arena), so it only pays off when the moved
    /// set is a sizable fraction of the arena.
    fn note_density(&mut self, moved: usize, arena: usize) {
        let dense = moved * DENSE_FRACTION >= arena.max(1);
        // A tree counts dense joins, a flat clock sparse ones.
        if dense != self.is_flat() {
            self.streak = self.streak.saturating_add(1);
        } else {
            self.streak = 0;
        }
        if self.is_flat() && self.streak >= SPARSE_SWEEP_LIMIT {
            self.unflatten();
        }
    }

    /// Turns a flat clock back into a tree: every known thread hangs
    /// directly under the root, attached at the root's current time.
    fn unflatten(&mut self) {
        let shape = self.store.unique(self.root, self.root_time);
        shape.nodes.resize_with(shape.clks.len(), Node::default);
        Self::rebuild_star(shape, self.root);
        self.streak = 0;
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Joins the dense value `src` into this clock, rooted at `z`: a
    /// flat clock sweeps it, and a tree hangs each progressed entry
    /// directly under its root, attached at the root's current time. A
    /// tree that would hang more than `limit` entries turns flat and
    /// sweeps the rest. Returns the exact `changed` count, also as
    /// `moved`; the counted variant examines every entry of `src`.
    fn join_dense<const COUNT: bool>(&mut self, src: Times<'_>, z: u32, limit: usize) -> OpStats {
        let aclk = self.root_time;
        let shape = self.store.unique(z, aclk);
        shape.ensure_len(src.slice.len());
        let mut changed = 0;
        if !shape.is_flat() {
            changed = Self::hang_progressed(shape, z, aclk, src, limit);
            if changed as usize > limit {
                shape.drop_links();
                self.streak = 0;
            }
        }
        if shape.is_flat() {
            changed += max_sweep(&mut shape.clks, src);
        }
        self.store.settle();
        debug_assert_eq!(self.check_invariants(), Ok(()));
        let examined = if COUNT { src.slice.len() as u64 } else { 0 };
        OpStats::new(examined, changed, changed)
    }

    /// The tree side of [`join_dense`](Self::join_dense): raises each
    /// entry of `shape` that `src` has progressed, and moves its node to
    /// the front of root `z`'s child list at attachment clock `aclk`,
    /// its own subtree in tow. Stops after hanging more than `limit`
    /// entries. Returns the number of entries moved.
    fn hang_progressed(
        shape: &mut Shape,
        z: u32,
        aclk: LocalTime,
        src: Times<'_>,
        limit: usize,
    ) -> u64 {
        let hang = |shape: &mut Shape, i: usize, time: LocalTime| {
            shape.clks[i] = time;
            if shape.nodes[i].present() {
                Self::unlink_in(&mut shape.nodes, i as u32);
            } else {
                shape.num_present += 1;
            }
            shape.nodes[i].aclk = aclk;
            Self::push_child_in(&mut shape.nodes, i as u32, z);
        };
        let mut moved = 0;
        // A lagging root entry of the source is settled first, so the
        // loop below sees it unchanged.
        if let Some((r, time)) = src.root_entry() {
            if time > shape.clks[r as usize] {
                hang(shape, r as usize, time);
                moved += 1;
            }
        }
        for (i, &time) in src.slice.iter().enumerate() {
            if moved > limit {
                break;
            }
            if time > shape.clks[i] {
                hang(shape, i, time);
                moved += 1;
            }
        }
        moved as u64
    }

    /// Rebuilds the tree shape flat: every known thread becomes a direct
    /// child of root `z`, attached at the root's current time, in a
    /// single forward sweep over the arena. A thread is *known* when its
    /// local time is nonzero or its node is currently in the tree.
    /// `shape` must hold the root's current time in its root entry.
    pub(crate) fn rebuild_star(shape: &mut Shape, z: u32) {
        let root_time = shape.clks[z as usize];
        let mut head = NIL;
        let mut prev = NIL;
        let mut count = 1u32;
        for i in 0..shape.nodes.len() as u32 {
            if i == z {
                continue;
            }
            let iu = i as usize;
            if shape.clks[iu] == 0 && !shape.nodes[iu].present() {
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

    /// Iterative `getUpdatedNodesJoin`: collects, in post-order, every
    /// node of `other` (starting at `start`, which the caller has already
    /// determined to be progressed) whose clock has progressed relative
    /// to the receiver's times `self_clks`. Returns `false` as soon as
    /// more than `limit` nodes are collected.
    pub(crate) fn gather_join<const COUNT: bool>(
        self_clks: &[LocalTime],
        other: &TreeClock,
        start: u32,
        limit: usize,
        (gathered, frames): (&mut Vec<u32>, &mut Vec<Frame>),
        stats: &mut OpStats,
    ) -> bool {
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
                if parent_known != 0 && v.aclk <= parent_known {
                    // Indirect monotonicity: this child (and, by the
                    // descending-aclk order, all later ones) was attached
                    // at a parent time `self` already knows about. A
                    // parent known at time 0 is not known at all: its
                    // children attached at aclk 0 (learned before its
                    // first event, as a forked thread learns its
                    // parent's clock) may all be news.
                    break;
                }
                child = v.next_sib;
            }
            // All relevant children handled: emit the node (post-order).
            gathered.push(frame.node);
            if gathered.len() > limit {
                return false;
            }
            match frames.pop() {
                Some(f) => frame = f,
                None => return true,
            }
        }
    }
}
