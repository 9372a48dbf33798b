//! The tree clock data structure (Algorithm 2 of the paper).
//!
//! A [`TreeClock`] represents the same vector timestamp as a
//! [`VectorClock`](crate::VectorClock), but arranges the per-thread
//! entries in a rooted tree whose edges record *how* the information was
//! acquired: if `v` is the parent of `u`, then the clock learned `u`'s
//! time through `v`, at `v`-time `u.aclk` (the *attachment clock*).
//!
//! Two consequences of causality make joins fast (Section 3.1):
//!
//! - **Direct monotonicity** — if the receiving clock already knows
//!   `u.clk` of `u.tid`, it already knows everything below `u`, so the
//!   join never descends into `u`'s subtree.
//! - **Indirect monotonicity** — children are kept in descending
//!   attachment-clock order, so once a child's `aclk` is at-or-before the
//!   receiver's knowledge of the parent, the rest of the child list can
//!   be skipped.
//!
//! The representation is the paper's "two arrays of length k" — a dense
//! array of local times plus a parallel arena of tree links, indexed by
//! thread id (the `ThrMap` of Algorithm 2 is the identity map) — and all
//! traversals are iterative. The arrays and the present count form the
//! clock's *shape*, which is copy-on-write: a clock wider than 64
//! entries holds it behind an `Arc`, so a timed copy from it (a release
//! into a lock clock, say) shares the shape in O(1), and a lock's first
//! publication can be the source's clone. A timed join that changes a
//! shape other clocks share writes its result into a fresh shape in
//! one pass, and the old one stays with them. Narrower clocks keep
//! the shape inline. The root thread's time lives in the clock, not the
//! shape, so `increment` never writes a shared shape; a shared shape's
//! root entry may therefore lag, and every read of a root entry goes
//! through the clock.
//!
//! # The flat shape
//!
//! Where much of the arena changes on every operation, the walk's
//! pointer chasing loses to a vector clock's array sweep. So the timed
//! path keeps a dense clock *flat*: its shape holds the times only, with
//! the links dropped, and a join is a branchless max-and-count sweep.
//! A timed join turns its receiver flat when it would otherwise copy a
//! shape another clock shares (Θ(k) either way, and the times alone are
//! a sixth of the bytes): it writes `max(own, source)` straight into
//! the fresh flat shape, as it does for a flat receiver whose shape is
//! shared. A tree also turns flat after `DENSE_STREAK_LIMIT`
//! consecutive joins that each moved at least an eighth of the arena,
//! or when its walk would move more than an eighth of the arena (and
//! more than 8 entries): the walk stops there and the join sweeps
//! instead. A flat clock becomes a tree again, every known thread hung
//! directly under the root, after `SPARSE_SWEEP_LIMIT` consecutive
//! sweeps that each changed less than an eighth of the arena. A flat
//! shape is shared copy-on-write like a tree, and a copy gives the
//! destination the source's shape; a timed copy between trees that
//! would move past the same walk limit replicates the source instead.
//! A tree that joins a flat source hangs each progressed entry under
//! its own root, attached at the root's current time — the attachment
//! a join of Algorithm 2 gives its source's root, sound by the same
//! argument.
//!
//! The eighth is a tree-ward margin on measured costs: on a 2-core
//! x86 box a flat join sweeps 360 entries at about 0.5 ns each, while
//! Algorithm 2's walk over the cold shapes of the 360-thread Fig. 10
//! traces costs 40–55 ns per moved entry, so the sweep already wins
//! where a join moves about 1 % of the arena.
//!
//! The counted (`*_counted`) operations never flatten: between two
//! trees they run Algorithm 2 on a shape of their own, so `DSWork`
//! measures the paper's algorithm. With a flat clock on either side
//! they take the flat path and count the entries it sweeps.

mod copy;
mod display;
mod join;
mod node;
mod shape;
mod validate;

#[cfg(test)]
mod tests;

pub use validate::InvariantViolation;

use crate::clock::{CopyMode, LogicalClock, OpStats};
use crate::{LocalTime, ThreadId, VectorTime};

use join::with_scratch;
use node::{Node, NIL};
use shape::{Shape, Store};

/// One node of an explicit tree description for
/// [`TreeClock::from_structure`]: `(tid, clk, parent)` with `parent`
/// being `None` for the root and `Some((parent_tid, aclk))` otherwise.
pub type NodeDescriptor = (ThreadId, LocalTime, Option<(ThreadId, LocalTime)>);

/// A hierarchical logical clock with sublinear join and copy operations.
///
/// See the [module documentation](self) for the design and the crate
/// root for a usage example. `TreeClock` implements
/// [`LogicalClock`], so it is a drop-in replacement for
/// [`VectorClock`](crate::VectorClock) in any partial-order computation.
///
/// # Example
///
/// ```rust
/// use tc_core::{LogicalClock, ThreadId, TreeClock};
///
/// // Thread t2's clock after learning about t1:
/// let mut c2 = TreeClock::new();
/// c2.init_root(ThreadId::new(2));
/// c2.increment(2);
///
/// let mut c1 = TreeClock::new();
/// c1.init_root(ThreadId::new(1));
/// c1.increment(1);
///
/// c2.join(&c1);
/// assert_eq!(c2.get(ThreadId::new(1)), 1);
/// // The tree remembers that t1 was attached at t2-time 2:
/// let info = c2.node(ThreadId::new(1)).unwrap();
/// assert_eq!(info.parent, Some(ThreadId::new(2)));
/// assert_eq!(info.aclk, 2);
/// ```
#[derive(Clone)]
pub struct TreeClock {
    /// The local times, tree links and present count, inline or shared
    /// (see the `shape` module).
    store: Store,
    /// Root node index, or `NIL` when the clock is empty.
    root: u32,
    /// The root thread's local time (0 when empty). It is authoritative:
    /// an inline shape's root entry always equals it, a shared shape's
    /// may lag behind it.
    root_time: LocalTime,
    /// Consecutive timed joins that argue for the other shape: in a
    /// tree, joins that each moved at least an eighth of the arena; in a
    /// flat clock, sweeps that each changed less than that.
    streak: u8,
}

/// Consecutive dense joins after which the next timed join turns a tree
/// flat.
const DENSE_STREAK_LIMIT: u8 = 3;

/// Consecutive sparse sweeps after which a flat clock becomes a tree.
const SPARSE_SWEEP_LIMIT: u8 = 16;

/// An operation is dense when it moves at least `1/DENSE_FRACTION` of
/// the arena, and a timed walk stops past that share of a wide arena.
const DENSE_FRACTION: usize = 8;

/// A read-only snapshot of one tree-clock node, for inspection and
/// testing (compare against the paper's figures).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeView {
    /// The thread whose time this node stores.
    pub tid: ThreadId,
    /// Last known local time of `tid`.
    pub clk: LocalTime,
    /// Attachment clock (0 and meaningless for the root).
    pub aclk: LocalTime,
    /// Parent thread, or `None` for the root.
    pub parent: Option<ThreadId>,
}

/// A clock's value as a dense array: the shape's times, with the root's
/// entry read from the clock's root time (a shared shape's root entry
/// may lag behind it). What the sweeps and the wholesale copy read.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Times<'a> {
    /// The dense times; the entry at `root` may lag behind `root_time`.
    pub(crate) slice: &'a [LocalTime],
    /// The index whose value is `root_time`, or `NIL` for none.
    root: u32,
    /// The value at `root`.
    root_time: LocalTime,
}

impl Times<'_> {
    /// The value at index `idx` (0 past the end).
    #[inline]
    pub(crate) fn get(&self, idx: u32) -> LocalTime {
        if idx == self.root {
            self.root_time
        } else {
            join::time_at(self.slice, idx)
        }
    }

    /// The index whose value `slice` may understate, with its value.
    #[inline]
    pub(crate) fn root_entry(&self) -> Option<(u32, LocalTime)> {
        (self.root != NIL).then_some((self.root, self.root_time))
    }

    /// Overwrites `out` with the value.
    pub(crate) fn write_into(&self, out: &mut Vec<LocalTime>) {
        out.clear();
        out.extend_from_slice(self.slice);
        if let Some(entry) = out.get_mut(self.root as usize) {
            *entry = self.root_time;
        }
    }
}

/// Counts the index positions whose values differ between two dense
/// values (the exact `changed` of a wholesale copy).
pub(crate) fn count_diffs(old: Times<'_>, new: Times<'_>) -> u64 {
    let (o, n) = (old.slice, new.slice);
    let shared = o.len().min(n.len());
    let mut diffs = 0u64;
    for i in 0..shared {
        diffs += u64::from(o[i] != n[i]);
    }
    for &t in &o[shared..] {
        diffs += u64::from(t != 0);
    }
    for &t in &n[shared..] {
        diffs += u64::from(t != 0);
    }
    // A root entry may lag its root time: re-judge the (at most two)
    // root indices on the authoritative values.
    let old_root = old.root_entry().map(|(r, _)| r);
    let new_root = new
        .root_entry()
        .map(|(r, _)| r)
        .filter(|&r| Some(r) != old_root);
    for r in [old_root, new_root].into_iter().flatten() {
        let raw = join::time_at(o, r) != join::time_at(n, r);
        diffs = diffs + u64::from(old.get(r) != new.get(r)) - u64::from(raw);
    }
    diffs
}

impl TreeClock {
    /// Creates an empty tree clock.
    pub fn new() -> Self {
        TreeClock::from_shape(Shape::default(), NIL)
    }

    /// A clock over `shape`, rooted at `root` (`NIL` for none), holding
    /// the shape inline or shared by its width.
    fn from_shape(shape: Shape, root: u32) -> Self {
        TreeClock {
            root_time: shape.time(root),
            store: Store::for_shape(shape),
            root,
            streak: 0,
        }
    }

    // ---- internal arena helpers -------------------------------------

    /// The shape, read-only. Its root entry may lag behind
    /// `root_time`: read root entries through [`get_idx`](Self::get_idx)
    /// or [`times`](Self::times).
    #[inline]
    pub(crate) fn shape(&self) -> &Shape {
        self.store.get()
    }

    /// The represented time of thread index `idx` (0 if absent).
    #[inline]
    pub(crate) fn get_idx(&self, idx: u32) -> LocalTime {
        self.store.time(idx, self.root, self.root_time)
    }

    /// This clock's value as a dense array (non-present entries are 0
    /// by invariant).
    #[inline]
    pub(crate) fn times(&self) -> Times<'_> {
        Times {
            slice: &self.shape().clks,
            root: self.root,
            root_time: self.root_time,
        }
    }

    /// The timed copy from a source whose shape is shared: takes a
    /// reference to it, O(1). Returns `false` (and does nothing) for an
    /// inline source.
    fn share(&mut self, other: &TreeClock) -> bool {
        if !self.store.share(&other.store) {
            return false;
        }
        self.root = other.root;
        self.root_time = other.root_time;
        self.streak = 0;
        true
    }

    /// Makes `self` a replica of `other`, tree or flat, by copying its
    /// arrays (memcpys).
    fn copy_arrays(&mut self, other: &TreeClock) {
        let src = other.shape();
        let dst = self.store.for_overwrite();
        dst.clks.clone_from(&src.clks);
        dst.nodes.clone_from(&src.nodes);
        dst.num_present = src.num_present;
        self.root = other.root;
        self.root_time = other.root_time;
        self.store.settle();
    }

    /// Whether the clock is flat: it keeps its times without tree
    /// links (see the [module documentation](self)). Only timed joins
    /// make a clock flat, and a copy from a flat clock is flat too.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.shape().is_flat()
    }

    /// Whether `self` and `other` hold the same shared shape: one was
    /// copied from the other by sharing it, and neither has changed
    /// since.
    pub fn shares_shape_with(&self, other: &TreeClock) -> bool {
        self.store.shares_with(&other.store)
    }

    #[inline]
    pub(crate) fn root_idx(&self) -> Option<u32> {
        if self.root == NIL {
            None
        } else {
            Some(self.root)
        }
    }

    /// Removes `child` from its parent's child list. The caller is
    /// responsible for re-linking it (or marking it absent).
    ///
    /// Takes the node arena directly so callers holding a borrow of the
    /// rest of the shape can still unlink.
    #[inline]
    pub(crate) fn unlink_in(nodes: &mut [Node], child: u32) {
        let Node {
            parent,
            next_sib: next,
            prev_sib: prev,
            ..
        } = nodes[child as usize];
        if prev == NIL {
            nodes[parent as usize].head_child = next;
        } else {
            nodes[prev as usize].next_sib = next;
        }
        if next != NIL {
            nodes[next as usize].prev_sib = prev;
        }
    }

    /// Pushes `child` at the front of `parent`'s child list (the paper's
    /// `pushChild`). The front position keeps the list in descending
    /// attachment-clock order.
    #[inline]
    pub(crate) fn push_child_in(nodes: &mut [Node], child: u32, parent: u32) {
        let old_head = nodes[parent as usize].head_child;
        {
            let c = &mut nodes[child as usize];
            c.parent = parent;
            c.prev_sib = NIL;
            c.next_sib = old_head;
        }
        if old_head != NIL {
            nodes[old_head as usize].prev_sib = child;
        }
        nodes[parent as usize].head_child = child;
    }

    /// Detaches from this tree every node whose thread appears in the
    /// gathered stack (the paper's `detachNodes`).
    pub(crate) fn detach_nodes_in(nodes: &mut [Node], root: u32, gathered: &[u32]) {
        for &vp in gathered {
            if let Some(n) = nodes.get(vp as usize) {
                if n.present() && vp != root {
                    Self::unlink_in(nodes, vp);
                }
            }
        }
    }

    /// Re-attaches the gathered nodes, mirroring the shape of `other`'s
    /// corresponding subtree (the paper's `attachNodes`). Pops from the
    /// stack so parents are processed before their children.
    ///
    /// Operates on the destination's unique shape directly (instead of
    /// `&mut self`), with the gathered stack borrowed from the OS
    /// thread's scratch (see the `join` module).
    pub(crate) fn attach_nodes_in<const COUNT: bool>(
        dst: &mut Shape,
        other: &TreeClock,
        gathered: &mut Vec<u32>,
        stats: &mut OpStats,
    ) {
        if let Some(max) = gathered.iter().copied().max() {
            dst.ensure_len(max as usize + 1);
        }
        let src = other.shape();
        while let Some(up) = gathered.pop() {
            let iu = up as usize;
            if !dst.nodes[iu].present() {
                dst.num_present += 1;
            }
            // The source's root entry may lag in a shared shape.
            let o_clk = if up == other.root {
                other.root_time
            } else {
                src.clks[iu]
            };
            let Node {
                aclk: o_aclk,
                parent: o_parent,
                ..
            } = src.nodes[iu];
            if COUNT {
                stats.moved += 1;
                if dst.clks[iu] != o_clk {
                    stats.changed += 1;
                }
            }
            dst.clks[iu] = o_clk;
            if o_parent != NIL {
                dst.nodes[iu].aclk = o_aclk;
                Self::push_child_in(&mut dst.nodes, up, o_parent);
            } else if !dst.nodes[iu].present() {
                // New root of an empty-side attach: mark in-tree; the
                // caller sets the root pointer.
                dst.nodes[iu].parent = NIL;
            }
        }
    }

    /// Deep copy: makes `self` an exact structural replica of `other`.
    ///
    /// Used when joining into / copying into an empty clock and as the
    /// fallback of [`copy_check_monotone`](LogicalClock::copy_check_monotone).
    ///
    /// The counted copy is *sparse*: it walks the present nodes of the
    /// two trees instead of their dense arrays, so the cost — both the
    /// physical work and the `examined` entries it reports — is
    /// `O(|self| ∪ |other|)` present entries, not `Θ(k)` array length.
    /// This is what lets a first copy into a fresh per-variable clock
    /// cost only the information it actually transfers, which in turn is
    /// what keeps SHB/MAZ tree-clock work inside the paper's plain
    /// `3·VTWork` bound on short traces (the conformance checker used to
    /// need a per-copy dimension surcharge to excuse the dense copy).
    ///
    /// `changed` (the `VTWork` contribution) stays exact: every entry
    /// outside the union of present sets is 0 on both sides.
    pub(crate) fn clone_structure_from<const COUNT: bool>(&mut self, other: &TreeClock) -> OpStats {
        if !COUNT || self.is_flat() || other.is_flat() {
            // Timed path: a shared source's shape is shared, and a
            // narrow one's dense arrays are replicated with memcpys —
            // far faster than the sparse walk for the array lengths a
            // thread dimension produces. The walk below is the
            // *model*-accurate variant: it establishes that the
            // information transferred is O(present), which is what the
            // counted runs (and Theorem 1's corpus checks) measure. A
            // flat clock on either side has no links to walk.
            return self.replicate::<COUNT>(other);
        }
        let mut stats = OpStats::NOOP;
        let Some(zp) = other.root_idx() else {
            // Copying an empty clock is just a (counted) clear.
            let shape = self.store.unique(self.root, self.root_time);
            Self::clear_tree_in::<COUNT>(shape, self.root, None, &mut stats);
            self.root = NIL;
            self.root_time = 0;
            return stats;
        };

        // Phase 1: walk `other`'s tree (preorder, via a cursor into the
        // scratch stack), comparing against self's *old* values.
        let old_root = self.root;
        let shape = self.store.unique(old_root, self.root_time);
        let src = other.shape();
        with_scratch(|s| {
            let gathered = &mut s.gather;
            gathered.push(zp);
            let mut max_idx = zp;
            let mut cursor = 0;
            while cursor < gathered.len() {
                let u = gathered[cursor];
                cursor += 1;
                max_idx = max_idx.max(u);
                if COUNT {
                    stats.examined += 1;
                    if shape.time(u) != other.get_idx(u) {
                        stats.changed += 1;
                    }
                    stats.moved += 1;
                }
                let mut c = src.nodes[u as usize].head_child;
                while c != NIL {
                    gathered.push(c);
                    c = src.nodes[c as usize].next_sib;
                }
            }

            // Phase 2: tear down self's old tree. Entries present in
            // self but not in other drop back to 0; they are the only
            // old entries phase 1 has not already examined.
            Self::clear_tree_in::<COUNT>(shape, old_root, Some(other), &mut stats);

            // Phase 3: materialize other's nodes. Links can be copied
            // verbatim — they only reference present nodes of `other`,
            // all of which are in `gathered`.
            shape.ensure_len(max_idx as usize + 1);
            for &u in gathered.iter() {
                let u = u as usize;
                shape.nodes[u] = src.nodes[u];
                shape.clks[u] = src.clks[u];
            }
        });
        shape.clks[zp as usize] = other.root_time;
        shape.num_present = src.num_present;
        self.root = zp;
        self.root_time = other.root_time;
        self.store.settle();

        debug_assert_eq!(self.check_invariants(), Ok(()));
        stats
    }

    /// The wholesale copy: makes `self` a replica of `other`, sharing a
    /// shared shape on the timed path and copying the arrays otherwise,
    /// so the destination takes the source's shape, tree or flat. When
    /// `COUNT`, every entry of the wider clock counts as examined, and
    /// `changed` (and `moved`) count the entries whose value differs.
    pub(crate) fn replicate<const COUNT: bool>(&mut self, other: &TreeClock) -> OpStats {
        let mut stats = OpStats::NOOP;
        if COUNT {
            let changed = count_diffs(self.times(), other.times());
            let examined = self.num_threads().max(other.num_threads()) as u64;
            stats = OpStats::new(examined, changed, changed);
        }
        if COUNT || !self.share(other) {
            self.copy_arrays(other);
        }
        self.streak = 0;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        stats
    }

    /// Iteratively dismantles a clock's tree in O(present) time and
    /// O(1) space (descending head-child chains, unlinking leaves),
    /// resetting every visited node and local time. Operates on the
    /// unique shape directly so callers can hold other disjoint
    /// borrows; the caller resets its root.
    ///
    /// When `COUNT`, accounts entries *not* present in `keep_counts_of`
    /// (they were not examined by the caller's own walk): each costs one
    /// `examined`, and one `changed` if its time drops from nonzero to 0.
    fn clear_tree_in<const COUNT: bool>(
        shape: &mut Shape,
        root: u32,
        keep_counts_of: Option<&TreeClock>,
        stats: &mut OpStats,
    ) {
        let Shape { clks, nodes, .. } = shape;
        let mut cur = root;
        while cur != NIL {
            let head = nodes[cur as usize].head_child;
            if head != NIL {
                cur = head;
                continue;
            }
            let Node {
                parent,
                next_sib: next,
                ..
            } = nodes[cur as usize];
            if COUNT && !keep_counts_of.is_some_and(|o| o.shape().is_present(cur)) {
                stats.examined += 1;
                if clks[cur as usize] != 0 {
                    stats.changed += 1;
                }
            }
            nodes[cur as usize] = Node::default();
            clks[cur as usize] = 0;
            if parent == NIL {
                break; // the root is always dismantled last
            }
            // `cur` was its parent's head child (we always descend the
            // head chain), so the sibling list shrinks from the front.
            nodes[parent as usize].head_child = next;
            cur = parent;
        }
        shape.num_present = 0;
    }

    // ---- inspection --------------------------------------------------

    /// Returns a snapshot of the node for thread `t`, or `None` if the
    /// thread is not in the tree (always, for a flat clock: it keeps no
    /// nodes).
    pub fn node(&self, t: ThreadId) -> Option<NodeView> {
        let n = self.shape().nodes.get(t.index())?;
        if !n.present() {
            return None;
        }
        Some(NodeView {
            tid: t,
            clk: self.get_idx(t.raw()),
            aclk: if n.parent == NIL { 0 } else { n.aclk },
            parent: if n.parent == NIL {
                None
            } else {
                Some(ThreadId::new(n.parent))
            },
        })
    }

    /// Returns the children of thread `t`'s node, front (largest
    /// attachment clock) to back.
    pub fn children(&self, t: ThreadId) -> Vec<ThreadId> {
        let nodes = &self.shape().nodes;
        let mut out = Vec::new();
        let Some(n) = nodes.get(t.index()) else {
            return out;
        };
        if !n.present() {
            return out;
        }
        let mut c = n.head_child;
        while c != NIL {
            out.push(ThreadId::new(c));
            c = nodes[c as usize].next_sib;
        }
        out
    }

    /// Number of threads present in the tree (O(1): maintained
    /// incrementally); 0 for a flat clock, which keeps no nodes.
    pub fn node_count(&self) -> usize {
        let shape = self.shape();
        debug_assert_eq!(
            shape.num_present as usize,
            shape.nodes.iter().filter(|s| s.present()).count(),
            "num_present counter out of sync"
        );
        shape.num_present as usize
    }

    // ---- construction from explicit structure ------------------------

    /// Builds a tree clock from an explicit node list, for tests and
    /// benchmarks that replay shapes from the paper's figures.
    ///
    /// Each entry is `(tid, clk, parent)` where `parent` is
    /// `None` for the root and `Some((parent_tid, aclk))` otherwise.
    /// Children end up in the child list in the order given (which must
    /// be descending in `aclk`, as the data structure maintains).
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] if the description is not a
    /// well-formed tree clock (duplicate threads, missing/cyclic parents,
    /// unordered sibling lists, …).
    pub fn from_structure(nodes: &[NodeDescriptor]) -> Result<TreeClock, InvariantViolation> {
        let mut shape = Shape::default();
        let mut root = NIL;
        for &(tid, clk, parent) in nodes {
            shape.ensure_len(tid.index() + 1);
            if shape.nodes[tid.index()].present() {
                return Err(InvariantViolation::new(format!(
                    "duplicate node for thread {tid}"
                )));
            }
            shape.clks[tid.index()] = clk;
            shape.num_present += 1;
            match parent {
                None => {
                    if root != NIL {
                        return Err(InvariantViolation::new("two roots specified"));
                    }
                    shape.nodes[tid.index()].parent = NIL;
                    root = tid.raw();
                }
                Some((p, aclk)) => {
                    if !shape.is_present(p.raw()) {
                        return Err(InvariantViolation::new(format!(
                            "parent {p} of {tid} not defined before its child"
                        )));
                    }
                    let links = &mut shape.nodes;
                    links[tid.index()].aclk = aclk;
                    // Append at the *back* so the input order becomes the
                    // front-to-back child order.
                    let mut tail = links[p.index()].head_child;
                    if tail == NIL {
                        Self::push_child_in(links, tid.raw(), p.raw());
                    } else {
                        while links[tail as usize].next_sib != NIL {
                            tail = links[tail as usize].next_sib;
                        }
                        links[tail as usize].next_sib = tid.raw();
                        links[tid.index()].prev_sib = tail;
                        links[tid.index()].parent = p.raw();
                    }
                }
            }
        }
        let tc = TreeClock::from_shape(shape, root);
        tc.check_invariants()?;
        Ok(tc)
    }
}

impl LogicalClock for TreeClock {
    const NAME: &'static str = "tree";

    fn new() -> Self {
        TreeClock::new()
    }

    fn with_threads(threads: usize) -> Self {
        let mut shape = Shape::default();
        shape.ensure_len(threads);
        TreeClock::from_shape(shape, NIL)
    }

    fn init_root(&mut self, t: ThreadId) {
        assert!(
            self.root == NIL,
            "TreeClock::init_root: clock already initialized"
        );
        let shape = self.store.unique(NIL, 0);
        shape.ensure_len(t.index() + 1);
        shape.nodes[t.index()].parent = NIL;
        shape.clks[t.index()] = 0;
        shape.num_present += 1;
        self.root = t.raw();
        self.root_time = 0;
        self.store.settle();
    }

    fn root_tid(&self) -> Option<ThreadId> {
        self.root_idx().map(ThreadId::new)
    }

    #[inline]
    fn get(&self, t: ThreadId) -> LocalTime {
        self.get_idx(t.raw())
    }

    fn increment(&mut self, amount: LocalTime) {
        assert!(
            self.root != NIL,
            "TreeClock::increment: clock has no root thread"
        );
        self.store.increment(self.root, &mut self.root_time, amount);
    }

    /// O(1) root-entry comparison (the paper's `LessThan`); see the
    /// trait documentation for the validity contract.
    fn leq(&self, other: &Self) -> bool {
        self.root == NIL || self.root_time <= other.get_idx(self.root)
    }

    fn join(&mut self, other: &Self) {
        self.join_impl::<false>(other);
    }

    fn join_counted(&mut self, other: &Self) -> OpStats {
        self.join_impl::<true>(other)
    }

    /// A wide source's shape is shared as soon as the precondition's
    /// root check passes, ahead of the rest of the copy's bookkeeping:
    /// a release into a lock clock is an `Arc` clone.
    fn monotone_copy(&mut self, other: &Self) {
        let ordered = self.root == NIL || self.root_time <= other.get_idx(self.root);
        if !(ordered && other.root != NIL && self.share(other)) {
            self.monotone_copy_impl::<false>(other);
        }
    }

    fn monotone_copy_counted(&mut self, other: &Self) -> OpStats {
        self.monotone_copy_impl::<true>(other)
    }

    fn copy_check_monotone(&mut self, other: &Self) -> CopyMode {
        if self.leq(other) {
            self.monotone_copy_impl::<false>(other);
            CopyMode::Monotone
        } else {
            self.clone_structure_from::<false>(other);
            CopyMode::Deep
        }
    }

    fn copy_check_monotone_counted(&mut self, other: &Self) -> (CopyMode, OpStats) {
        if self.leq(other) {
            (CopyMode::Monotone, self.monotone_copy_impl::<true>(other))
        } else {
            (CopyMode::Deep, self.clone_structure_from::<true>(other))
        }
    }

    fn vector_time(&self) -> VectorTime {
        let mut times = Vec::new();
        self.times().write_into(&mut times);
        VectorTime::from(times)
    }

    fn is_empty(&self) -> bool {
        self.root == NIL
    }

    fn num_threads(&self) -> usize {
        self.shape().clks.len()
    }

    /// Re-materializes the clock from a checkpointed value as the star
    /// shape (every known thread directly under the root), the same
    /// O(arena) construction a flat clock turning back into a tree uses.
    fn restore_value(&mut self, times: &[LocalTime], root: Option<ThreadId>) {
        assert!(
            self.root == NIL,
            "TreeClock::restore_value: destination must be empty"
        );
        let Some(r) = root else {
            assert!(
                times.iter().all(|&t| t == 0),
                "TreeClock::restore_value: a rootless clock must be all-zero"
            );
            return;
        };
        let root = r.raw();
        let shape = self.store.unique(NIL, 0);
        shape.ensure_len(times.len().max(root as usize + 1));
        shape.clks[..times.len()].copy_from_slice(times);
        // Entries past `times.len()` were zeroed by the teardown that
        // emptied this clock; nothing to reset.
        Self::rebuild_star(shape, root);
        self.root = root;
        self.root_time = shape.clks[root as usize];
        self.store.settle();
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Sparse reset: dismantles the tree in O(present) time, keeping
    /// the arena buffers for reuse (e.g. via a
    /// [`ClockPool`](crate::pool::ClockPool)). A flat clock truncates
    /// its times and becomes an empty tree. A shape other clocks still
    /// share is let go instead, so a parked clock's
    /// [`heap_bytes`](LogicalClock::heap_bytes) never changes when
    /// those clocks drop theirs.
    fn clear(&mut self) {
        if let Some(shape) = self.store.owned() {
            if shape.is_flat() {
                shape.clks.clear();
            } else {
                let mut ignored = OpStats::NOOP;
                Self::clear_tree_in::<false>(shape, self.root, None, &mut ignored);
            }
        }
        self.root = NIL;
        self.root_time = 0;
        // A recycled clock starts a fresh life: do not let a previous
        // role's density profile steer its shape.
        self.streak = 0;
    }

    fn reserve_threads(&mut self, threads: usize) {
        if threads > self.num_threads() {
            self.store
                .unique(self.root, self.root_time)
                .ensure_len(threads);
            self.store.settle();
        }
    }

    /// A shape shared by `n` clocks counts `1/n` of its bytes toward
    /// each.
    fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
    }

    #[inline]
    fn copies_by_sharing(&self) -> bool {
        self.store.is_shared()
    }
}

impl Default for TreeClock {
    /// Same as [`TreeClock::new`]. (A derived `Default` would zero the
    /// root index, which is a valid thread id, not the `NIL` sentinel —
    /// the clock would silently claim thread 0 as its root.)
    fn default() -> Self {
        TreeClock::new()
    }
}

impl PartialEq for TreeClock {
    /// Two tree clocks are equal when they represent the same *vector
    /// time*; the tree shapes may differ. This is an O(k) comparison.
    fn eq(&self, other: &Self) -> bool {
        let n = self.num_threads().max(other.num_threads());
        (0..n as u32).all(|i| self.get_idx(i) == other.get_idx(i))
    }
}

impl Eq for TreeClock {}
