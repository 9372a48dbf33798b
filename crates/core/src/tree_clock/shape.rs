//! The copy-on-write body of a [`TreeClock`](crate::TreeClock).
//!
//! The paper's implementation represents a tree clock as "two arrays of
//! length k": the local times and the tree links. Together with the
//! present-node count they form a [`Shape`]. A *flat* shape keeps only
//! the times: a dense clock drops its links (see the `tree_clock`
//! module). A clock wider than [`SHARED_WIDTH`] entries holds its shape,
//! tree or flat, in an [`Arc`], so a timed copy from it (a lock release,
//! a last-write publication) shares the shape in O(1) instead of copying
//! it. When the source next changes a shape it shares, a timed join
//! writes its result into a fresh flat shape in one pass
//! ([`Store::replace`]); other mutations copy the shape first
//! ([`Store::unique`]). Narrower clocks keep the shape inline: at their
//! size copying the arrays costs less than the indirection an `Arc`
//! would add to every read.
//!
//! The root thread's time is kept outside the shape, in the clock (see
//! `TreeClock::root_time`), so that `increment` never writes a shared
//! shape. An inline shape's root entry always equals that time. A
//! shared shape's root entry may lag behind it, so every read of a
//! root entry goes through the clock; each mutation first makes the
//! shape unique and writes the root's time back into it, or replaces
//! it with one written from the clock's value.

use std::sync::Arc;

use crate::LocalTime;

use super::node::Node;

/// Clocks whose arena is wider than this many entries hold their shape
/// in an [`Arc`]; narrower ones keep it inline.
pub(crate) const SHARED_WIDTH: usize = 64;

/// The clock's times, plus the tree's links and present count unless
/// the shape is flat.
#[derive(Clone, Debug, Default)]
pub(crate) struct Shape {
    /// Dense local times; `clks[i] == 0` also covers absent threads
    /// (the "timestamps array" of the paper's implementation).
    pub(crate) clks: Vec<LocalTime>,
    /// Tree links, parallel to `clks` (the "shape array"); empty in a
    /// flat shape.
    pub(crate) nodes: Vec<Node>,
    /// Number of present (in-tree) nodes, maintained incrementally so
    /// the sparse copy/clear paths and the adaptive fallback threshold
    /// are O(1) to size; 0 in a flat shape.
    pub(crate) num_present: u32,
}

impl Shape {
    /// The stored time of thread index `idx` (0 if absent).
    #[inline]
    pub(crate) fn time(&self, idx: u32) -> LocalTime {
        self.clks.get(idx as usize).copied().unwrap_or(0)
    }

    #[inline]
    pub(crate) fn is_present(&self, idx: u32) -> bool {
        self.nodes.get(idx as usize).is_some_and(|n| n.present())
    }

    /// Whether the shape is flat: times without links. A tree's two
    /// arrays always have the same length, and a flat shape belongs to
    /// a rooted clock, so its times are never empty.
    #[inline]
    pub(crate) fn is_flat(&self) -> bool {
        self.nodes.len() != self.clks.len()
    }

    /// Drops the links (keeping their buffer), leaving a flat shape.
    #[inline]
    pub(crate) fn drop_links(&mut self) {
        self.nodes.clear();
        self.num_present = 0;
    }

    /// Grows the times, and a tree's links, to at least `len` entries.
    #[inline]
    pub(crate) fn ensure_len(&mut self, len: usize) {
        if len > self.clks.len() {
            self.grow(len);
        }
    }

    #[cold]
    fn grow(&mut self, len: usize) {
        if !self.is_flat() {
            self.nodes.resize_with(len, Node::default);
        }
        self.clks.resize(len, 0);
    }

    /// Heap bytes of the arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.clks.capacity() * size_of::<LocalTime>() + self.nodes.capacity() * size_of::<Node>()
    }
}

/// Where a clock keeps its shape: inline, or behind an [`Arc`] that
/// other clocks may share. The inline shape sits at a fixed place in
/// the clock and is empty while the shape is shared, so a narrow
/// clock's lookups are the plain array access, and only a miss looks
/// at `shared`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Store {
    /// The shape while it is not shared; empty while it is.
    inline: Shape,
    /// The shape while it is shared. Its root entry may lag.
    shared: Option<Arc<Shape>>,
}

impl Store {
    /// A store for `shape`, inline unless it is wider than
    /// [`SHARED_WIDTH`].
    pub(crate) fn for_shape(shape: Shape) -> Store {
        let mut store = Store {
            inline: shape,
            shared: None,
        };
        store.settle();
        store
    }

    #[inline]
    pub(crate) fn get(&self) -> &Shape {
        match &self.shared {
            None => &self.inline,
            Some(shape) => shape,
        }
    }

    #[inline]
    pub(crate) fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// The time of thread index `idx` in a clock rooted at `root` with
    /// root time `root_time`.
    ///
    /// A shared store's inline shape is empty, so the inline lookup is
    /// the whole fast path: it finds every entry of a narrow clock (whose
    /// root entry is authoritative) and misses for a wide one.
    #[inline]
    pub(crate) fn time(&self, idx: u32, root: u32, root_time: LocalTime) -> LocalTime {
        match self.inline.clks.get(idx as usize) {
            Some(&t) => t,
            None => self.shared_time(idx, root, root_time),
        }
    }

    fn shared_time(&self, idx: u32, root: u32, root_time: LocalTime) -> LocalTime {
        match &self.shared {
            Some(_) if idx == root => root_time,
            Some(shape) => shape.time(idx),
            None => 0,
        }
    }

    /// Adds `amount` to the time of root `root`, kept in `root_time` and,
    /// for an inline shape, in its root entry. A shared shape is left
    /// alone: its root entry lags until the shape is made unique.
    #[inline]
    pub(crate) fn increment(&mut self, root: u32, root_time: &mut LocalTime, amount: LocalTime) {
        *root_time += amount;
        if let Some(entry) = self.inline.clks.get_mut(root as usize) {
            *entry = *root_time;
        }
    }

    /// Makes the shape unique, copying a shared one, and writes
    /// `root_time` into the root's entry (`root` is `NIL` for an empty
    /// clock).
    #[inline]
    pub(crate) fn unique(&mut self, root: u32, root_time: LocalTime) -> &mut Shape {
        match &mut self.shared {
            None => &mut self.inline,
            Some(shape) => unique_shared(shape, root, root_time),
        }
    }

    /// Whether changing the shape would first copy it, because another
    /// clock shares it.
    #[inline]
    pub(crate) fn shared_with_others(&self) -> bool {
        self.shared
            .as_ref()
            .is_some_and(|s| Arc::strong_count(s) > 1)
    }

    /// Makes the shape unique and flat, and writes `root_time` into the
    /// entry of root `root`. (A timed join replaces a shape other
    /// clocks share with a fresh flat one instead of copying it here.)
    pub(crate) fn flatten(&mut self, root: u32, root_time: LocalTime) {
        self.unique(root, root_time).drop_links();
    }

    /// Replaces a shared shape with `shape`, leaving the old one to the
    /// clocks that share it.
    pub(crate) fn replace(&mut self, shape: Shape) {
        debug_assert!(self.shared.is_some());
        self.shared = Some(Arc::new(shape));
    }

    /// Shares `other`'s shape if it is shared, dropping this clock's
    /// own; returns whether it did.
    #[inline]
    pub(crate) fn share(&mut self, other: &Store) -> bool {
        let Some(shape) = &other.shared else {
            return false;
        };
        self.shared = Some(Arc::clone(shape));
        self.inline = Shape::default();
        true
    }

    /// A shape to overwrite wholesale: the clock's own if no other
    /// clock shares it, otherwise a fresh inline one.
    #[inline]
    pub(crate) fn for_overwrite(&mut self) -> &mut Shape {
        if self.shared.is_none() {
            return &mut self.inline;
        }
        self.release_if_shared();
        match &mut self.shared {
            None => &mut self.inline,
            Some(shape) => Arc::get_mut(shape).expect("unique after release_if_shared"),
        }
    }

    /// Lets go of a shape other clocks still share, leaving the store
    /// empty and inline; returns whether it did.
    fn release_if_shared(&mut self) -> bool {
        let shared = self
            .shared
            .as_mut()
            .is_some_and(|s| Arc::get_mut(s).is_none());
        if shared {
            self.shared = None;
        }
        shared
    }

    /// The shape to clear for reuse, or `None` after letting go of a
    /// shape other clocks still share (the store is then empty and
    /// inline).
    pub(crate) fn owned(&mut self) -> Option<&mut Shape> {
        if self.release_if_shared() {
            None
        } else {
            Some(self.for_overwrite())
        }
    }

    /// Moves an inline shape that has grown wider than
    /// [`SHARED_WIDTH`] behind an [`Arc`].
    #[inline]
    pub(crate) fn settle(&mut self) {
        if self.shared.is_none() && self.inline.clks.len() > SHARED_WIDTH {
            self.shared = Some(Arc::new(std::mem::take(&mut self.inline)));
        }
    }

    /// Checks the store's own conditions: an inline shape is at most
    /// [`SHARED_WIDTH`] wide, and a shared store's inline shape is empty
    /// (the fast path of [`time`](Self::time) relies on it).
    pub(crate) fn check(&self) -> Result<(), String> {
        let inline = &self.inline;
        match &self.shared {
            None if inline.clks.len() > SHARED_WIDTH => Err(format!(
                "inline shape is {} wide, past the sharing width {SHARED_WIDTH}",
                inline.clks.len()
            )),
            Some(_) if !inline.clks.is_empty() || !inline.nodes.is_empty() => {
                Err("a shared shape with a non-empty inline shape beside it".to_string())
            }
            _ => Ok(()),
        }
    }

    /// This clock's share of the shape's heap bytes: a shape shared by
    /// `n` clocks counts `1/n` toward each.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.shared {
            None => self.inline.heap_bytes(),
            Some(shape) => shape.heap_bytes() / Arc::strong_count(shape),
        }
    }

    /// Whether both stores hold the same shared shape.
    pub(crate) fn shares_with(&self, other: &Store) -> bool {
        match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The shared arm of [`Store::unique`], kept out of line so the inline
/// arm stays a single branch in every caller.
#[inline(never)]
fn unique_shared(shape: &mut Arc<Shape>, root: u32, root_time: LocalTime) -> &mut Shape {
    let s = Arc::make_mut(shape);
    if let Some(entry) = s.clks.get_mut(root as usize) {
        *entry = root_time;
    }
    s
}
