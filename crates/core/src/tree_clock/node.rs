//! Arena node representation for [`TreeClock`](crate::TreeClock).
//!
//! The paper's implementation represents a tree clock as "two arrays of
//! length k, the first one encoding the shape of the tree and the second
//! one encoding the integer timestamps". We follow that layout exactly:
//! the local times live in a dense `Vec<LocalTime>` (so `Get` and the
//! progress comparisons of a join touch the same compact memory a
//! vector clock would), while the tree shape lives in a parallel arena
//! of link [`Node`]s. Children form an intrusive doubly-linked list
//! ordered by descending attachment clock (`aclk`); pushing at the front
//! preserves the order because attachment times only grow.
//!
//! Membership is encoded in the parent link: [`ABSENT`] means the
//! thread is not in the tree (its time is 0), [`NIL`] marks the root.

/// Sentinel index meaning "no node" (the paper's `⊥`).
pub(crate) const NIL: u32 = u32::MAX;

/// Sentinel parent value meaning "this thread is not in the tree".
pub(crate) const ABSENT: u32 = u32::MAX - 1;

/// Tree links of one node; the thread id is the node's index in the
/// arena and its local time lives in the parallel `clks` array. `Copy`,
/// so copying a link array is a `memcpy`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    /// Attachment clock: the parent's local time when this node was
    /// attached (`u.aclk`); meaningless for the root.
    pub(crate) aclk: u32,
    /// Parent node index, [`NIL`] for the root, [`ABSENT`] if the
    /// thread is not part of the tree.
    pub(crate) parent: u32,
    /// First child (the child with the largest `aclk`), or [`NIL`].
    pub(crate) head_child: u32,
    /// Next sibling in descending-`aclk` order, or [`NIL`].
    pub(crate) next_sib: u32,
    /// Previous sibling, or [`NIL`] if this is the head child.
    pub(crate) prev_sib: u32,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            aclk: 0,
            parent: ABSENT,
            head_child: NIL,
            next_sib: NIL,
            prev_sib: NIL,
        }
    }
}

impl Node {
    /// Whether the thread is part of the tree.
    #[inline]
    pub(crate) fn present(&self) -> bool {
        self.parent != ABSENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_node_is_absent_and_unlinked() {
        let n = Node::default();
        assert!(!n.present());
        assert_eq!(n.parent, ABSENT);
        assert_eq!(n.head_child, NIL);
        assert_eq!(n.next_sib, NIL);
    }

    #[test]
    fn nodes_are_compact() {
        // The link arena is the "shape array" of the paper; keeping it
        // to five words preserves the cache behaviour the sublinear
        // operations rely on.
        assert_eq!(std::mem::size_of::<Node>(), 20);
    }

    #[test]
    fn tree_clocks_are_compact() {
        // A lock or last-write table holds one clock per materialized
        // id, so every byte of the clock header counts; the scratch
        // stacks of a walk belong to the OS thread, not the clock.
        assert!(std::mem::size_of::<crate::TreeClock>() <= 80);
    }
}
