//! Structural invariant checking for [`TreeClock`].
//!
//! The checker verifies every property the algorithms rely on; it runs
//! inside `debug_assert!` after each mutating operation and is exercised
//! heavily by the property-based tests.

use std::error::Error;
use std::fmt;

use crate::LocalTime;

use super::node::NIL;
use super::TreeClock;

/// A violated [`TreeClock`] structural invariant (also returned by
/// [`TreeClock::from_structure`] for malformed descriptions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    message: String,
}

impl InvariantViolation {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        InvariantViolation {
            message: message.into(),
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tree clock invariant violated: {}", self.message)
    }
}

impl Error for InvariantViolation {}

impl TreeClock {
    /// Checks every structural invariant of the tree clock:
    ///
    /// 1. an empty clock has no present nodes and root time 0;
    /// 2. the root is present and has no parent and no attachment clock
    ///    semantics;
    /// 3. parent/child/sibling links are mutually consistent;
    /// 4. every present node is reachable from the root exactly once (no
    ///    cycles, no orphans), and the present count matches;
    /// 5. each child list is sorted by non-increasing attachment clock,
    ///    and every attachment clock is at most the parent's clock;
    /// 6. absent slots carry no stale time;
    /// 7. an inline shape is at most the sharing width wide and its root
    ///    entry equals the root time; a shared shape's root entry is at
    ///    most the root time, and the clock holds no inline shape beside
    ///    it;
    /// 8. a flat shape (times without links) belongs to a rooted clock
    ///    and keeps no links and no present count; only 7 applies to it.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let shape = self.shape();
        let nodes = &shape.nodes;
        let present_count = nodes.iter().filter(|s| s.present()).count();
        if present_count != shape.num_present as usize {
            return Err(InvariantViolation::new(format!(
                "{present_count} nodes present but the present count says {}",
                shape.num_present
            )));
        }
        self.store.check().map_err(InvariantViolation::new)?;
        let inline = !self.store.is_shared();
        if shape.is_flat() {
            if !nodes.is_empty() || shape.num_present != 0 {
                return Err(InvariantViolation::new(format!(
                    "a flat shape of {} times keeps {} links and a present count of {}",
                    shape.clks.len(),
                    nodes.len(),
                    shape.num_present
                )));
            }
            let root = self
                .root_idx()
                .ok_or_else(|| InvariantViolation::new("an empty clock is flat"))?;
            let entry = *shape
                .clks
                .get(root as usize)
                .ok_or_else(|| InvariantViolation::new("flat root index out of bounds"))?;
            return check_root_entry(entry, self.root_time, inline);
        }
        let Some(root) = self.root_idx() else {
            if present_count != 0 {
                return Err(InvariantViolation::new(format!(
                    "empty clock (no root) but {present_count} nodes present"
                )));
            }
            if self.root_time != 0 {
                return Err(InvariantViolation::new("empty clock has a root time"));
            }
            return Ok(());
        };

        let root_slot = nodes
            .get(root as usize)
            .ok_or_else(|| InvariantViolation::new("root index out of bounds"))?;
        if !root_slot.present() {
            return Err(InvariantViolation::new("root node is not present"));
        }
        if root_slot.parent != NIL {
            return Err(InvariantViolation::new("root node has a parent"));
        }
        check_root_entry(shape.clks[root as usize], self.root_time, inline)?;

        for (i, slot) in nodes.iter().enumerate() {
            if !slot.present() && shape.clks[i] != 0 {
                return Err(InvariantViolation::new(format!(
                    "absent slot {i} has non-zero time {}",
                    shape.clks[i]
                )));
            }
        }

        // Iterative DFS from the root, checking link consistency.
        let mut visited = vec![false; nodes.len()];
        let mut stack = vec![root];
        let mut reached = 0usize;
        while let Some(u) = stack.pop() {
            let iu = u as usize;
            if visited[iu] {
                return Err(InvariantViolation::new(format!(
                    "node t{u} reached twice (cycle or shared child)"
                )));
            }
            visited[iu] = true;
            reached += 1;
            let node = &nodes[iu];
            let node_clk = self.get_idx(u);
            let mut child = node.head_child;
            let mut prev = NIL;
            let mut prev_aclk = None::<u32>;
            while child != NIL {
                let c = nodes
                    .get(child as usize)
                    .ok_or_else(|| InvariantViolation::new("child index out of bounds"))?;
                if !c.present() {
                    return Err(InvariantViolation::new(format!(
                        "node t{u} links to absent child t{child}"
                    )));
                }
                if c.parent != u {
                    return Err(InvariantViolation::new(format!(
                        "child t{child} of t{u} has parent link t{}",
                        c.parent
                    )));
                }
                if c.prev_sib != prev {
                    return Err(InvariantViolation::new(format!(
                        "child t{child} of t{u} has wrong prev_sib"
                    )));
                }
                if c.aclk > node_clk {
                    return Err(InvariantViolation::new(format!(
                        "child t{child} attached at {} but parent t{u} is only at {}",
                        c.aclk, node_clk
                    )));
                }
                if let Some(pa) = prev_aclk {
                    if c.aclk > pa {
                        return Err(InvariantViolation::new(format!(
                            "children of t{u} not in descending attachment order \
                             ({} after {})",
                            c.aclk, pa
                        )));
                    }
                }
                prev_aclk = Some(c.aclk);
                stack.push(child);
                prev = child;
                child = c.next_sib;
            }
        }
        if reached != present_count {
            return Err(InvariantViolation::new(format!(
                "{present_count} nodes present but only {reached} reachable from root"
            )));
        }
        Ok(())
    }
}

/// An inline shape's root entry equals the root time; a shared one's
/// may lag behind it.
fn check_root_entry(
    entry: LocalTime,
    root_time: LocalTime,
    inline: bool,
) -> Result<(), InvariantViolation> {
    if entry > root_time || (inline && entry != root_time) {
        return Err(InvariantViolation::new(format!(
            "root entry {entry} disagrees with the root time {root_time}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogicalClock, ThreadId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn empty_clock_is_valid() {
        assert_eq!(TreeClock::new().check_invariants(), Ok(()));
    }

    #[test]
    fn initialized_clock_is_valid() {
        let mut tc = TreeClock::new();
        tc.init_root(t(3));
        tc.increment(2);
        assert_eq!(tc.check_invariants(), Ok(()));
    }

    #[test]
    fn from_structure_rejects_two_roots() {
        let err = TreeClock::from_structure(&[(t(0), 1, None), (t(1), 1, None)]).unwrap_err();
        assert!(err.to_string().contains("two roots"));
    }

    #[test]
    fn from_structure_rejects_duplicate_threads() {
        let err = TreeClock::from_structure(&[
            (t(0), 3, None),
            (t(1), 1, Some((t(0), 1))),
            (t(1), 2, Some((t(0), 2))),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn from_structure_rejects_aclk_beyond_parent_clock() {
        let err =
            TreeClock::from_structure(&[(t(0), 3, None), (t(1), 1, Some((t(0), 5)))]).unwrap_err();
        assert!(err.to_string().contains("attached at 5"));
    }

    #[test]
    fn from_structure_rejects_unordered_child_list() {
        let err = TreeClock::from_structure(&[
            (t(0), 9, None),
            (t(1), 1, Some((t(0), 2))),
            (t(2), 1, Some((t(0), 7))), // larger aclk listed after smaller
        ])
        .unwrap_err();
        assert!(err.to_string().contains("descending"));
    }

    #[test]
    fn from_structure_accepts_paper_figure_3_left() {
        // Figure 3 (left): t4's clock after e7 in the trace of Figure 2a.
        let tc = TreeClock::from_structure(&[
            (t(4), 2, None),
            (t(3), 2, Some((t(4), 2))),
            (t(2), 2, Some((t(4), 1))),
            (t(1), 1, Some((t(2), 1))),
        ])
        .unwrap();
        assert_eq!(tc.get(t(4)), 2);
        assert_eq!(tc.get(t(1)), 1);
        assert_eq!(tc.children(t(4)), vec![t(3), t(2)]);
        assert_eq!(tc.children(t(2)), vec![t(1)]);
    }

    #[test]
    fn violation_formats_with_context() {
        let v = InvariantViolation::new("boom");
        assert_eq!(v.to_string(), "tree clock invariant violated: boom");
    }
}
