//! Rendering of tree clocks in the paper's `(tid, clk, aclk)` notation.

use std::fmt;

use crate::LogicalClock;

use super::node::NIL;
use super::TreeClock;

impl TreeClock {
    /// Writes a flat clock rooted at `r` as the star of its known
    /// threads.
    fn fmt_star(&self, f: &mut fmt::Formatter<'_>, r: u32) -> fmt::Result {
        let root_time = self.get_idx(r);
        write!(f, "(t{r}, {root_time}, ⊥)")?;
        let mut known = (0..self.num_threads() as u32)
            .filter(|&i| i != r)
            .map(|i| (i, self.get_idx(i)))
            .filter(|&(_, clk)| clk > 0)
            .peekable();
        if known.peek().is_none() {
            return Ok(());
        }
        write!(f, "[")?;
        for (n, (i, clk)) in known.enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(t{i}, {clk}, {root_time})")?;
        }
        write!(f, "]")
    }

    /// Writes the subtree rooted at `u` as `(t, clk, aclk)[children…]`.
    fn fmt_subtree(&self, f: &mut fmt::Formatter<'_>, u: u32, is_root: bool) -> fmt::Result {
        let nodes = &self.shape().nodes;
        let n = &nodes[u as usize];
        let clk = self.get_idx(u);
        if is_root {
            write!(f, "(t{u}, {clk}, ⊥)")?;
        } else {
            write!(f, "(t{u}, {clk}, {})", n.aclk)?;
        }
        if n.head_child != NIL {
            write!(f, "[")?;
            let mut c = n.head_child;
            let mut first = true;
            while c != NIL {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                self.fmt_subtree(f, c, false)?;
                c = nodes[c as usize].next_sib;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Single-line rendering in the paper's node notation, e.g.
/// `(t2, 4, ⊥)[(t3, 6, 3)[(t4, 3, 5), (t1, 2, 1), (t5, 2, 2)]]`
/// (the tree of Figure 11b after event e16). A flat clock renders as
/// the star it would become as a tree: every known thread under the
/// root, attached at the root's time, in thread order.
impl fmt::Display for TreeClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.root_idx() {
            None => write!(f, "(empty)"),
            Some(r) if self.is_flat() => self.fmt_star(f, r),
            Some(r) => self.fmt_subtree(f, r, true),
        }
    }
}

impl fmt::Debug for TreeClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TreeClock{{{self}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogicalClock, ThreadId};

    #[test]
    fn empty_clock_displays_nonempty_text() {
        // C-DEBUG-NONEMPTY: even conceptually empty values render text.
        assert_eq!(TreeClock::new().to_string(), "(empty)");
        assert_eq!(format!("{:?}", TreeClock::new()), "TreeClock{(empty)}");
    }

    #[test]
    fn nested_tree_renders_in_paper_notation() {
        let t = ThreadId::new;
        let tc = TreeClock::from_structure(&[
            (t(4), 2, None),
            (t(3), 2, Some((t(4), 2))),
            (t(2), 2, Some((t(4), 1))),
            (t(1), 1, Some((t(2), 1))),
        ])
        .unwrap();
        assert_eq!(
            tc.to_string(),
            "(t4, 2, ⊥)[(t3, 2, 2), (t2, 2, 1)[(t1, 1, 1)]]"
        );
    }

    #[test]
    fn single_node_has_no_bracket_suffix() {
        let mut tc = TreeClock::new();
        tc.init_root(ThreadId::new(0));
        tc.increment(4);
        assert_eq!(tc.to_string(), "(t0, 4, ⊥)");
    }
}
