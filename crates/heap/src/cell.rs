//! Heap cells: the closure state machine.

use crate::args::Args;
use crate::noderef::{NodeRef, ScId};
use crate::value::Value;
use rph_trace::ThreadId;

/// One heap closure. The lifecycle is:
///
/// ```text
///   Thunk ──enter──▶ BlackHole ──update──▶ Value
///     │                  ▲                  (or Ind ▶ Value elsewhere)
///     └── lazy black-holing: entered thunks are only turned into
///         BlackHoles at the next context switch (paper §IV.A.3), so a
///         Thunk may be under evaluation by one or more threads.
/// ```
///
/// `Ind` cells are the indirections an update leaves behind when the
/// result already lives elsewhere; the heap short-circuits them on
/// access and the collector elides them, like GHC's `IND` closures.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A suspended saturated application of supercombinator `sc`.
    Thunk { sc: ScId, args: Args },
    /// Under evaluation. `blocked` holds the threads suspended on this
    /// node, woken (in FIFO order) by the update.
    BlackHole { blocked: Vec<ThreadId> },
    /// Weak head normal form.
    Value(Value),
    /// Indirection to another cell.
    Ind(NodeRef),
    /// A freed slot (member of the free list). Never reachable.
    Free,
}

// The arena is a `Vec<Cell>`: a bigger cell is a bigger simulated heap
// on the host, on every run.
const _: () = assert!(std::mem::size_of::<Cell>() == 32);

impl Cell {
    /// Heap size in words of this cell as allocated.
    pub fn words(&self) -> u64 {
        match self {
            Cell::Thunk { args, .. } => 2 + args.len() as u64,
            // A black hole overwrites the thunk in place.
            Cell::BlackHole { .. } => 2,
            Cell::Value(v) => v.words(),
            Cell::Ind(_) => 2,
            Cell::Free => 0,
        }
    }

    /// True for cells already in WHNF.
    pub fn is_whnf(&self) -> bool {
        matches!(self, Cell::Value(_))
    }

    /// Collect child references (for marking / copying).
    pub fn push_children(&self, out: &mut Vec<NodeRef>) {
        match self {
            Cell::Thunk { args, .. } => out.extend_from_slice(args),
            Cell::Value(v) => v.push_children(out),
            Cell::Ind(target) => out.push(*target),
            Cell::BlackHole { .. } | Cell::Free => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words() {
        let t = Cell::Thunk {
            sc: ScId(0),
            args: vec![NodeRef(1), NodeRef(2)].into(),
        };
        assert_eq!(t.words(), 4);
        assert_eq!(Cell::Ind(NodeRef(0)).words(), 2);
        assert_eq!(Cell::Free.words(), 0);
    }

    #[test]
    fn children() {
        let mut buf = Vec::new();
        Cell::Thunk {
            sc: ScId(0),
            args: vec![NodeRef(5)].into(),
        }
        .push_children(&mut buf);
        assert_eq!(buf, vec![NodeRef(5)]);
        buf.clear();
        // Argument order survives both the inline and the spilled form.
        for n in [crate::Args::INLINE, crate::Args::INLINE + 1] {
            let args: Vec<NodeRef> = (0..n as u32).map(|i| NodeRef(10 - i)).collect();
            let t = Cell::Thunk {
                sc: ScId(0),
                args: args.clone().into(),
            };
            assert_eq!(t.words(), 2 + n as u64);
            t.push_children(&mut buf);
            assert_eq!(buf, args);
            buf.clear();
        }
        Cell::Ind(NodeRef(9)).push_children(&mut buf);
        assert_eq!(buf, vec![NodeRef(9)]);
        buf.clear();
        Cell::BlackHole {
            blocked: vec![ThreadId(1)],
        }
        .push_children(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn whnf() {
        assert!(Cell::Value(Value::Int(1)).is_whnf());
        assert!(!Cell::Ind(NodeRef(0)).is_whnf());
    }
}
