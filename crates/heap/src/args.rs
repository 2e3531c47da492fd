//! Thunk argument lists, stored inline when short.

use crate::noderef::NodeRef;
use std::ops::Deref;

/// The argument list of a suspended application.
///
/// Entering a thunk copies its arguments out of the heap cell (the cell
/// may be overwritten by a black hole while they are in use), so with a
/// boxed slice every thunk entry was a host `malloc`/`free` pair — on
/// top of the one that built the thunk. Almost every supercombinator
/// takes at most [`Args::INLINE`] arguments; those live in the value
/// itself and only longer lists spill to the heap. A [`NodeRef`] is a
/// `u32`, so the inline form fits the space a `Box<[NodeRef]>` plus
/// padding took: `Cell` stays 32 bytes.
///
/// Dereferences to `[NodeRef]`; equality, ordering of elements and
/// `Debug` are the slice's.
#[derive(Clone)]
pub struct Args(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` are the arguments; the rest is padding.
    Inline {
        len: u8,
        buf: [NodeRef; Args::INLINE],
    },
    Spilled(Box<[NodeRef]>),
}

impl Args {
    /// Longest argument list stored without a host allocation.
    pub const INLINE: usize = 5;

    /// `Some` if `nodes` fits inline.
    fn inline(nodes: &[NodeRef]) -> Option<Self> {
        (nodes.len() <= Args::INLINE).then(|| {
            let mut buf = [NodeRef(0); Args::INLINE];
            buf[..nodes.len()].copy_from_slice(nodes);
            Args(Repr::Inline {
                len: nodes.len() as u8,
                buf,
            })
        })
    }
}

impl Deref for Args {
    type Target = [NodeRef];

    #[inline]
    fn deref(&self) -> &[NodeRef] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(nodes) => nodes,
        }
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl std::fmt::Debug for Args {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl From<Vec<NodeRef>> for Args {
    fn from(nodes: Vec<NodeRef>) -> Self {
        Args::inline(&nodes).unwrap_or_else(|| Args(Repr::Spilled(nodes.into())))
    }
}

impl From<Args> for Vec<NodeRef> {
    fn from(args: Args) -> Self {
        match args.0 {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Spilled(nodes) => nodes.into_vec(),
        }
    }
}

impl FromIterator<NodeRef> for Args {
    /// Fills the inline buffer and moves to a `Vec` only when a sixth
    /// element arrives, so collecting a short list allocates nothing
    /// (also through `collect::<Result<Args, _>>()`).
    fn from_iter<I: IntoIterator<Item = NodeRef>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut buf = [NodeRef(0); Args::INLINE];
        let mut len = 0;
        for node in iter.by_ref() {
            if len == Args::INLINE {
                let mut spilled = Vec::with_capacity(2 * Args::INLINE + iter.size_hint().0);
                spilled.extend_from_slice(&buf);
                spilled.push(node);
                spilled.extend(iter);
                return Args(Repr::Spilled(spilled.into()));
            }
            buf[len] = node;
            len += 1;
        }
        Args(Repr::Inline {
            len: len as u8,
            buf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<NodeRef> {
        (0..n as u32).map(|i| NodeRef(i * 3 + 1)).collect()
    }

    fn is_inline(a: &Args) -> bool {
        matches!(a.0, Repr::Inline { .. })
    }

    /// Both sides of the inline/spill boundary, by every constructor.
    #[test]
    fn every_constructor_round_trips_at_every_length() {
        for n in [0, 1, Args::INLINE, Args::INLINE + 1, 40] {
            let want = nodes(n);
            let built = [
                Args::from(want.clone()),
                want.iter().copied().collect::<Args>(),
                // An iterator with no size hint.
                want.iter().copied().filter(|_| true).collect::<Args>(),
            ];
            for a in &built {
                assert_eq!(&**a, want.as_slice(), "n={n}");
                assert_eq!(a.len(), n);
                assert_eq!(is_inline(a), n <= Args::INLINE, "n={n}");
                assert_eq!(a.clone(), *a);
                assert_eq!(Vec::from(a.clone()), want);
                assert_eq!(format!("{a:?}"), format!("{want:?}"));
            }
        }
    }

    #[test]
    fn equality_is_the_slices() {
        assert_ne!(Args::from(nodes(3)), Args::from(nodes(4)));
        assert_ne!(Args::from(nodes(6)), Args::from(nodes(7)));
        let mut other = nodes(5);
        other[4] = NodeRef(999);
        assert_ne!(Args::from(nodes(5)), Args::from(other));
    }

    /// `collect::<Result<Args, _>>()` stops at the first error, inline
    /// and after spilling, and passes clean input through.
    #[test]
    fn collects_through_result() {
        let items = |n: u32, bad: Option<u32>| {
            (0..n).map(move |i| {
                if Some(i) == bad {
                    Err(i)
                } else {
                    Ok(NodeRef(i))
                }
            })
        };
        for n in [0, 5, 6, 40] {
            let ok: Result<Args, u32> = items(n, None).collect();
            let want: Vec<NodeRef> = (0..n).map(NodeRef).collect();
            assert_eq!(&*ok.unwrap(), want.as_slice());
        }
        for (n, bad) in [(5, 0), (5, 4), (6, 5), (40, 6), (40, 39)] {
            let got: Result<Args, u32> = items(n, Some(bad)).collect();
            assert_eq!(got, Err(bad), "n={n}");
        }
    }
}
