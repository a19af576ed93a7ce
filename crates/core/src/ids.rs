//! Thread and transaction identifiers.
//!
//! The paper names states with tuples such as `{<a1b2c3>, <d4>}`, where a
//! letter is a *statically numbered transaction site* (`a` = transaction 0)
//! and the digit is the thread that executed it. [`Pair`] is that atom: one
//! `<txn,thread>` element of a state tuple.

use std::fmt;

/// Identifier of a worker thread participating in transactional execution.
///
/// Thread ids are small dense integers assigned at registration time
/// (thread 0, thread 1, ...), matching the paper's notation where e.g. `b7`
/// means "transaction `b` executed by thread 7".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u16);

/// Identifier of a static transaction site.
///
/// In the paper each `TM_BEGIN` in the source is statically numbered by a
/// script; in this reproduction each benchmark assigns its atomic blocks
/// dense ids starting at 0. Transaction 0 displays as `a`, 1 as `b`, etc.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u16);

impl ThreadId {
    /// Raw numeric value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render small transaction ids as letters like the paper (`a`..`z`),
        // falling back to `t<N>` beyond that.
        if self.0 < 26 {
            write!(f, "{}", (b'a' + self.0 as u8) as char)
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

/// One `<transaction, thread>` element of a thread transactional state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pair {
    /// The static transaction site being executed.
    pub txn: TxnId,
    /// The thread executing it.
    pub thread: ThreadId,
}

impl Pair {
    /// Build a pair from a transaction site and a thread.
    #[inline]
    pub fn new(txn: TxnId, thread: ThreadId) -> Self {
        Pair { txn, thread }
    }

    /// Pack into a single `u32` (transaction in the high half). Used as a
    /// compact key by the guidance engine's per-state membership sets.
    #[inline]
    pub fn packed(self) -> u32 {
        ((self.txn.0 as u32) << 16) | self.thread.0 as u32
    }

    /// Inverse of [`Pair::packed`].
    #[inline]
    pub(crate) fn from_packed(raw: u32) -> Self {
        Pair {
            txn: TxnId((raw >> 16) as u16),
            thread: ThreadId((raw & 0xffff) as u16),
        }
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.txn, self.thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let p = Pair::new(TxnId(3), ThreadId(6));
        assert_eq!(p.to_string(), "d6");
        assert_eq!(Pair::new(TxnId(0), ThreadId(0)).to_string(), "a0");
        assert_eq!(Pair::new(TxnId(26), ThreadId(1)).to_string(), "t261");
    }

    #[test]
    fn packing_round_trips() {
        for txn in [0u16, 1, 25, 26, 1000, u16::MAX] {
            for th in [0u16, 1, 7, 15, u16::MAX] {
                let p = Pair::new(TxnId(txn), ThreadId(th));
                assert_eq!(Pair::from_packed(p.packed()), p);
            }
        }
    }

    #[test]
    fn ordering_is_txn_major() {
        let a = Pair::new(TxnId(1), ThreadId(9));
        let b = Pair::new(TxnId(2), ThreadId(0));
        assert!(a < b);
        assert!(a.packed() < b.packed());
    }
}
