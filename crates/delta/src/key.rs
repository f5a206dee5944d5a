//! Group keys and nonces.
//!
//! DELTA keys are XOR-composable bit strings. In the simulation they are
//! 64-bit values; the *accounted* width (the paper's `b` parameter, 16 bits
//! in the evaluation) only matters for the overhead formulas in
//! [`crate::overhead`]. The paper's security argument (§4.2 "Protection
//! against attacks on DELTA") is that keys and components have equal width,
//! so guessing a missing component is exactly as hard as guessing the key.

use mcc_simcore::DetRng;
use std::fmt;
use std::ops::BitXor;

/// The key/component width used by the paper's evaluation (bits).
pub const PAPER_KEY_BITS: u32 = 16;

/// Slots between a key announcement and the subscription it authorizes:
/// keys announced (and reconstructed) in slot `s` authorize slot
/// `s + KEY_LEAD` (paper §3.2.2).
pub const KEY_LEAD: u64 = 2;

/// A group key, decrease nonce, or per-packet component.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Key(pub u64);

impl Key {
    /// The all-zero key (identity of XOR).
    pub const ZERO: Key = Key(0);

    /// Draw a fresh random nonce.
    pub fn nonce(rng: &mut DetRng) -> Key {
        Key(rng.next_u64())
    }

    /// XOR-accumulate another key/component.
    pub(crate) fn xor(self, other: Key) -> Key {
        Key(self.0 ^ other.0)
    }
}

impl BitXor for Key {
    type Output = Key;
    fn bitxor(self, rhs: Key) -> Key {
        self.xor(rhs)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:016x})", self.0)
    }
}

/// XOR of an iterator of keys.
pub(crate) fn xor_all<I: IntoIterator<Item = Key>>(keys: I) -> Key {
    keys.into_iter().fold(Key::ZERO, Key::xor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_identity_and_involution() {
        let mut rng = DetRng::new(1);
        let k = Key::nonce(&mut rng);
        assert_eq!(k ^ Key::ZERO, k);
        assert_eq!(k ^ k, Key::ZERO);
    }

    #[test]
    fn xor_all_folds() {
        let a = Key(0b1010);
        let b = Key(0b0110);
        let c = Key(0b0001);
        assert_eq!(xor_all([a, b, c]), Key(0b1101));
        assert_eq!(xor_all(std::iter::empty()), Key::ZERO);
    }

    #[test]
    fn nonces_differ() {
        let mut rng = DetRng::new(2);
        let a = Key::nonce(&mut rng);
        let b = Key::nonce(&mut rng);
        assert_ne!(a, b);
    }
}
