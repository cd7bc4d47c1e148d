//! Small checked bit-manipulation helpers shared across the kernel.

/// Mask with the low `n` bits set.
///
/// The naive `(1u64 << n) - 1` is undefined at `n == 64` (it panics in
/// debug builds and wraps to `0` — the *opposite* of the intended all-ones
/// mask — in release builds). Every "all VC slots" / "last mask word"
/// computation in the kernel funnels through this helper so radix or VC
/// growth can never silently hit that shift overflow.
///
/// # Panics
/// When `n > 64` — a caller asking for more than a `u64` holds is a logic
/// error (configs are validated to fit, see `SimConfig::validate`).
#[inline]
#[must_use]
pub fn low_bits(n: usize) -> u64 {
    assert!(n <= 64, "low_bits({n}): mask wider than u64");
    if n == 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// Indices of the set bits of `mask`, ascending.
#[inline]
pub fn iter_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::{iter_bits, low_bits};

    #[test]
    fn iter_bits_ascends_over_set_bits() {
        assert_eq!(iter_bits(0).count(), 0);
        let v: Vec<usize> = iter_bits(0b1010_0110).collect();
        assert_eq!(v, [1, 2, 5, 7]);
        assert_eq!(iter_bits(1 << 63).collect::<Vec<_>>(), [63]);
        assert_eq!(iter_bits(u64::MAX).count(), 64);
    }

    #[test]
    fn low_bits_edge_cases() {
        assert_eq!(low_bits(0), 0);
        assert_eq!(low_bits(1), 1);
        assert_eq!(low_bits(5), 0b1_1111);
        assert_eq!(low_bits(63), u64::MAX >> 1);
        assert_eq!(low_bits(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "mask wider than u64")]
    fn low_bits_rejects_overwide_masks() {
        let _ = low_bits(65);
    }
}
