//! A total order on `f64` that integer sorts can use.

/// Monotone `f64 → u64` mapping under IEEE total order (sign bit
/// flipped for non-negatives, all bits flipped for negatives):
/// `sort_key(a) < sort_key(b) ⇔ a < b` for finite values, and `-0.0`
/// maps below `+0.0`. Sorting the mapped keys takes the sorter's
/// branchless integer fast path — substantially faster than sorting
/// `f64`s through `partial_cmp` — and [`from_sort_key`] recovers the
/// exact value, so code built on it returns bit-identical results to a
/// comparator sort.
#[inline]
pub(crate) fn sort_key(v: f64) -> u64 {
    let b = v.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Inverse of [`sort_key`].
#[inline]
pub(crate) fn from_sort_key(k: u64) -> f64 {
    f64::from_bits(k ^ ((((!k as i64) >> 63) as u64) | 0x8000_0000_0000_0000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_key_is_monotone_and_invertible() {
        let samples = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e-300,
            -1e-300,
            5e-324,
            1e308,
            -1e308,
            0.5,
            2.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
        ];
        for &a in &samples {
            assert_eq!(from_sort_key(sort_key(a)).to_bits(), a.to_bits());
            for &b in &samples {
                assert_eq!(
                    sort_key(a) < sort_key(b),
                    a < b || (a == b && a.is_sign_negative() && b.is_sign_positive()),
                    "ordering diverges for {a} vs {b}"
                );
            }
        }
    }
}
