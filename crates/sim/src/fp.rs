//! Deterministic lane float arithmetic for the issue engine's
//! handlers.
//!
//! IEEE 754 leaves the *payload* of a NaN result unspecified, and
//! LLVM is free to commute `fadd`/`fmul` operands, so two separately
//! compiled copies of `a + b` (a debug and a release build, say) can
//! legally return different NaN bit patterns for the same inputs (x86
//! `addss` propagates its first operand's payload). The golden run
//! corpus pins memory digests under both build profiles, so every
//! binary float op pins the propagation order in source: the first NaN
//! operand wins, before the hardware op runs. Results that *become* NaN from
//! non-NaN operands (inf − inf, 0 × inf) use the hardware's "real
//! indefinite" constant, which is deterministic.

/// `a + b` with first-NaN-operand-wins payload propagation.
#[inline]
pub(crate) fn fadd(a: f32, b: f32) -> f32 {
    if a.is_nan() {
        a
    } else if b.is_nan() {
        b
    } else {
        a + b
    }
}

/// `a × b` with first-NaN-operand-wins payload propagation.
#[inline]
pub(crate) fn fmul(a: f32, b: f32) -> f32 {
    if a.is_nan() {
        a
    } else if b.is_nan() {
        b
    } else {
        a * b
    }
}

/// Fused `a × b + c` with first-NaN-operand-wins payload propagation.
#[inline]
pub(crate) fn ffma(a: f32, b: f32, c: f32) -> f32 {
    if a.is_nan() {
        a
    } else if b.is_nan() {
        b
    } else if c.is_nan() {
        c
    } else {
        a.mul_add(b, c)
    }
}

/// IEEE minNum with a pinned both-NaN case (first operand wins).
#[inline]
pub(crate) fn fmin(a: f32, b: f32) -> f32 {
    if a.is_nan() {
        if b.is_nan() {
            a
        } else {
            b
        }
    } else if b.is_nan() {
        a
    } else {
        a.min(b)
    }
}

/// IEEE maxNum with a pinned both-NaN case (first operand wins).
#[inline]
pub(crate) fn fmax(a: f32, b: f32) -> f32 {
    if a.is_nan() {
        if b.is_nan() {
            a
        } else {
            b
        }
    } else if b.is_nan() {
        a
    } else {
        a.max(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAN_A: u32 = 0xfff7_6208;
    const NAN_B: u32 = 0x7fd1_2e30;

    #[test]
    fn first_nan_operand_wins_bit_for_bit() {
        let (a, b) = (f32::from_bits(NAN_A), f32::from_bits(NAN_B));
        assert_eq!(fadd(a, b).to_bits(), NAN_A);
        assert_eq!(fadd(b, a).to_bits(), NAN_B);
        assert_eq!(fmul(a, b).to_bits(), NAN_A);
        assert_eq!(ffma(1.0, b, a).to_bits(), NAN_B);
        assert_eq!(fmin(a, b).to_bits(), NAN_A);
        assert_eq!(fmax(b, a).to_bits(), NAN_B);
    }

    #[test]
    fn min_max_prefer_the_number_over_nan() {
        let n = f32::from_bits(NAN_A);
        assert_eq!(fmin(n, 2.0), 2.0);
        assert_eq!(fmin(2.0, n), 2.0);
        assert_eq!(fmax(n, -2.0), -2.0);
    }

    #[test]
    fn finite_arithmetic_is_untouched() {
        assert_eq!(fadd(1.5, 2.25), 3.75);
        assert_eq!(fmul(-2.0, 4.0), -8.0);
        assert_eq!(ffma(2.0, 3.0, 1.0), 7.0);
        assert_eq!(fmin(1.0, 2.0), 1.0);
        assert_eq!(fmax(1.0, 2.0), 2.0);
    }
}
