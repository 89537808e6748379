//! The [`Interval`] type: closed intervals over `f64` with outward rounding.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::round::{
    add_hi, add_lo, div_hi, div_lo, down, down2, mul_hi, mul_lo, powi_hi, powi_lo, sqrt_hi,
    sqrt_lo, up, up2,
};

/// A closed interval `[lo, hi]` of real numbers.
///
/// Endpoints may be infinite (an infinite endpoint means the interval is
/// unbounded on that side; the *elements* are always finite reals). The
/// empty interval is a distinguished value. Endpoints are never NaN.
///
/// All arithmetic is *outward rounded*: the returned interval is a superset
/// of the exact image `{x op y | x ∈ self, y ∈ rhs}`.
///
/// # Example
///
/// ```
/// use qcoral_interval::Interval;
///
/// let a = Interval::new(-1.0, 2.0);
/// assert!((a * a).contains(4.0));
/// assert!((a * a).lo() <= 0.0); // -1·2 = -2 is in the product
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The empty interval.
    pub const EMPTY: Interval = Interval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The whole real line `(-∞, +∞)`.
    pub const ENTIRE: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The degenerate interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// The unit interval `[0, 1]`.
    pub const UNIT: Interval = Interval { lo: 0.0, hi: 1.0 };

    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either endpoint is NaN. Use
    /// [`Interval::checked_new`] for a non-panicking variant.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Interval {
        Interval::checked_new(lo, hi)
            .unwrap_or_else(|| panic!("invalid interval endpoints [{lo}, {hi}]"))
    }

    /// Creates the interval `[lo, hi]`, returning `None` if `lo > hi` or
    /// either endpoint is NaN.
    #[inline]
    pub fn checked_new(lo: f64, hi: f64) -> Option<Interval> {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            None
        } else {
            Some(Interval { lo, hi })
        }
    }

    /// Creates the degenerate (point) interval `[v, v]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    #[inline]
    pub fn point(v: f64) -> Interval {
        assert!(!v.is_nan(), "point interval from NaN");
        Interval { lo: v, hi: v }
    }

    /// Creates `[lo, hi]` clamping a reversed pair into the empty interval
    /// instead of panicking. NaN endpoints also yield the empty interval.
    #[inline]
    pub fn new_or_empty(lo: f64, hi: f64) -> Interval {
        Interval::checked_new(lo, hi).unwrap_or(Interval::EMPTY)
    }

    /// Lower endpoint. For the empty interval this is `+∞`.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint. For the empty interval this is `-∞`.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Returns `true` if the interval contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Returns `true` if the interval is a single point.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Returns `true` if both endpoints are finite and the interval is
    /// non-empty.
    #[inline]
    pub fn is_bounded(&self) -> bool {
        !self.is_empty() && self.lo.is_finite() && self.hi.is_finite()
    }

    /// Width `hi - lo` of the interval; `0` for empty intervals, `+∞` for
    /// unbounded ones.
    #[inline]
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.hi - self.lo
        }
    }

    /// Midpoint of the interval. Saturates sensibly for half-unbounded
    /// intervals (returns a large finite value) and returns NaN for the
    /// empty interval.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        if self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY {
            return 0.0;
        }
        if self.lo == f64::NEG_INFINITY {
            return f64::MIN / 2.0;
        }
        if self.hi == f64::INFINITY {
            return f64::MAX / 2.0;
        }
        let m = self.lo / 2.0 + self.hi / 2.0;
        // Guard against the midpoint escaping the interval through rounding.
        m.clamp(self.lo, self.hi)
    }

    /// Magnitude: the largest absolute value of any element; `0` for empty.
    #[inline]
    pub fn magnitude(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.lo.abs().max(self.hi.abs())
        }
    }

    /// Mignitude: the smallest absolute value of any element; `0` for empty.
    #[inline]
    pub fn mignitude(&self) -> f64 {
        if self.is_empty() || (self.lo <= 0.0 && self.hi >= 0.0) {
            0.0
        } else {
            self.lo.abs().min(self.hi.abs())
        }
    }

    /// Returns `true` if `v` lies in the interval.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Returns `true` if `other` is a subset of `self`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (other.lo >= self.lo && other.hi <= self.hi)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval::new_or_empty(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Convex hull (smallest interval containing both operands).
    #[inline]
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Splits the interval at its midpoint into two halves.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty.
    #[inline]
    pub fn bisect(&self) -> (Interval, Interval) {
        assert!(!self.is_empty(), "cannot bisect the empty interval");
        let m = self.midpoint();
        (
            Interval { lo: self.lo, hi: m },
            Interval { lo: m, hi: self.hi },
        )
    }

    /// Widens the interval by one ulp on each (finite) side.
    #[inline]
    pub fn widen(&self) -> Interval {
        if self.is_empty() {
            return *self;
        }
        Interval {
            lo: down(self.lo),
            hi: up(self.hi),
        }
    }

    // ------------------------------------------------------------------
    // Elementary functions. Every function returns an outward-rounded
    // superset of the exact image.
    // ------------------------------------------------------------------

    /// Absolute value.
    pub fn abs(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            -*self
        } else {
            Interval {
                lo: 0.0,
                hi: self.magnitude(),
            }
        }
    }

    /// Pointwise minimum `{min(x, y)}`.
    pub fn min_i(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Pointwise maximum `{max(x, y)}`.
    pub fn max_i(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Square `x²`; tighter than `self * self` because it exploits the
    /// dependency between the two operands.
    pub fn sqr(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.lo >= 0.0 {
            Interval::new_or_empty(mul_lo(self.lo, self.lo), mul_hi(self.hi, self.hi))
        } else if self.hi <= 0.0 {
            Interval::new_or_empty(mul_lo(self.hi, self.hi), mul_hi(self.lo, self.lo))
        } else {
            let m = mul_hi(self.lo, self.lo).max(mul_hi(self.hi, self.hi));
            Interval::new_or_empty(0.0, m)
        }
    }

    /// Square root, restricted to the non-negative part of the interval.
    /// Returns the empty interval if `hi < 0`.
    pub fn sqrt(&self) -> Interval {
        let x = self.intersect(&Interval::new(0.0, f64::INFINITY));
        if x.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new_or_empty(sqrt_lo(x.lo), sqrt_hi(x.hi))
    }

    /// Integer power `xⁿ`.
    pub fn powi(&self, n: i32) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        match n {
            0 => Interval::point(1.0),
            1 => *self,
            2 => self.sqr(),
            _ if n > 0 && n % 2 == 0 => {
                // Even power: minimum at the point closest to zero.
                let un = n as u32;
                if self.lo >= 0.0 {
                    Interval::new_or_empty(powi_lo(self.lo, un), powi_hi(self.hi, un))
                } else if self.hi <= 0.0 {
                    Interval::new_or_empty(powi_lo(-self.hi, un), powi_hi(-self.lo, un))
                } else {
                    let m = powi_hi(-self.lo, un).max(powi_hi(self.hi, un));
                    Interval::new_or_empty(0.0, m)
                }
            }
            _ if n > 0 => {
                // Odd power: monotone increasing; (−x)ⁿ = −xⁿ.
                let un = n as u32;
                let lo = if self.lo >= 0.0 {
                    powi_lo(self.lo, un)
                } else {
                    -powi_hi(-self.lo, un)
                };
                let hi = if self.hi >= 0.0 {
                    powi_hi(self.hi, un)
                } else {
                    -powi_lo(-self.hi, un)
                };
                Interval::new_or_empty(lo, hi)
            }
            _ => {
                // Negative power: 1 / x^(-n).
                Interval::point(1.0) / self.powi(-n)
            }
        }
    }

    /// General power `x^y`, enclosing IEEE `powf` on points.
    ///
    /// If `y` is a point integer the computation delegates to
    /// [`Interval::powi`]. Otherwise the non-negative part of the base
    /// evaluates as `exp(y · ln x)` — whose unbounded `ln` lower end
    /// already carries the `0^y` limits (`0` for `y > 0`, divergence for
    /// `y < 0`, `1` for `y = 0`) whenever the base straddles zero — and,
    /// because `powf` is finite on negative bases raised to *integer*
    /// exponents, a symmetric magnitude hull is added for the negative
    /// part of the base whenever `y` contains an integer. Negative-base
    /// points with non-integer exponents are NaN in `powf` and carry no
    /// values to enclose.
    pub fn pow(&self, y: &Interval) -> Interval {
        if self.is_empty() || y.is_empty() {
            return Interval::EMPTY;
        }
        if y.is_point() && y.lo.fract() == 0.0 && y.lo.abs() <= i32::MAX as f64 {
            return self.powi(y.lo as i32);
        }
        let base = self.intersect(&Interval::new(0.0, f64::INFINITY));
        let mut out = if base.is_empty() {
            Interval::EMPTY
        } else if base.hi == 0.0 {
            // Base is exactly {0}: powf(0, t) is 0 for t > 0, 1 at
            // t = 0 and +∞ for t < 0 (kept as an unbounded-above hull).
            let mut z = Interval::EMPTY;
            if y.hi > 0.0 {
                z = z.hull(&Interval::ZERO);
            }
            if y.contains(0.0) {
                z = z.hull(&Interval::point(1.0));
            }
            if y.lo < 0.0 {
                z = z.hull(&Interval::new(f64::MAX, f64::INFINITY));
            }
            z
        } else {
            (base.ln() * *y).exp()
        };
        // Negative bases: finite for the integer exponents in `y`, with
        // magnitude |x|^t and either sign (exponent parity).
        let neg = self.intersect(&Interval::new(f64::NEG_INFINITY, 0.0));
        if !neg.is_empty() && neg.lo < 0.0 && y.lo.ceil() <= y.hi {
            let mag = -neg;
            let m = (mag.ln() * *y).exp();
            if !m.is_empty() {
                out = out.hull(&Interval::new_or_empty(-m.hi, m.hi));
            }
        }
        out
    }

    /// Natural exponential.
    pub fn exp(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new_or_empty(down2(self.lo.exp()).max(0.0), up2(self.hi.exp()))
    }

    /// Natural logarithm, restricted to the positive part of the interval.
    /// Returns the empty interval if `hi ≤ 0`.
    pub fn ln(&self) -> Interval {
        if self.is_empty() || self.hi <= 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.lo <= 0.0 {
            f64::NEG_INFINITY
        } else {
            down2(self.lo.ln())
        };
        Interval::new_or_empty(lo, up2(self.hi.ln()))
    }

    /// Sine. Sound for arguments of any magnitude: when argument reduction
    /// cannot be trusted (`|x| > 2⁵⁰`) the full range `[-1, 1]` is returned.
    pub fn sin(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        periodic_range(self.lo, self.hi, f64::sin, std::f64::consts::FRAC_PI_2)
    }

    /// Cosine. See [`Interval::sin`] for the soundness notes.
    pub fn cos(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        periodic_range(self.lo, self.hi, f64::cos, 0.0)
    }

    /// Tangent. Returns [`Interval::ENTIRE`] if the interval contains a
    /// pole (π/2 + kπ).
    pub fn tan(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        const BIG: f64 = 2f64 * (1u64 << 50) as f64;
        if !self.lo.is_finite() || !self.hi.is_finite() || self.magnitude() > BIG {
            return Interval::ENTIRE;
        }
        let pi = std::f64::consts::PI;
        // Poles at π/2 + kπ. Check (conservatively) whether one lies inside.
        let k_lo = ((self.lo - std::f64::consts::FRAC_PI_2) / pi).ceil();
        let pole = std::f64::consts::FRAC_PI_2 + k_lo * pi;
        let slack = 4.0 * f64::EPSILON * self.magnitude().max(1.0);
        if pole <= self.hi + slack || self.width() >= pi {
            return Interval::ENTIRE;
        }
        Interval::new_or_empty(down2(self.lo.tan()), up2(self.hi.tan()))
    }

    /// Arcsine, restricted to `[-1, 1]`.
    pub fn asin(&self) -> Interval {
        let x = self.intersect(&Interval::new(-1.0, 1.0));
        if x.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new_or_empty(down2(x.lo.asin()), up2(x.hi.asin()))
    }

    /// Arccosine, restricted to `[-1, 1]`.
    pub fn acos(&self) -> Interval {
        let x = self.intersect(&Interval::new(-1.0, 1.0));
        if x.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new_or_empty(down2(x.hi.acos()), up2(x.lo.acos()))
    }

    /// Arctangent (monotone increasing).
    pub fn atan(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new_or_empty(down2(self.lo.atan()), up2(self.hi.atan()))
    }

    /// Two-argument arctangent `atan2(self, x)` (`self` is the *y*
    /// coordinate, mirroring `f64::atan2`).
    ///
    /// Conservative across the branch cut: if the box touches the negative
    /// x-axis or the origin, the full range `[-π, π]` is returned.
    pub fn atan2(&self, x: &Interval) -> Interval {
        let y = self;
        if y.is_empty() || x.is_empty() {
            return Interval::EMPTY;
        }
        let pi = std::f64::consts::PI;
        let full = Interval::new(-up2(pi), up2(pi));
        // Branch cut along the negative x-axis (and origin undefined).
        if x.lo <= 0.0 && y.contains(0.0) {
            return full;
        }
        if y.lo > 0.0 || y.hi < 0.0 || x.lo > 0.0 {
            // The box avoids the branch cut: atan2 is continuous on it, so
            // the extremes are attained at box corners.
            let corners = [
                f64::atan2(y.lo, x.lo),
                f64::atan2(y.lo, x.hi),
                f64::atan2(y.hi, x.lo),
                f64::atan2(y.hi, x.hi),
            ];
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for c in corners {
                lo = lo.min(c);
                hi = hi.max(c);
            }
            return Interval::new_or_empty(down2(lo), up2(hi)).intersect(&full);
        }
        full
    }
}

/// Range of a `2π`-periodic function with critical points at
/// `crit + kπ` (max at `crit + 2kπ`, min at `crit + π + 2kπ`), evaluated on
/// `[lo, hi]`. Used for sine (`crit = π/2`) and cosine (`crit = 0`).
fn periodic_range(lo: f64, hi: f64, f: fn(f64) -> f64, crit: f64) -> Interval {
    const BIG: f64 = 2f64 * (1u64 << 50) as f64;
    let two_pi = 2.0 * std::f64::consts::PI;
    if !lo.is_finite() || !hi.is_finite() || lo.abs().max(hi.abs()) > BIG || hi - lo >= two_pi {
        return Interval::new(-1.0, 1.0);
    }
    let fa = f(lo);
    let fb = f(hi);
    let mut out_lo = fa.min(fb);
    let mut out_hi = fa.max(fb);
    // Conservative containment test for critical points, widened by a few
    // ulps of slack so we never miss one due to reduction error.
    let slack = 8.0 * f64::EPSILON * lo.abs().max(hi.abs()).max(1.0);
    let contains_crit = |c: f64| -> bool {
        // Is there an integer k with lo ≤ c + k·2π ≤ hi (within slack)?
        let k = ((lo - c) / two_pi).ceil();
        let p = c + k * two_pi;
        p <= hi + slack || {
            let k2 = ((lo - c) / two_pi).floor();
            let p2 = c + k2 * two_pi;
            p2 >= lo - slack && p2 <= hi + slack
        }
    };
    if contains_crit(crit) {
        out_hi = 1.0;
    }
    if contains_crit(crit + std::f64::consts::PI) {
        out_lo = -1.0;
    }
    Interval::new_or_empty(down2(out_lo).max(-1.0), up2(out_hi).min(1.0))
}

impl Default for Interval {
    /// The default interval is [`Interval::ZERO`].
    fn default() -> Interval {
        Interval::ZERO
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

impl From<f64> for Interval {
    /// Converts a finite `f64` into a point interval.
    ///
    /// # Panics
    ///
    /// Panics if the value is NaN.
    fn from(v: f64) -> Interval {
        Interval::point(v)
    }
}

impl Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new_or_empty(add_lo(self.lo, rhs.lo), add_hi(self.hi, rhs.hi))
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, rhs: Interval) -> Interval {
        self + (-rhs)
    }
}

impl Mul for Interval {
    type Output = Interval;

    fn mul(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        let corners = [
            (self.lo, rhs.lo),
            (self.lo, rhs.hi),
            (self.hi, rhs.lo),
            (self.hi, rhs.hi),
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (a, b) in corners {
            lo = lo.min(mul_lo(a, b));
            hi = hi.max(mul_hi(a, b));
        }
        Interval::new_or_empty(lo, hi)
    }
}

impl Div for Interval {
    type Output = Interval;

    fn div(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        if rhs.lo == 0.0 && rhs.hi == 0.0 {
            // Division by exactly zero is undefined everywhere.
            return Interval::EMPTY;
        }
        if rhs.lo > 0.0 || rhs.hi < 0.0 {
            // Divisor has a definite sign: take the corner quotients.
            let corners = [
                (self.lo, rhs.lo),
                (self.lo, rhs.hi),
                (self.hi, rhs.lo),
                (self.hi, rhs.hi),
            ];
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (a, b) in corners {
                lo = lo.min(div_lo(a, b));
                hi = hi.max(div_hi(a, b));
            }
            return Interval::new_or_empty(lo, hi);
        }
        if rhs.lo == 0.0 {
            // Divisor in (0, hi].
            return if self.lo >= 0.0 {
                Interval::new_or_empty(div_lo(self.lo, rhs.hi), f64::INFINITY)
            } else if self.hi <= 0.0 {
                Interval::new_or_empty(f64::NEG_INFINITY, div_hi(self.hi, rhs.hi))
            } else {
                Interval::ENTIRE
            };
        }
        if rhs.hi == 0.0 {
            // Divisor in [lo, 0).
            return if self.lo >= 0.0 {
                Interval::new_or_empty(f64::NEG_INFINITY, div_hi(self.lo, rhs.lo))
            } else if self.hi <= 0.0 {
                Interval::new_or_empty(div_lo(self.hi, rhs.lo), f64::INFINITY)
            } else {
                Interval::ENTIRE
            };
        }
        // Divisor straddles zero: the quotient set is a union of two rays;
        // its hull is the whole line.
        Interval::ENTIRE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_contains(i: Interval, v: f64) {
        assert!(i.contains(v), "{i} should contain {v}");
    }

    #[test]
    fn constructors() {
        let i = Interval::new(1.0, 2.0);
        assert_eq!(i.lo(), 1.0);
        assert_eq!(i.hi(), 2.0);
        assert!(Interval::checked_new(2.0, 1.0).is_none());
        assert!(Interval::checked_new(f64::NAN, 1.0).is_none());
        assert!(Interval::EMPTY.is_empty());
        assert!(!Interval::ENTIRE.is_empty());
        assert!(Interval::point(3.0).is_point());
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn new_panics_on_reversed() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn widths_and_midpoints() {
        assert_eq!(Interval::new(1.0, 3.0).width(), 2.0);
        assert_eq!(Interval::EMPTY.width(), 0.0);
        assert_eq!(Interval::new(1.0, 3.0).midpoint(), 2.0);
        assert_eq!(Interval::ENTIRE.midpoint(), 0.0);
        assert!(Interval::EMPTY.midpoint().is_nan());
        let i = Interval::new(f64::NEG_INFINITY, 5.0);
        assert!(i.midpoint().is_finite());
        assert!(i.contains(i.midpoint()));
    }

    #[test]
    fn add_contains_exact_sum() {
        let a = Interval::new(0.1, 0.2);
        let b = Interval::new(0.3, 0.4);
        let c = a + b;
        assert_contains(c, 0.1 + 0.3);
        assert_contains(c, 0.2 + 0.4);
        assert_contains(c, 0.5);
    }

    #[test]
    fn sub_is_add_of_negation() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(0.5, 1.5);
        let d = a - b;
        assert_contains(d, 1.0 - 1.5);
        assert_contains(d, 2.0 - 0.5);
    }

    #[test]
    fn mul_sign_cases() {
        let pos = Interval::new(2.0, 3.0);
        let neg = Interval::new(-3.0, -2.0);
        let mixed = Interval::new(-1.0, 2.0);
        assert_contains(pos * pos, 9.0);
        assert_contains(pos * neg, -9.0);
        assert!((pos * neg).hi() <= up(-4.0));
        assert_contains(mixed * pos, -3.0);
        assert_contains(mixed * pos, 6.0);
        assert_contains(mixed * mixed, -2.0);
        assert_contains(mixed * mixed, 4.0);
    }

    #[test]
    fn mul_with_infinite_endpoints() {
        let ray = Interval::new(2.0, f64::INFINITY);
        let z = Interval::new(0.0, 1.0);
        let p = z * ray;
        assert!(p.contains(0.0) && p.lo() >= -1e-300);
        assert_eq!(p.hi(), f64::INFINITY);
        let zz = Interval::ZERO * ray;
        assert!(zz.contains(0.0));
        assert!(zz.is_point() || zz.width() < 1e-300);
    }

    #[test]
    fn div_definite_sign() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(4.0, 8.0);
        let q = a / b;
        assert_contains(q, 0.125);
        assert_contains(q, 0.5);
        assert!(q.lo() <= 0.125 && q.hi() >= 0.5);
    }

    #[test]
    fn div_by_zero_cases() {
        let a = Interval::new(1.0, 2.0);
        assert!((a / Interval::ZERO).is_empty());
        let q = a / Interval::new(0.0, 1.0);
        assert_eq!(q.hi(), f64::INFINITY);
        assert!(q.lo() <= 1.0);
        let q2 = a / Interval::new(-1.0, 1.0);
        assert_eq!(q2, Interval::ENTIRE);
    }

    #[test]
    fn sqr_tighter_than_mul() {
        let x = Interval::new(-2.0, 1.0);
        let s = x.sqr();
        assert_eq!(s.lo(), 0.0);
        assert_contains(s, 4.0);
        assert!(s.hi() < (x * x).hi() + 1.0);
        // x·x would give [-2, 4]; sqr gives [0, 4].
        assert!(s.lo() > (x * x).lo());
    }

    #[test]
    fn sqrt_cases() {
        let x = Interval::new(4.0, 9.0);
        let s = x.sqrt();
        assert_contains(s, 2.0);
        assert_contains(s, 3.0);
        assert!(Interval::new(-2.0, -1.0).sqrt().is_empty());
        let half = Interval::new(-1.0, 4.0).sqrt();
        assert_eq!(half.lo(), 0.0);
        assert_contains(half, 2.0);
    }

    #[test]
    fn powi_cases() {
        let x = Interval::new(-2.0, 3.0);
        assert_eq!(x.powi(0), Interval::point(1.0));
        assert_eq!(x.powi(1), x);
        let e = x.powi(2);
        assert_eq!(e.lo(), 0.0);
        assert_contains(e, 9.0);
        let o = x.powi(3);
        assert_contains(o, -8.0);
        assert_contains(o, 27.0);
        let n = Interval::new(1.0, 2.0).powi(-1);
        assert_contains(n, 0.5);
        assert_contains(n, 1.0);
    }

    #[test]
    fn pow_general() {
        let x = Interval::new(1.0, 4.0);
        let y = Interval::new(0.5, 0.5);
        let p = x.pow(&y);
        assert_contains(p, 1.0);
        assert_contains(p, 2.0);
        // Negative base with non-integer exponent has no defined values.
        let neg = Interval::new(-2.0, -1.0);
        assert!(neg.pow(&Interval::point(0.5)).is_empty());
        // Point integer exponent delegates to powi even for negative base.
        let cube = neg.pow(&Interval::point(3.0));
        assert_contains(cube, -8.0);
    }

    #[test]
    fn exp_ln_roundtrip() {
        let x = Interval::new(0.5, 2.0);
        let e = x.exp();
        assert_contains(e, 1.0f64.exp());
        let l = e.ln();
        assert!(l.lo() <= 0.5 && l.hi() >= 2.0);
        assert!(Interval::new(-2.0, -1.0).ln().is_empty());
        assert_eq!(Interval::new(0.0, 1.0).ln().lo(), f64::NEG_INFINITY);
    }

    #[test]
    fn sin_basic_ranges() {
        use std::f64::consts::PI;
        let full = Interval::new(0.0, 7.0).sin();
        assert!(full.lo() <= -1.0 && full.hi() >= 1.0);
        let rising = Interval::new(0.0, 1.0).sin();
        assert_contains(rising, 0.0);
        assert_contains(rising, 1.0f64.sin());
        assert!(rising.hi() < 0.9);
        let peak = Interval::new(1.0, 2.0).sin();
        assert_eq!(peak.hi(), 1.0);
        let trough = Interval::new(PI, 2.0 * PI).sin();
        assert_eq!(trough.lo(), -1.0);
    }

    #[test]
    fn cos_basic_ranges() {
        use std::f64::consts::PI;
        let c = Interval::new(-0.5, 0.5).cos();
        assert_eq!(c.hi(), 1.0);
        assert!(c.lo() <= 0.5f64.cos());
        let t = Interval::new(PI - 0.1, PI + 0.1).cos();
        assert_eq!(t.lo(), -1.0);
    }

    #[test]
    fn sin_huge_argument_is_conservative() {
        let s = Interval::new(1e300, 1e300 + 1.0).sin();
        assert_eq!(s, Interval::new(-1.0, 1.0));
    }

    #[test]
    fn tan_with_and_without_pole() {
        use std::f64::consts::FRAC_PI_2;
        let safe = Interval::new(-0.5, 0.5).tan();
        assert_contains(safe, 0.0);
        assert!(safe.hi() < 1.0);
        let pole = Interval::new(FRAC_PI_2 - 0.1, FRAC_PI_2 + 0.1).tan();
        assert_eq!(pole, Interval::ENTIRE);
    }

    #[test]
    fn inverse_trig() {
        let a = Interval::new(-0.5, 0.5).asin();
        assert_contains(a, 0.0);
        let big = Interval::new(-3.0, 3.0).asin();
        assert!(big.lo() <= -std::f64::consts::FRAC_PI_2 + 1e-9);
        let c = Interval::new(0.0, 1.0).acos();
        assert_contains(c, 0.0);
        assert_contains(c, std::f64::consts::FRAC_PI_2);
        let t = Interval::new(-1.0, 1.0).atan();
        assert_contains(t, std::f64::consts::FRAC_PI_4);
    }

    #[test]
    fn atan2_quadrants() {
        use std::f64::consts::PI;
        // Strictly in the right half-plane.
        let y = Interval::new(1.0, 2.0);
        let x = Interval::new(1.0, 2.0);
        let a = y.atan2(&x);
        assert_contains(a, PI / 4.0);
        assert!(a.lo() > 0.0 && a.hi() < PI / 2.0);
        // Touching the branch cut: full range.
        let y2 = Interval::new(-1.0, 1.0);
        let x2 = Interval::new(-2.0, -1.0);
        let a2 = y2.atan2(&x2);
        assert!(a2.lo() <= -PI && a2.hi() >= PI);
        // Upper half-plane crossing the y-axis.
        let y3 = Interval::new(1.0, 2.0);
        let x3 = Interval::new(-1.0, 1.0);
        let a3 = y3.atan2(&x3);
        assert_contains(a3, PI / 2.0);
    }

    #[test]
    fn set_operations() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(&b), Interval::new(1.0, 2.0));
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
        assert!(a.intersect(&Interval::new(5.0, 6.0)).is_empty());
        assert_eq!(a.hull(&Interval::EMPTY), a);
        assert_eq!(Interval::EMPTY.hull(&b), b);
        assert!(a.contains_interval(&Interval::new(0.5, 1.5)));
        assert!(a.contains_interval(&Interval::EMPTY));
        assert!(!a.contains_interval(&b));
    }

    #[test]
    fn bisect_halves_cover() {
        let a = Interval::new(0.0, 10.0);
        let (l, r) = a.bisect();
        assert_eq!(l.hi(), r.lo());
        assert_eq!(l.lo(), 0.0);
        assert_eq!(r.hi(), 10.0);
    }

    #[test]
    fn abs_min_max() {
        let m = Interval::new(-3.0, 2.0);
        assert_eq!(m.abs(), Interval::new(0.0, 3.0));
        assert_eq!(Interval::new(-3.0, -1.0).abs(), Interval::new(1.0, 3.0));
        let a = Interval::new(0.0, 5.0);
        let b = Interval::new(2.0, 3.0);
        assert_eq!(a.min_i(&b), Interval::new(0.0, 3.0));
        assert_eq!(a.max_i(&b), Interval::new(2.0, 5.0));
    }

    #[test]
    fn magnitude_mignitude() {
        let m = Interval::new(-3.0, 2.0);
        assert_eq!(m.magnitude(), 3.0);
        assert_eq!(m.mignitude(), 0.0);
        assert_eq!(Interval::new(1.0, 4.0).mignitude(), 1.0);
        assert_eq!(Interval::new(-4.0, -1.0).mignitude(), 1.0);
    }

    #[test]
    fn empty_propagates_through_arithmetic() {
        let e = Interval::EMPTY;
        let a = Interval::new(0.0, 1.0);
        assert!((e + a).is_empty());
        assert!((a - e).is_empty());
        assert!((e * a).is_empty());
        assert!((a / e).is_empty());
        assert!((-e).is_empty());
        assert!(e.sin().is_empty());
        assert!(e.sqrt().is_empty());
        assert!(e.exp().is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Interval::new(1.0, 2.0).to_string(), "[1, 2]");
        assert_eq!(Interval::EMPTY.to_string(), "∅");
    }
}
