//! Register names.

use std::fmt;

/// Number of architectural registers visible to programs.
pub const NUM_ARCH_REGS: usize = 32;

/// Total register namespace, including the 32 temporaries (`t0`–`t31`,
/// indices 32–63) that p-thread merging may allocate when it must rename a
/// duplicated computation. Ordinary programs never touch these.
pub const NUM_REGS: usize = 64;

/// A PERI register.
///
/// Registers `r0`–`r31` are architectural; `r0` is hardwired to zero, as in
/// MIPS. Registers with indices 32–63 are *merge temporaries*: extra names
/// available to automatically generated p-thread bodies so that the merging
/// pass can duplicate a computation without clobbering the registers of the
/// other computations sharing the p-thread (paper §3.3).
///
/// # Example
///
/// ```
/// use preexec_isa::Reg;
///
/// let r5 = Reg::new(5);
/// assert_eq!(r5.index(), 5);
/// assert!(Reg::ZERO.is_zero());
/// assert!(!r5.is_temp());
/// assert!(Reg::new(40).is_temp());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired-zero register `r0`.
    pub const ZERO: Reg = Reg(0);

    /// The conventional link register (`r31`), written by `jal`.
    pub const LINK: Reg = Reg(31);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS` (64).
    #[inline]
    pub fn new(index: u8) -> Reg {
        assert!(
            (index as usize) < NUM_REGS,
            "register index {index} out of range (0..{NUM_REGS})"
        );
        Reg(index)
    }

    /// Creates a register from its index, returning `None` if out of range.
    #[inline]
    pub fn try_new(index: u8) -> Option<Reg> {
        if (index as usize) < NUM_REGS {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// The register's index, in `0..64`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hardwired-zero register `r0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Whether this is a merge temporary (`t0`–`t31`, indices 32–63).
    #[inline]
    pub fn is_temp(self) -> bool {
        self.0 >= NUM_ARCH_REGS as u8
    }

    /// The `n`-th merge temporary.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub fn temp(n: u8) -> Reg {
        assert!(n < 32, "temporary index {n} out of range (0..32)");
        Reg(NUM_ARCH_REGS as u8 + n)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_temp() {
            write!(f, "t{}", self.0 - NUM_ARCH_REGS as u8)
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

impl From<Reg> for usize {
    fn from(r: Reg) -> usize {
        r.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register() {
        assert!(Reg::ZERO.is_zero());
        assert_eq!(Reg::ZERO.index(), 0);
        assert!(!Reg::new(1).is_zero());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg::new(7).to_string(), "r7");
        assert_eq!(Reg::new(31).to_string(), "r31");
        assert_eq!(Reg::temp(0).to_string(), "t0");
        assert_eq!(Reg::temp(31).to_string(), "t31");
    }

    #[test]
    fn temps_start_at_32() {
        assert_eq!(Reg::temp(0).index(), 32);
        assert!(Reg::temp(5).is_temp());
        assert!(!Reg::new(31).is_temp());
    }

    #[test]
    fn try_new_bounds() {
        assert!(Reg::try_new(63).is_some());
        assert!(Reg::try_new(64).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_panics_out_of_range() {
        let _ = Reg::new(64);
    }
}
