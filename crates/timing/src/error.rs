//! Typed errors for the timing simulator.

use preexec_func::ExecError;
use std::error::Error;
use std::fmt;

/// A rejected [`MachineParams`](crate::MachineParams) field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// `width` was zero.
    ZeroWidth,
    /// `rs_entries` or `rob_entries` was zero.
    ZeroWindow,
    /// `mshrs` was zero.
    ZeroMshrs,
    /// `pthread_burst` was zero.
    ZeroBurst,
    /// `backside_bus_bytes`, `mem_bus_bytes` or `mem_bus_divisor` was zero.
    ZeroBus,
    /// `store_queue_entries` was zero: no store could ever rename.
    ZeroStoreQueue,
    /// `l1d` or `l2` has a line size or set count that is not a power of
    /// two (or zero associativity).
    CacheGeometry,
    /// A latency field exceeded [`MAX_LATENCY`](crate::MAX_LATENCY).
    LatencyTooLong,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MachineError::ZeroWidth => "width must be positive",
            MachineError::ZeroWindow => "window must be positive",
            MachineError::ZeroMshrs => "mshrs must be positive",
            MachineError::ZeroBurst => "burst must be positive",
            MachineError::ZeroBus => "bus widths and memory bus divisor must be positive",
            MachineError::ZeroStoreQueue => "store queue must be positive",
            MachineError::CacheGeometry => "cache line size and set count must be powers of two",
            MachineError::LatencyTooLong => "latencies must not exceed 65536 cycles",
        };
        f.write_str(s)
    }
}

impl Error for MachineError {}

/// A fault raised by a timing run. P-thread faults never surface here —
/// they squash the p-thread (see [`SimResult`](crate::SimResult)) — so
/// this covers only configuration problems and main-thread faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The machine configuration was invalid.
    Machine(MachineError),
    /// The *main thread* hit a functional-execution fault (malformed
    /// instruction). Unlike a p-thread, the main thread is architectural:
    /// its faults cannot be squashed away.
    Exec(ExecError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Machine(e) => write!(f, "invalid machine configuration: {e}"),
            SimError::Exec(e) => write!(f, "main-thread fault: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Machine(e) => Some(e),
            SimError::Exec(e) => Some(e),
        }
    }
}

impl From<MachineError> for SimError {
    fn from(e: MachineError) -> SimError {
        SimError::Machine(e)
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_fault() {
        assert!(MachineError::ZeroWidth.to_string().contains("width"));
        assert!(SimError::from(MachineError::ZeroMshrs)
            .to_string()
            .contains("mshrs"));
        assert!(SimError::from(ExecError::CpuHalted)
            .to_string()
            .contains("main-thread"));
    }
}
