//! Simulated memory faults.

use std::error::Error;
use std::fmt;

use crate::Addr;

/// A failed access to the simulated address space.
///
/// This is the reproduction's stand-in for a hardware trap: where the paper's
/// runtime installs a SIGSEGV handler and dumps a heap image, our runtime
/// observes a `MemFault` bubbling out of a workload and does the same.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemFault {
    /// The access touched an address with no mapped page ("segfault").
    Unmapped {
        /// First faulting address.
        addr: Addr,
    },
    /// The access started inside a mapping but ran past its end.
    OutOfBounds {
        /// Start of the access.
        addr: Addr,
        /// Length of the attempted access in bytes.
        len: usize,
    },
    /// A mapping request could not be satisfied.
    ExhaustedAddressSpace {
        /// The requested mapping length.
        len: usize,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { addr } => {
                write!(f, "simulated segfault: unmapped address {addr}")
            }
            MemFault::OutOfBounds { addr, len } => {
                write!(f, "access of {len} bytes at {addr} leaves its mapping")
            }
            MemFault::ExhaustedAddressSpace { len } => {
                write!(f, "could not place a mapping of {len} bytes")
            }
        }
    }
}

impl Error for MemFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_address() {
        let fault = MemFault::Unmapped {
            addr: Addr::new(0xdead),
        };
        assert!(fault.to_string().contains("0xdead"));
    }

    #[test]
    fn exhausted_displays_its_length() {
        let fault = MemFault::ExhaustedAddressSpace { len: 4096 };
        assert!(fault.to_string().contains("4096"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_error(MemFault::Unmapped { addr: Addr::NULL });
    }
}
