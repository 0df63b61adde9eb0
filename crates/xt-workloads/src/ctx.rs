//! The execution context shared by all workloads: scoped call-site
//! tracking, heap access with crash propagation, and output capture.

use xt_alloc::{Heap, HeapError, Rng, SiteHash, SiteStack};
use xt_arena::{fnv1a_64, Addr, MemFault, FNV1A_64_BASIS};

use crate::{CrashKind, RunOutcome, RunResult};

/// Abort signal threaded through workload code with `?`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Abort {
    /// A memory access faulted.
    Mem(MemFault),
    /// The allocator refused a request.
    Heap(HeapError),
    /// The workload detected an inconsistency and aborted itself.
    SelfAbort(&'static str),
}

impl From<MemFault> for Abort {
    fn from(f: MemFault) -> Abort {
        Abort::Mem(f)
    }
}

impl From<HeapError> for Abort {
    fn from(e: HeapError) -> Abort {
        Abort::Heap(e)
    }
}

impl Abort {
    /// Maps the abort to the crash kind reported in a [`RunResult`].
    #[must_use]
    pub fn crash_kind(self) -> CrashKind {
        match self {
            Abort::Mem(f) => CrashKind::SegFault(f),
            Abort::Heap(HeapError::Breakpoint { .. }) => CrashKind::Breakpoint,
            Abort::Heap(e) => CrashKind::HeapExhausted(e),
            Abort::SelfAbort(what) => CrashKind::SelfAbort(what),
        }
    }
}

/// Workload execution context.
///
/// `Ctx` is what gives the reproduction's workloads the shape of C
/// programs: every "function" pushes a synthetic return address onto the
/// [`SiteStack`], so each `malloc`/`free` carries the DJB2-hashed calling
/// context of §3.2, and every load/store is a bounds-checked access that
/// aborts the run on a fault, like a signal would kill a process.
///
/// # Example
///
/// ```
/// use xt_diehard::{DieHardConfig, DieHardHeap};
/// use xt_workloads::Ctx;
///
/// let mut heap = DieHardHeap::new(DieHardConfig::with_seed(1));
/// let mut ctx = Ctx::new(&mut heap, 42);
/// let result: Result<(), _> = (|| {
///     ctx.enter(0x100);
///     let p = ctx.malloc(32)?;
///     ctx.write_u64(p, 7)?;
///     assert_eq!(ctx.read_u64(p)?, 7);
///     ctx.free(p);
///     ctx.leave();
///     Ok::<(), xt_workloads::Abort>(())
/// })();
/// assert!(result.is_ok());
/// ```
pub struct Ctx<'a> {
    heap: &'a mut dyn Heap,
    sites: SiteStack,
    output: Vec<u8>,
    rng: Rng,
}

impl<'a> Ctx<'a> {
    /// Creates a context over `heap` with workload randomness from `seed`.
    pub fn new(heap: &'a mut dyn Heap, seed: u64) -> Self {
        Ctx {
            heap,
            sites: SiteStack::new(),
            output: Vec::new(),
            rng: Rng::new(seed ^ 0x3017_AD5E_11AA_77FF),
        }
    }

    /// Pushes a synthetic return address ("entering a function").
    pub fn enter(&mut self, pc: u32) {
        self.sites.push(pc);
    }

    /// Pops the most recent return address ("returning").
    pub fn leave(&mut self) {
        self.sites.pop();
    }

    /// Runs `f` with `pc` pushed, popping afterwards even on abort.
    pub fn scoped<R>(
        &mut self,
        pc: u32,
        f: impl FnOnce(&mut Self) -> Result<R, Abort>,
    ) -> Result<R, Abort> {
        self.enter(pc);
        let out = f(self);
        self.leave();
        out
    }

    /// The current call-site hash.
    #[must_use]
    pub fn site(&self) -> SiteHash {
        self.sites.hash()
    }

    /// The workload's own RNG (independent of heap randomization).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Allocates `size` bytes at the current call site.
    ///
    /// # Errors
    ///
    /// Aborts the run on allocator failure (including breakpoints).
    pub fn malloc(&mut self, size: usize) -> Result<Addr, Abort> {
        let site = self.sites.hash();
        Ok(self.heap.malloc(size, site)?)
    }

    /// Frees `ptr` at the current call site.
    pub fn free(&mut self, ptr: Addr) {
        let site = self.sites.hash();
        self.heap.free(ptr, site);
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Aborts the run on a memory fault.
    pub fn read_u64(&self, addr: Addr) -> Result<u64, Abort> {
        Ok(self.heap.arena().read_u64(addr)?)
    }

    /// Writes a `u64`.
    ///
    /// # Errors
    ///
    /// Aborts the run on a memory fault.
    pub fn write_u64(&mut self, addr: Addr, v: u64) -> Result<(), Abort> {
        Ok(self.heap.arena_mut().write_u64(addr, v)?)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Aborts the run on a memory fault.
    pub fn read_u32(&self, addr: Addr) -> Result<u32, Abort> {
        Ok(self.heap.arena().read_u32(addr)?)
    }

    /// Writes a `u32`.
    ///
    /// # Errors
    ///
    /// Aborts the run on a memory fault.
    pub fn write_u32(&mut self, addr: Addr, v: u32) -> Result<(), Abort> {
        Ok(self.heap.arena_mut().write_u32(addr, v)?)
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// # Errors
    ///
    /// Aborts the run on a memory fault.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Result<Vec<u8>, Abort> {
        Ok(self.heap.arena().read_bytes(addr, len)?.to_vec())
    }

    /// Writes raw bytes.
    ///
    /// # Errors
    ///
    /// Aborts the run on a memory fault.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), Abort> {
        Ok(self.heap.arena_mut().write_bytes(addr, bytes)?)
    }

    /// Reads a stored pointer.
    ///
    /// # Errors
    ///
    /// Aborts the run on a memory fault.
    pub fn read_ptr(&self, addr: Addr) -> Result<Addr, Abort> {
        Ok(self.heap.arena().read_addr(addr)?)
    }

    /// Stores a pointer into heap memory.
    ///
    /// # Errors
    ///
    /// Aborts the run on a memory fault.
    pub fn write_ptr(&mut self, addr: Addr, value: Addr) -> Result<(), Abort> {
        Ok(self.heap.arena_mut().write_addr(addr, value)?)
    }

    /// Appends bytes to the run's output stream.
    pub fn emit(&mut self, bytes: &[u8]) {
        self.output.extend_from_slice(bytes);
    }

    /// Appends a `u64` (little-endian) to the output stream.
    pub fn emit_u64(&mut self, v: u64) {
        self.output.extend_from_slice(&v.to_le_bytes());
    }

    /// Finishes the run, wrapping the captured output.
    #[must_use]
    pub fn finish(self, result: Result<(), Abort>) -> RunResult {
        RunResult {
            outcome: match result {
                Ok(()) => RunOutcome::Completed,
                Err(abort) => RunOutcome::Crashed(abort.crash_kind()),
            },
            output: self.output,
        }
    }
}

/// FNV-1a, the workloads' output-checksum function (`state == 0` starts
/// a fresh checksum). Heap addresses must never be fed to it — outputs
/// must be layout-independent.
#[must_use]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let start = if state == 0 { FNV1A_64_BASIS } else { state };
    fnv1a_64(start, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_diehard::{DieHardConfig, DieHardHeap};

    #[test]
    fn scoped_sites_differ_by_depth() {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(1));
        let mut ctx = Ctx::new(&mut heap, 1);
        let outer = ctx.site();
        ctx.enter(10);
        let inner = ctx.site();
        ctx.leave();
        assert_ne!(outer, inner);
        assert_eq!(ctx.site(), outer);
    }

    #[test]
    fn scoped_pops_on_abort() {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(2));
        let mut ctx = Ctx::new(&mut heap, 1);
        let before = ctx.site();
        let r: Result<(), Abort> = ctx.scoped(99, |_| Err(Abort::SelfAbort("x")));
        assert!(r.is_err());
        assert_eq!(ctx.site(), before, "frame leaked after abort");
    }

    #[test]
    fn memory_helpers_round_trip() {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(3));
        let mut ctx = Ctx::new(&mut heap, 1);
        let p = ctx.malloc(64).unwrap();
        ctx.write_u64(p, 1).unwrap();
        ctx.write_u32(p + 8, 2).unwrap();
        ctx.write_bytes(p + 12, b"abc").unwrap();
        ctx.write_ptr(p + 16, p).unwrap();
        assert_eq!(ctx.read_u64(p).unwrap(), 1);
        assert_eq!(ctx.read_u32(p + 8).unwrap(), 2);
        assert_eq!(ctx.read_bytes(p + 12, 3).unwrap(), b"abc");
        assert_eq!(ctx.read_ptr(p + 16).unwrap(), p);
    }

    #[test]
    fn faults_become_segfault_crashes() {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(4));
        let ctx = Ctx::new(&mut heap, 1);
        let err = ctx.read_u64(Addr::new(0x40)).unwrap_err();
        assert!(matches!(err.crash_kind(), CrashKind::SegFault(_)));
    }

    #[test]
    fn breakpoint_is_a_distinct_crash_kind() {
        use xt_alloc::AllocTime;
        let err = Abort::Heap(HeapError::Breakpoint {
            at: AllocTime::from_raw(5),
        });
        assert_eq!(err.crash_kind(), CrashKind::Breakpoint);
    }

    #[test]
    fn finish_captures_output() {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(5));
        let mut ctx = Ctx::new(&mut heap, 1);
        ctx.emit(b"hello");
        ctx.emit_u64(7);
        let result = ctx.finish(Ok(()));
        assert!(result.completed());
        assert_eq!(result.output.len(), 13);
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let a = fnv1a(0, b"abc");
        assert_eq!(a, fnv1a(0, b"abc"));
        assert_ne!(a, fnv1a(0, b"abd"));
        assert_ne!(fnv1a(a, b"x"), fnv1a(0, b"x"));
    }
}
