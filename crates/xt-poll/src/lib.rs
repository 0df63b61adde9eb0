//! Readiness polling without dependencies: a thin epoll FFI shim with a
//! portable level-triggered fallback.
//!
//! `xt-net`'s event-loop server needs exactly four primitives: register
//! a socket under a caller-chosen token, change its interest set, wait
//! for readiness with a timeout, and wake the waiter from another
//! thread. The real ecosystem answer is `mio`, but this workspace is
//! built offline — so, in the same stand-in spirit as the local
//! `proptest` crate, this crate implements the subset it needs
//! directly:
//!
//! - **epoll backend** (Linux): raw `extern "C"` declarations against
//!   the libc that `std` already links — `epoll_create1` /
//!   `epoll_ctl` / `epoll_wait`, plus an `eventfd` registered under an
//!   internal sentinel token for [`Poller::notify`]. Level-triggered
//!   (the default; no `EPOLLET`), so a short read that leaves bytes
//!   behind re-arms by itself.
//! - **fallback backend** (every other platform; on Linux only via
//!   [`Poller::new_fallback`]): keeps the registration table in a
//!   [`BTreeMap`](std::collections::BTreeMap) and, on
//!   [`Poller::wait`], parks on a condvar for a small slice of the
//!   timeout before reporting **every registered fd** as ready in fd
//!   order. That is a deliberate level-triggered
//!   over-approximation: correctness rests on the caller's sockets
//!   being non-blocking (a spurious readable just yields
//!   `WouldBlock`), and the slice bounds the wakeup rate so the
//!   over-approximation costs milliseconds of latency, not a spin.
//!   [`Poller::notify`] sets a flag and wakes the condvar immediately.
//!
//! Deliberate differences from `mio`: no edge-triggered mode, no
//! `Token` newtype (tokens are `usize`), no `Source` trait (raw fds),
//! and `wait` never allocates beyond the caller's event buffer. Both
//! backends honor the same contract, and the server's soak/unit suites
//! exercise both (the fallback via [`Poller::new_fallback`]).
//!
//! Nothing here touches the deterministic surface: readiness order is
//! explicitly *not* part of any byte-pinned output — `xt-net`'s
//! determinism pin (remote digests == in-process serial digests) holds
//! because the front-end's global sequence number, not poll order,
//! seeds replica execution.

use std::io;
use std::time::Duration;

/// Raw file descriptor, as returned by `std::os::fd::AsRawFd`.
pub type RawFd = i32;

/// What readiness a registration cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event: the token the fd was registered under, and
/// which directions fired. `error` covers `EPOLLERR`/`EPOLLHUP`; the
/// fallback never reports it (a dead socket surfaces as a 0-byte read
/// on the next level-triggered pass instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    pub error: bool,
}

/// A readiness poller. Construct with [`Poller::new`] (epoll on Linux,
/// the portable backend elsewhere) or [`Poller::new_fallback`] (forces
/// the portable backend, e.g. to test both paths on one host).
pub struct Poller {
    backend: Backend,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Fallback(fallback::Fallback),
}

impl Poller {
    /// Opens the backend for this platform: epoll on Linux, the
    /// portable fallback everywhere else.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        return Ok(Poller {
            backend: Backend::Epoll(epoll::Epoll::new()?),
        });
        #[cfg(not(target_os = "linux"))]
        Ok(Poller::new_fallback())
    }

    /// Opens the portable fallback backend unconditionally.
    pub fn new_fallback() -> Poller {
        Poller {
            backend: Backend::Fallback(fallback::Fallback::new()),
        }
    }

    /// Which backend this poller runs on: `"epoll"` or `"fallback"`.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Fallback(_) => "fallback",
        }
    }

    /// Registers `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`]; the caller is responsible for making it
    /// non-blocking (both backends are level-triggered and may report
    /// spurious readiness).
    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll::EPOLL_CTL_ADD, fd, token, interest),
            Backend::Fallback(f) => f.register(fd, token, interest),
        }
    }

    /// Replaces the interest set (and token) of an already-registered fd.
    pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll::EPOLL_CTL_MOD, fd, token, interest),
            Backend::Fallback(f) => f.register(fd, token, interest),
        }
    }

    /// Removes a registration. Safe to call right before closing the fd.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.del(fd),
            Backend::Fallback(f) => f.deregister(fd),
        }
    }

    /// Blocks until readiness, a [`Poller::notify`], or `timeout`
    /// (`None` = forever). Clears and refills `events`; returns the
    /// number of events delivered. A notify wake with no ready fds
    /// returns `Ok(0)`.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.wait(events, timeout),
            Backend::Fallback(f) => f.wait(events, timeout),
        }
    }

    /// Wakes a concurrent [`Poller::wait`] from another thread. Cheap
    /// and coalescing: many notifies before the next wait cost one
    /// wakeup.
    pub fn notify(&self) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.notify(),
            Backend::Fallback(f) => f.notify(),
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    //! The real thing: raw FFI against the libc `std` already links.

    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    pub(crate) const EPOLL_CTL_ADD: i32 = 1;
    pub(crate) const EPOLL_CTL_DEL: i32 = 2;
    pub(crate) const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EFD_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;

    /// The kernel ABI's `struct epoll_event`. Packed on x86-64 only —
    /// that is how glibc (`__EPOLL_PACKED`) and the kernel define it;
    /// other architectures use natural alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// Sentinel `data` value for the internal notify eventfd; real
    /// registrations use the caller's token, which a `usize` cannot
    /// collide with on any platform where `usize` ≤ 64 bits... except
    /// exactly at `usize::MAX`, which is therefore rejected at
    /// registration.
    const NOTIFY_DATA: u64 = u64::MAX;

    pub(crate) struct Epoll {
        epfd: RawFd,
        wakefd: RawFd,
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    impl Epoll {
        pub(crate) fn new() -> io::Result<Epoll> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let wakefd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let this = Epoll { epfd, wakefd };
            this.ctl(
                EPOLL_CTL_ADD,
                wakefd,
                NOTIFY_DATA as usize,
                Interest::READABLE,
            )?;
            Ok(this)
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = 0;
            if interest.readable {
                m |= EPOLLIN;
            }
            if interest.writable {
                m |= EPOLLOUT;
            }
            m
        }

        pub(crate) fn ctl(
            &self,
            op: i32,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            if token as u64 == NOTIFY_DATA && fd != self.wakefd {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "token usize::MAX is reserved for the internal notify fd",
                ));
            }
            let mut ev = EpollEvent {
                events: Self::mask(interest),
                data: token as u64,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub(crate) fn del(&self, fd: RawFd) -> io::Result<()> {
            // Pre-2.6.9 kernels require a non-null event for DEL; pass
            // a dummy unconditionally.
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub(crate) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let ms: i32 = match timeout {
                None => -1,
                // Round sub-millisecond timeouts up so a 100µs request
                // does not degenerate into a busy-poll of 0ms waits.
                Some(d) if d > Duration::ZERO => d.as_millis().clamp(1, i32::MAX as u128) as i32,
                Some(_) => 0,
            };
            const CAP: usize = 256;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
            let n = loop {
                match cvt(unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, ms) }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &buf[..n] {
                let (bits, data) = (ev.events, ev.data);
                if data == NOTIFY_DATA {
                    // Drain the eventfd counter so level-triggered
                    // readiness re-arms only on the next notify.
                    let mut b = [0u8; 8];
                    unsafe { read(self.wakefd, b.as_mut_ptr(), 8) };
                    continue;
                }
                events.push(Event {
                    token: data as usize,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(events.len())
        }

        pub(crate) fn notify(&self) -> io::Result<()> {
            let one = 1u64.to_ne_bytes();
            let r = unsafe { write(self.wakefd, one.as_ptr(), 8) };
            if r < 0 {
                let e = io::Error::last_os_error();
                // EAGAIN: the counter is already saturated — a wake is
                // pending, which is all a notify promises.
                if e.kind() != io::ErrorKind::WouldBlock {
                    return Err(e);
                }
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                close(self.wakefd);
                close(self.epfd);
            }
        }
    }
}

mod fallback {
    //! Portable level-triggered over-approximation: every registered fd
    //! is reported ready after a short park, and notify wakes the park.

    use super::{Event, Interest, RawFd};
    use std::collections::BTreeMap;
    use std::io;
    use std::sync::{Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    /// How long one wait parks before over-approximating readiness.
    /// Bounds the idle wakeup rate at ~500/s per poller; small enough
    /// that the added frame latency stays invisible next to socket RTT.
    const SLICE: Duration = Duration::from_millis(2);

    struct State {
        registrations: BTreeMap<RawFd, (usize, Interest)>,
        notified: bool,
    }

    pub(crate) struct Fallback {
        state: Mutex<State>,
        wake: Condvar,
    }

    impl Fallback {
        pub(crate) fn new() -> Fallback {
            Fallback {
                state: Mutex::new(State {
                    registrations: BTreeMap::new(),
                    notified: false,
                }),
                wake: Condvar::new(),
            }
        }

        fn locked(&self) -> std::sync::MutexGuard<'_, State> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        pub(crate) fn register(
            &self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.locked().registrations.insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.locked().registrations.remove(&fd);
            Ok(())
        }

        pub(crate) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let park = match timeout {
                Some(d) => d.min(SLICE),
                None => SLICE,
            };
            let deadline = Instant::now() + park;
            let mut st = self.locked();
            while !st.notified {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, _) = self
                    .wake
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
            }
            st.notified = false;
            for (_, &(token, interest)) in st.registrations.iter() {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                    error: false,
                });
            }
            Ok(events.len())
        }

        pub(crate) fn notify(&self) -> io::Result<()> {
            self.locked().notified = true;
            self.wake.notify_all();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::thread;
    use std::time::Instant;

    fn pollers() -> Vec<Poller> {
        let mut v = vec![Poller::new_fallback()];
        if cfg!(target_os = "linux") {
            let p = Poller::new().expect("epoll");
            if p.backend_name() == "epoll" {
                v.push(p);
            }
        }
        v
    }

    #[test]
    fn reports_a_readable_listener_on_both_backends() {
        for poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");
            poller
                .register(listener.as_raw_fd(), 7, Interest::READABLE)
                .expect("register");

            // Nothing pending: epoll must time out empty; the fallback
            // over-approximates, which is allowed, so only assert the
            // epoll backend here.
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            if poller.backend_name() == "epoll" {
                assert!(events.is_empty(), "no connection yet");
            }

            let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("conn");
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut saw = false;
            while Instant::now() < deadline && !saw {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .expect("wait");
                saw = events.iter().any(|e| e.token == 7 && e.readable);
            }
            assert!(
                saw,
                "pending accept must surface as readable (backend {})",
                poller.backend_name()
            );
            poller.deregister(listener.as_raw_fd()).expect("deregister");
        }
    }

    #[test]
    fn notify_wakes_a_parked_wait_quickly() {
        for poller in pollers() {
            let poller = std::sync::Arc::new(poller);
            let waker = poller.clone();
            let handle = thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                waker.notify().expect("notify");
            });
            let started = Instant::now();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(30)))
                .expect("wait");
            // Fallback waits park at most SLICE per call, so both
            // backends come back well under the 30s timeout.
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "notify must cut the wait short (backend {})",
                poller.backend_name()
            );
            handle.join().expect("join waker");
        }
    }

    #[test]
    fn notify_events_never_leak_a_sentinel_token() {
        for poller in pollers() {
            poller.notify().expect("notify");
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            assert!(
                events.iter().all(|e| e.token != usize::MAX),
                "internal wake token must stay internal (backend {})",
                poller.backend_name()
            );
        }
    }

    #[test]
    fn write_interest_fires_on_a_connected_socket() {
        for poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let mut client =
                TcpStream::connect(listener.local_addr().expect("addr")).expect("conn");
            let (_server_side, _) = listener.accept().expect("accept");
            client.set_nonblocking(true).expect("nonblocking");
            client.write_all(b"x").expect("prime");
            poller
                .register(client.as_raw_fd(), 3, Interest::BOTH)
                .expect("register");
            let mut events = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut writable = false;
            while Instant::now() < deadline && !writable {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .expect("wait");
                writable = events.iter().any(|e| e.token == 3 && e.writable);
            }
            assert!(
                writable,
                "an idle connected socket is writable (backend {})",
                poller.backend_name()
            );
            poller.deregister(client.as_raw_fd()).expect("deregister");
        }
    }

    #[test]
    fn reregister_swaps_token_and_interest() {
        for poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");
            poller
                .register(listener.as_raw_fd(), 1, Interest::READABLE)
                .expect("register");
            poller
                .reregister(listener.as_raw_fd(), 9, Interest::READABLE)
                .expect("reregister");
            let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("conn");
            let mut events = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut token = None;
            while Instant::now() < deadline && token.is_none() {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .expect("wait");
                token = events.iter().find(|e| e.readable).map(|e| e.token);
            }
            assert_eq!(token, Some(9), "backend {}", poller.backend_name());
        }
    }
}
