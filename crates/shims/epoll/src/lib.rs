//! Minimal, dependency-free bindings to Linux `epoll` and `eventfd`.
//!
//! Unlike the other `crates/shims/` members this is not a stand-in for a
//! crates.io dependency: it is the workspace's **FFI isolation crate**.
//! `lucky-net` (and the facade) carry `#![forbid(unsafe_code)]`, so the
//! handful of raw `libc` calls a real reactor needs live here, behind a
//! safe, RAII, `std`-only API:
//!
//! * [`Epoll`] — an `epoll` instance: register file descriptors for
//!   level-triggered readability and block in [`Epoll::wait`] with an
//!   optional timeout (the reactor folds session timers into it).
//! * [`WakeFd`] — an `eventfd` used to wake a reactor blocked in
//!   `epoll_wait` from another thread (job submission, shutdown).
//! * [`TimerFd`] — a `CLOCK_MONOTONIC` `timerfd` registered as an epoll
//!   interest: arming it with the exact next-deadline duration gives
//!   the reactor **nanosecond-granular** timeouts where `epoll_wait`'s
//!   own timeout argument rounds up to whole milliseconds.
//! * [`close_fd`] — a fault-injection helper: tests in `forbid(unsafe)`
//!   crates use it to kill the socket behind a descriptor (the number
//!   itself stays reserved) and exercise the graceful-degradation paths
//!   without any unsafe of their own.
//!
//! On non-Linux targets every constructor returns
//! [`std::io::ErrorKind::Unsupported`]; callers are expected to degrade
//! to their portable fallback (the net crate's sleep-capped poll loop).

#![warn(missing_docs, missing_debug_implementations)]

use std::time::Duration;

#[cfg(target_os = "linux")]
pub use imp::{close_fd, Epoll, TimerFd, WakeFd};
#[cfg(not(target_os = "linux"))]
pub use stub::{close_fd, Epoll, TimerFd, WakeFd};

/// One readiness notification out of [`Epoll::wait`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// The peer hung up or the descriptor errored: the registered fd
    /// should be read to EOF and deregistered.
    pub closed: bool,
}

/// Reusable buffer for [`Epoll::wait`] results.
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
}

impl Events {
    /// An empty result buffer (capacity grows on demand).
    pub fn new() -> Events {
        Events::default()
    }

    /// The events delivered by the most recent [`Epoll::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.inner.iter().copied()
    }

    /// Number of events delivered by the most recent wait.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` iff the most recent wait delivered nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Clamp an optional wait timeout to epoll's millisecond resolution,
/// rounding **up** so a timer due in 300µs blocks 1ms rather than
/// busy-spinning at 0ms; `None` means block indefinitely (`-1`).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Event, Events};
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::time::Duration;

    // `std` already links libc on Linux; these declarations only name
    // symbols the binary carries anyway.
    #[allow(non_camel_case_types)]
    type c_int = i32;
    #[allow(non_camel_case_types)]
    type c_uint = u32;

    /// Kernel ABI of one epoll event. Packed on x86-64 (the kernel's
    /// layout predates the arch's natural alignment), natural elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLLIN: u32 = 0x1;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;
    const CLOCK_MONOTONIC: c_int = 1;
    const TFD_CLOEXEC: c_int = 0o2000000;
    const TFD_NONBLOCK: c_int = 0o4000;
    const O_PATH: c_int = 0o10000000;
    const O_CLOEXEC: c_int = 0o2000000;

    /// Kernel ABI of one timerfd setting (two `struct timespec`s).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Itimerspec {
        it_interval: Timespec,
        it_value: Timespec,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
        fn timerfd_settime(
            fd: c_int,
            flags: c_int,
            new_value: *const Itimerspec,
            old_value: *mut Itimerspec,
        ) -> c_int;
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
        fn open(path: *const std::ffi::c_char, flags: c_int, ...) -> c_int;
        fn dup2(oldfd: c_int, newfd: c_int) -> c_int;
    }

    /// How many kernel events one `epoll_wait` call may deliver. More
    /// ready descriptors than this simply surface on the next call —
    /// level-triggered registration keeps them ready.
    const WAIT_BATCH: usize = 64;

    /// A Linux `epoll` instance (closed on drop).
    pub struct Epoll {
        fd: RawFd,
        /// FFI-side buffer reused across waits.
        buf: Vec<EpollEvent>,
    }

    impl std::fmt::Debug for Epoll {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Epoll").field("fd", &self.fd).finish_non_exhaustive()
        }
    }

    impl Epoll {
        /// Create a new epoll instance.
        ///
        /// # Errors
        ///
        /// The raw `epoll_create1` failure, e.g. fd exhaustion.
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd, buf: vec![EpollEvent { events: 0, data: 0 }; WAIT_BATCH] })
        }

        /// Register `fd` for level-triggered readability (and peer
        /// hang-up) under `token`.
        ///
        /// # Errors
        ///
        /// The raw `epoll_ctl` failure (e.g. `EBADF` for a sabotaged
        /// descriptor, `EEXIST` for a double registration).
        pub fn add(&self, fd: &impl AsRawFd, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: EPOLLIN | EPOLLRDHUP, data: token };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Deregister `fd`. Closing a descriptor removes it implicitly;
        /// this exists for descriptors that outlive their registration.
        ///
        /// # Errors
        ///
        /// The raw `epoll_ctl` failure.
        pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: `ev` outlives the call (ignored for DEL but must
            // be non-null on pre-2.6.9 ABIs).
            let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Block until at least one registered descriptor is ready or
        /// the timeout elapses (`None` blocks indefinitely; sub-ms
        /// timeouts round **up** to a millisecond). A signal interrupt
        /// returns `Ok` with zero events — callers re-derive their
        /// timeout and wait again, exactly as for a timeout.
        ///
        /// # Errors
        ///
        /// The raw `epoll_wait` failure (other than `EINTR`).
        pub fn wait(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
            events.inner.clear();
            // SAFETY: `buf` is WAIT_BATCH valid, writable EpollEvents.
            let n = unsafe {
                epoll_wait(self.fd, self.buf.as_mut_ptr(), WAIT_BATCH as i32, timeout_ms(timeout))
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                return if err.kind() == io::ErrorKind::Interrupted { Ok(()) } else { Err(err) };
            }
            for ev in &self.buf[..n as usize] {
                // Copy out of the (possibly packed) FFI struct before use.
                let (bits, token) = (ev.events, ev.data);
                events
                    .inner
                    .push(Event { token, closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `fd` is owned by this instance and closed once.
            unsafe { close(self.fd) };
        }
    }

    /// An `eventfd`-backed waker: any thread may [`WakeFd::wake`] it to
    /// make the registered-and-waiting epoll return, and the owning
    /// reactor [`WakeFd::drain`]s it before going back to sleep.
    #[derive(Debug)]
    pub struct WakeFd {
        fd: RawFd,
    }

    impl WakeFd {
        /// Create a nonblocking eventfd.
        ///
        /// # Errors
        ///
        /// The raw `eventfd` failure.
        pub fn new() -> io::Result<WakeFd> {
            // SAFETY: eventfd takes no pointers.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(WakeFd { fd })
        }

        /// Make the fd readable, waking a reactor blocked on it.
        /// Wakes coalesce (the counter saturates); errors are ignored —
        /// there is nothing a waker-side caller could do about them.
        pub fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: `one` is 8 valid bytes for the duration of the call.
            unsafe { write(self.fd, one.as_ptr(), one.len()) };
        }

        /// Consume pending wakes so the next `epoll_wait` blocks again.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: `buf` is 8 valid, writable bytes.
            unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
        }
    }

    impl AsRawFd for WakeFd {
        fn as_raw_fd(&self) -> RawFd {
            self.fd
        }
    }

    impl Drop for WakeFd {
        fn drop(&mut self) {
            // SAFETY: `fd` is owned by this instance and closed once.
            unsafe { close(self.fd) };
        }
    }

    /// A one-shot `CLOCK_MONOTONIC` timerfd, registered with an
    /// [`Epoll`] so its expiry wakes the reactor at **nanosecond**
    /// granularity — where `epoll_wait`'s own timeout argument rounds up
    /// to whole milliseconds (`timeout_ms`), the reactor arms this with
    /// the exact next session deadline and waits indefinitely.
    ///
    /// `timerfd_settime` replaces any previous setting and clears the
    /// expiration count, so re-arming every loop iteration never leaves
    /// a stale readable state behind.
    #[derive(Debug)]
    pub struct TimerFd {
        fd: RawFd,
    }

    impl TimerFd {
        /// Create a nonblocking monotonic timerfd.
        ///
        /// # Errors
        ///
        /// The raw `timerfd_create` failure.
        pub fn new() -> io::Result<TimerFd> {
            // SAFETY: timerfd_create takes no pointers.
            let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(TimerFd { fd })
        }

        /// Arm as a one-shot timer firing `after` from now, replacing
        /// any previous setting. A zero duration is clamped to one
        /// nanosecond so the timer still fires (a zero `it_value`
        /// would *disarm* instead).
        ///
        /// # Errors
        ///
        /// The raw `timerfd_settime` failure.
        pub fn arm(&self, after: Duration) -> io::Result<()> {
            let nanos = after.subsec_nanos() as i64;
            let spec = Timespec {
                tv_sec: after.as_secs().min(i64::MAX as u64) as i64,
                tv_nsec: if after.is_zero() { 1 } else { nanos },
            };
            self.settime(spec)
        }

        /// Disarm: no expiry until the next [`TimerFd::arm`]. Also
        /// clears any pending expiration count.
        ///
        /// # Errors
        ///
        /// The raw `timerfd_settime` failure.
        pub fn disarm(&self) -> io::Result<()> {
            self.settime(Timespec { tv_sec: 0, tv_nsec: 0 })
        }

        fn settime(&self, value: Timespec) -> io::Result<()> {
            let spec =
                Itimerspec { it_interval: Timespec { tv_sec: 0, tv_nsec: 0 }, it_value: value };
            // SAFETY: `spec` outlives the call; the kernel copies it.
            let rc = unsafe { timerfd_settime(self.fd, 0, &spec, std::ptr::null_mut()) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Consume the pending expiration count so a level-triggered
        /// registration blocks again.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: `buf` is 8 valid, writable bytes.
            unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
        }
    }

    impl AsRawFd for TimerFd {
        fn as_raw_fd(&self) -> RawFd {
            self.fd
        }
    }

    impl Drop for TimerFd {
        fn drop(&mut self) {
            // SAFETY: `fd` is owned by this instance and closed once.
            unsafe { close(self.fd) };
        }
    }

    /// Close the file behind a raw descriptor out from under its owner.
    /// **Fault injection only**: the socket (or whatever `fd` named) is
    /// closed, and the owner's next syscall on the descriptor fails with
    /// `EBADF` — which is exactly what the graceful-degradation tests in
    /// `forbid(unsafe_code)` crates need to provoke without unsafe of
    /// their own.
    ///
    /// The descriptor *number* stays taken: it is atomically re-pointed
    /// at an `O_PATH` handle, on which every IO call (`ioctl`, `accept`,
    /// `read`, `epoll_ctl`) answers `EBADF`. A plain `close` would free
    /// the number for the next `socket()` of any parallel test thread,
    /// and the owner's eventual drop would then close *that* socket; this
    /// way the owner's drop closes the placeholder, exactly once.
    pub fn close_fd(fd: RawFd) {
        // SAFETY: the path is a C string literal; `dup2` and
        // `close` take no pointers. `dup2` closes what `fd` named and
        // installs the placeholder in one step, so no other thread can
        // be handed the number in between.
        unsafe {
            let dead = open(c"/".as_ptr(), O_PATH | O_CLOEXEC);
            if dead >= 0 {
                dup2(dead, fd);
                close(dead);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod stub {
    use super::Events;
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "epoll requires Linux"))
    }

    /// Unsupported on this platform: every constructor fails.
    #[derive(Debug)]
    pub struct Epoll {}

    impl Epoll {
        /// Always fails with [`io::ErrorKind::Unsupported`].
        pub fn new() -> io::Result<Epoll> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn add(&self, _fd: &impl AsRawFd, _token: u64) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn delete(&self, _fd: &impl AsRawFd) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn wait(&mut self, _events: &mut Events, _timeout: Option<Duration>) -> io::Result<()> {
            unsupported()
        }
    }

    /// Unsupported on this platform: every constructor fails.
    #[derive(Debug)]
    pub struct WakeFd {}

    impl WakeFd {
        /// Always fails with [`io::ErrorKind::Unsupported`].
        pub fn new() -> io::Result<WakeFd> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn wake(&self) {}

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }

    impl AsRawFd for WakeFd {
        fn as_raw_fd(&self) -> RawFd {
            -1
        }
    }

    /// Unsupported on this platform: every constructor fails.
    #[derive(Debug)]
    pub struct TimerFd {}

    impl TimerFd {
        /// Always fails with [`io::ErrorKind::Unsupported`].
        pub fn new() -> io::Result<TimerFd> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn arm(&self, _after: Duration) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn disarm(&self) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }

    impl AsRawFd for TimerFd {
        fn as_raw_fd(&self) -> RawFd {
            -1
        }
    }

    /// No-op off Linux (the fault-injection tests are Linux-only).
    pub fn close_fd(_fd: RawFd) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn timeout_rounds_up_to_a_millisecond() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(999))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1001))), 2);
        assert_eq!(timeout_ms(Some(Duration::from_secs(1 << 40))), i32::MAX);
    }

    #[test]
    fn wait_times_out_with_no_events() {
        let mut ep = Epoll::new().unwrap();
        let mut events = Events::new();
        let start = Instant::now();
        ep.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(9), "the wait actually blocked");
    }

    #[test]
    fn readable_socket_surfaces_its_token() {
        let mut ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        ep.add(&rx, 7).unwrap();
        let mut events = Events::new();
        // Nothing written yet: a short wait delivers nothing.
        ep.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty());
        tx.write_all(b"hello").unwrap();
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev: Vec<Event> = events.iter().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, 7);
        assert!(!ev[0].closed);
        // Level-triggered: unread bytes keep the fd ready.
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn peer_hangup_is_flagged_closed() {
        let mut ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        ep.add(&rx, 3).unwrap();
        drop(tx);
        let mut events = Events::new();
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev: Vec<Event> = events.iter().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, 3);
        assert!(ev[0].closed, "EPOLLRDHUP/EPOLLHUP surfaces as closed");
    }

    #[test]
    fn wake_fd_wakes_and_drains() {
        let mut ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(&wake, 0).unwrap();
        let mut events = Events::new();
        ep.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty(), "unwoken wake fd is not readable");
        wake.wake();
        wake.wake(); // wakes coalesce
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events.iter().next().unwrap().token, 0);
        wake.drain();
        ep.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty(), "drained wake fd blocks again");
    }

    #[test]
    fn wake_from_another_thread_interrupts_an_indefinite_wait() {
        let mut ep = Epoll::new().unwrap();
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        ep.add(&*wake, 9).unwrap();
        let waker = std::sync::Arc::clone(&wake);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Events::new();
        ep.wait(&mut events, None).unwrap();
        assert_eq!(events.iter().next().unwrap().token, 9);
        t.join().unwrap();
    }

    #[test]
    fn timerfd_fires_at_sub_millisecond_granularity() {
        let mut ep = Epoll::new().unwrap();
        let timer = TimerFd::new().unwrap();
        ep.add(&timer, 5).unwrap();
        let mut events = Events::new();
        // Unarmed: nothing fires.
        ep.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty());
        // Armed at 300µs: an indefinite wait returns well under the
        // 1ms floor the epoll_wait timeout argument would impose.
        let start = Instant::now();
        timer.arm(Duration::from_micros(300)).unwrap();
        ep.wait(&mut events, None).unwrap();
        assert_eq!(events.iter().next().unwrap().token, 5);
        assert!(start.elapsed() >= Duration::from_micros(300), "the timer actually waited");
        // Drained: the level-triggered interest blocks again.
        timer.drain();
        ep.wait(&mut events, Some(Duration::from_millis(2))).unwrap();
        assert!(events.is_empty(), "drained timer is not readable");
        // Re-arming replaces the old setting and clears stale expiry.
        timer.arm(Duration::from_micros(100)).unwrap();
        std::thread::sleep(Duration::from_millis(2)); // expire, undrained
        timer.arm(Duration::from_secs(3600)).unwrap();
        ep.wait(&mut events, Some(Duration::from_millis(2))).unwrap();
        assert!(events.is_empty(), "settime cleared the stale expiration");
        // A zero-duration arm still fires (clamped to 1ns, not disarm).
        timer.arm(Duration::ZERO).unwrap();
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        // Disarm clears a pending expiry too.
        timer.disarm().unwrap();
        ep.wait(&mut events, Some(Duration::from_millis(2))).unwrap();
        assert!(events.is_empty(), "disarmed timer is quiet");
    }

    #[test]
    fn closed_fd_registration_fails_instead_of_panicking() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        close_fd(listener.as_raw_fd());
        let err = ep.add(&listener, 1).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(9), "EBADF from a sabotaged descriptor");
        // The number is still the listener's to close: nothing a parallel
        // test opened in the meantime can have been given it.
        let fd = listener.as_raw_fd();
        let other = TcpListener::bind("127.0.0.1:0").unwrap();
        assert_ne!(other.as_raw_fd(), fd, "the sabotaged number stays reserved");
    }
}
