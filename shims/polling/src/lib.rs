//! Offline stand-in for `polling 3` — see `shims/README.md`.
//!
//! A minimal readiness API over Linux `epoll`, in the spirit of the
//! `polling` crate's `Poller`/`Event` surface (mio's core loop, reduced
//! to what a readiness server actually needs):
//!
//! - [`Poller`] — an epoll instance: `add`/`modify`/`delete` file
//!   descriptors under an [`Interest`], `wait` for batches of [`Event`]s.
//! - [`Waker`] — a pipe-backed wakeup: any thread calls
//!   [`Waker::wake`], the poller's `wait` returns with the waker's key.
//!
//! Everything goes through **raw syscalls** (`core::arch::asm!`) — the
//! same no-new-deps rule as the other shims means no `libc`. All
//! registrations are **level-triggered**: an event keeps firing while
//! the condition holds, so a handler that reads only part of a socket's
//! buffered data is re-notified on the next `wait` instead of hanging.
//! Spurious wakeups are possible (e.g. `EINTR` surfaces as an empty
//! wait); callers must re-check their own state after every `wait`.
//!
//! Only Linux on x86_64/aarch64 has a real implementation; elsewhere the
//! crate compiles but every constructor returns
//! [`std::io::ErrorKind::Unsupported`], keeping the workspace buildable
//! on platforms the serving stack does not target.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Raw syscall layer

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    /// The kernel's `struct epoll_event`. x86_64 packs it (a 12-byte
    /// struct); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;

    const EPOLL_CLOEXEC: usize = 0o2000000; // == O_CLOEXEC
    const O_CLOEXEC: usize = 0o2000000;
    const O_NONBLOCK: usize = 0o4000;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
        pub const PIPE2: usize = 293;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
        pub const CLOSE: usize = 57;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EPOLL_CREATE1: usize = 20;
        pub const PIPE2: usize = 59;
    }

    /// One raw syscall. The kernel returns a negative errno in-band; the
    /// callers below translate it into `io::Error`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall(n: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall(n: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a0 => ret,
            in("x1") a1,
            in("x2") a2,
            in("x3") a3,
            in("x4") a4,
            in("x5") 0usize,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    pub fn epoll_create1() -> io::Result<RawFd> {
        let ret = unsafe { syscall(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as RawFd)
    }

    fn epoll_ctl(epfd: RawFd, op: usize, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        // DEL takes a null event pointer; ADD/MOD pass the registration.
        let ptr = match &event {
            Some(ev) => ev as *const EpollEvent as usize,
            None => 0,
        };
        let ret = unsafe { syscall(nr::EPOLL_CTL, epfd as usize, op, fd as usize, ptr, 0) };
        check(ret).map(|_| ())
    }

    pub fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, key: u64) -> io::Result<()> {
        epoll_ctl(epfd, EPOLL_CTL_ADD, fd, Some(EpollEvent { events, data: key }))
    }

    pub fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, key: u64) -> io::Result<()> {
        epoll_ctl(epfd, EPOLL_CTL_MOD, fd, Some(EpollEvent { events, data: key }))
    }

    pub fn epoll_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
        epoll_ctl(epfd, EPOLL_CTL_DEL, fd, None)
    }

    /// Waits for events; `timeout_ms < 0` blocks indefinitely. An
    /// `EINTR`-interrupted wait reports zero events (a spurious wakeup)
    /// rather than an error.
    pub fn epoll_wait(epfd: RawFd, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        const EINTR: i32 = 4;
        let ret = unsafe {
            syscall(
                nr::EPOLL_PWAIT,
                epfd as usize,
                buf.as_mut_ptr() as usize,
                buf.len(),
                timeout_ms as usize,
                0, // no signal mask
            )
        };
        match check(ret) {
            Err(e) if e.raw_os_error() == Some(EINTR) => Ok(0),
            other => other,
        }
    }

    /// A close-on-exec, non-blocking pipe: `(read_fd, write_fd)`.
    pub fn pipe2() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as RawFd; 2];
        let ret = unsafe {
            syscall(nr::PIPE2, fds.as_mut_ptr() as usize, O_CLOEXEC | O_NONBLOCK, 0, 0, 0)
        };
        check(ret)?;
        Ok((fds[0], fds[1]))
    }

    pub fn read(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
        let ret =
            unsafe { syscall(nr::READ, fd as usize, buf.as_mut_ptr() as usize, buf.len(), 0, 0) };
        check(ret)
    }

    pub fn write(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
        let ret =
            unsafe { syscall(nr::WRITE, fd as usize, buf.as_ptr() as usize, buf.len(), 0, 0) };
        check(ret)
    }

    pub fn close(fd: RawFd) {
        let _ = unsafe { syscall(nr::CLOSE, fd as usize, 0, 0, 0, 0) };
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod sys {
    //! Build-only stub for platforms without the raw-syscall backend:
    //! every entry point fails with `Unsupported` at runtime.

    use std::io;
    use std::os::fd::RawFd;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the polling shim only implements Linux x86_64/aarch64",
        ))
    }

    pub fn epoll_create1() -> io::Result<RawFd> {
        unsupported()
    }
    pub fn epoll_add(_: RawFd, _: RawFd, _: u32, _: u64) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_mod(_: RawFd, _: RawFd, _: u32, _: u64) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_del(_: RawFd, _: RawFd) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_wait(_: RawFd, _: &mut [EpollEvent], _: i32) -> io::Result<usize> {
        unsupported()
    }
    pub fn pipe2() -> io::Result<(RawFd, RawFd)> {
        unsupported()
    }
    pub fn read(_: RawFd, _: &mut [u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn write(_: RawFd, _: &[u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn close(_: RawFd) {}
}

// ---------------------------------------------------------------------------
// Public API

/// What readiness conditions a registration subscribes to. Combine with
/// [`Interest::or`] (or `|`). `EPOLLERR`/`EPOLLHUP` are always reported
/// by the kernel regardless of interest; [`Interest::PEER_HANGUP`] adds
/// `EPOLLRDHUP`, which fires as soon as the peer shuts down its write
/// side — the signal a server uses to notice a client disconnect while
/// it is *not* reading the socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// No subscribed condition (error/hangup still delivered).
    pub const NONE: Interest = Interest(0);
    /// The fd has bytes to read (or an acceptable connection).
    pub const READABLE: Interest = Interest(sys::EPOLLIN);
    /// The fd can accept writes without blocking.
    pub const WRITABLE: Interest = Interest(sys::EPOLLOUT);
    /// The peer closed its write side (`EPOLLRDHUP`).
    pub const PEER_HANGUP: Interest = Interest(sys::EPOLLRDHUP);

    /// The union of two interests.
    pub const fn or(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether every condition in `other` is subscribed in `self`.
    pub const fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }

    fn bits(self) -> u32 {
        self.0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.or(rhs)
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    key: u64,
    bits: u32,
}

impl Event {
    /// The `key` the fd was registered under.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Readable (includes a pending accept on a listener).
    pub fn readable(&self) -> bool {
        self.bits & sys::EPOLLIN != 0
    }

    /// Writable without blocking.
    pub fn writable(&self) -> bool {
        self.bits & sys::EPOLLOUT != 0
    }

    /// The peer hung up: full hangup (`EPOLLHUP`) or the peer closed its
    /// write side (`EPOLLRDHUP`).
    pub fn hangup(&self) -> bool {
        self.bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0
    }

    /// An error condition is pending on the fd (`EPOLLERR`).
    pub fn error(&self) -> bool {
        self.bits & sys::EPOLLERR != 0
    }
}

/// Reusable event buffer for [`Poller::wait`].
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events { buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity], len: 0 }
    }

    /// Events delivered by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|ev| {
            // Copy out of the (possibly packed) kernel struct before use.
            let (events, data) = (ev.events, ev.data);
            Event { key: data, bits: events }
        })
    }

    /// How many events the last wait delivered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last wait delivered nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forgets the last wait's events.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events").field("capacity", &self.buf.len()).field("len", &self.len).finish()
    }
}

/// An epoll instance. All registrations are level-triggered; `&self`
/// methods are safe to call from any thread (the kernel serializes
/// `epoll_ctl` against `epoll_wait`).
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { epfd: sys::epoll_create1()? })
    }

    /// Registers `fd` under `key` with `interest`. The caller keeps
    /// ownership of the fd and must [`Poller::delete`] it before closing
    /// it (a closed-but-registered fd is silently unregistered by the
    /// kernel once its last duplicate goes away, but an explicit delete
    /// keeps key reuse unambiguous).
    pub fn add(&self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_add(self.epfd, fd, interest.bits(), key)
    }

    /// Replaces the interest (and key) of an already-registered fd.
    pub fn modify(&self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_mod(self.epfd, fd, interest.bits(), key)
    }

    /// Unregisters an fd.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_del(self.epfd, fd)
    }

    /// Blocks until at least one event is ready, the timeout elapses
    /// (`Ok(0)`), or a signal interrupts the wait (also `Ok(0)` — a
    /// spurious wakeup). `None` waits indefinitely. Sub-millisecond
    /// timeouts round up to 1 ms so a short deadline never busy-spins.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) if d.is_zero() => 0,
            Some(d) => {
                let ms = d.as_millis();
                if ms == 0 {
                    1
                } else {
                    i32::try_from(ms).unwrap_or(i32::MAX)
                }
            }
        };
        let n = sys::epoll_wait(self.epfd, &mut events.buf, timeout_ms)?;
        events.len = n;
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

/// Wakes a [`Poller::wait`] from any thread, via a non-blocking pipe
/// whose read end is registered in the poller.
///
/// `wake` writes one byte; the owning loop sees a readable event under
/// the waker's key and calls [`Waker::drain`] to swallow the buffered
/// bytes. A full pipe still counts as a wake (the loop has not drained
/// yet, so it is already due to wake), and multiple wakes may coalesce
/// into one event — wake consumers must re-check their own queues, not
/// count events.
#[derive(Debug)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// A waker registered in `poller` under `key` (readable interest).
    pub fn new(poller: &Poller, key: u64) -> io::Result<Waker> {
        let (read_fd, write_fd) = sys::pipe2()?;
        if let Err(e) = poller.add(read_fd, key, Interest::READABLE) {
            sys::close(read_fd);
            sys::close(write_fd);
            return Err(e);
        }
        Ok(Waker { read_fd, write_fd })
    }

    /// Makes the poller's current (or next) `wait` return. Never blocks:
    /// a full pipe means a wake is already pending and reports success.
    pub fn wake(&self) -> io::Result<()> {
        const EAGAIN: i32 = 11;
        match sys::write(self.write_fd, &[1u8]) {
            Ok(_) => Ok(()),
            Err(e) if e.raw_os_error() == Some(EAGAIN) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Swallows all buffered wake bytes; called by the owning loop after
    /// it observes the waker's event, so the level-triggered
    /// registration stops firing.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = sys::read(self.read_fd, &mut buf) {
            if n < buf.len() {
                break;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close(self.read_fd);
        sys::close(self.write_fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    /// A connected local socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn readable_fires_when_data_arrives_and_clears_when_drained() {
        let poller = Poller::new().expect("poller");
        let (mut client, mut server) = pair();
        poller.add(server.as_raw_fd(), 7, Interest::READABLE).expect("add");

        // Nothing buffered yet: a short wait times out empty.
        let mut events = Events::with_capacity(8);
        poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
        assert!(events.is_empty(), "no data, no event");

        client.write_all(b"ping").expect("write");
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        let ev = events.iter().next().expect("one event");
        assert_eq!(ev.key(), 7);
        assert!(ev.readable());
        assert!(!ev.hangup());

        // Level-triggered: the event repeats until the data is drained.
        poller.wait(&mut events, Some(Duration::from_millis(50))).expect("wait");
        assert_eq!(events.iter().next().expect("still readable").key(), 7);
        let mut buf = [0u8; 16];
        let n = server.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");
        poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
        assert!(events.is_empty(), "drained socket stops firing");
    }

    #[test]
    fn writable_fires_immediately_on_a_fresh_socket() {
        let poller = Poller::new().expect("poller");
        let (client, _server) = pair();
        poller.add(client.as_raw_fd(), 3, Interest::WRITABLE).expect("add");
        let mut events = Events::with_capacity(4);
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        let ev = events.iter().next().expect("event");
        assert_eq!(ev.key(), 3);
        assert!(ev.writable());
    }

    #[test]
    fn modify_switches_the_subscribed_condition() {
        let poller = Poller::new().expect("poller");
        let (mut client, server) = pair();
        client.write_all(b"x").expect("write");
        // Subscribed to WRITABLE only: buffered inbound data must not
        // surface as readable.
        poller.add(server.as_raw_fd(), 1, Interest::WRITABLE).expect("add");
        let mut events = Events::with_capacity(4);
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        let ev = events.iter().next().expect("event");
        assert!(ev.writable() && !ev.readable());

        poller.modify(server.as_raw_fd(), 2, Interest::READABLE).expect("modify");
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        let ev = events.iter().next().expect("event");
        assert_eq!(ev.key(), 2, "modify re-keys the registration");
        assert!(ev.readable() && !ev.writable());
    }

    #[test]
    fn deleted_fds_stop_reporting() {
        let poller = Poller::new().expect("poller");
        let (mut client, server) = pair();
        poller.add(server.as_raw_fd(), 9, Interest::READABLE).expect("add");
        poller.delete(server.as_raw_fd()).expect("delete");
        client.write_all(b"late").expect("write");
        let mut events = Events::with_capacity(4);
        poller.wait(&mut events, Some(Duration::from_millis(30))).expect("wait");
        assert!(events.is_empty(), "deleted registration must not fire");
    }

    #[test]
    fn peer_close_surfaces_as_hangup() {
        let poller = Poller::new().expect("poller");
        let (client, server) = pair();
        poller
            .add(server.as_raw_fd(), 5, Interest::READABLE.or(Interest::PEER_HANGUP))
            .expect("add");
        drop(client);
        let mut events = Events::with_capacity(4);
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        let ev = events.iter().next().expect("event");
        assert_eq!(ev.key(), 5);
        assert!(ev.hangup(), "peer close must surface as hangup, got {ev:?}");
    }

    #[test]
    fn hangup_is_reported_even_under_rdhup_only_interest() {
        // The disconnect-watch mode: a conn whose request is dispatched
        // subscribes to PEER_HANGUP alone, so buffered pipelined bytes
        // don't busy-loop the poller but a disconnect still surfaces.
        let poller = Poller::new().expect("poller");
        let (mut client, server) = pair();
        client.write_all(b"pipelined").expect("write");
        poller.add(server.as_raw_fd(), 6, Interest::PEER_HANGUP).expect("add");
        let mut events = Events::with_capacity(4);
        poller.wait(&mut events, Some(Duration::from_millis(20))).expect("wait");
        assert!(events.is_empty(), "buffered data alone must not fire under PEER_HANGUP");
        drop(client);
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert!(events.iter().next().expect("event").hangup());
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = std::sync::Arc::new(Poller::new().expect("poller"));
        let waker = std::sync::Arc::new(Waker::new(&poller, u64::MAX).expect("waker"));
        let waiter = {
            let poller = std::sync::Arc::clone(&poller);
            std::thread::spawn(move || {
                let mut events = Events::with_capacity(4);
                let started = Instant::now();
                poller.wait(&mut events, Some(Duration::from_secs(10))).expect("wait");
                let key = events.iter().next().map(|e| e.key());
                (started.elapsed(), key)
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        waker.wake().expect("wake");
        let (elapsed, key) = waiter.join().expect("join");
        assert!(elapsed < Duration::from_secs(5), "the wake cut the wait short");
        assert_eq!(key, Some(u64::MAX));
    }

    #[test]
    fn wakes_coalesce_and_drain_resets() {
        let poller = Poller::new().expect("poller");
        let waker = Waker::new(&poller, 42).expect("waker");
        for _ in 0..100 {
            waker.wake().expect("wake never blocks");
        }
        let mut events = Events::with_capacity(4);
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(events.iter().next().expect("event").key(), 42);
        waker.drain();
        poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
        assert!(events.is_empty(), "drained waker stops firing");
        // And the waker still works after a drain.
        waker.wake().expect("wake");
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn empty_wait_times_out() {
        let poller = Poller::new().expect("poller");
        let mut events = Events::with_capacity(4);
        let started = Instant::now();
        let n = poller.wait(&mut events, Some(Duration::from_millis(30))).expect("wait");
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_millis(25), "the timeout was honored");
    }
}
