//! The serving tier's only unsafe surface: raw `epoll`, `eventfd` and
//! `listen` bindings.
//!
//! The serving tier deliberately carries no async runtime — the protocol
//! is one line in, one line out, and the tier needs exactly five kernel
//! facilities: create an epoll instance, register/modify/remove
//! interest, wait for readiness, a self-wake fd so worker threads can
//! nudge a blocked `epoll_wait`, and a listening socket whose accept queue
//! is deeper than std's 128 ([`bind_listener`]). Binding those five
//! directly keeps the unsafe code small enough to audit in one sitting
//! (every call site passes kernel-owned plain-old-data and checks the
//! return value) and keeps the vendored-dependency constraint intact.
//!
//! Everything here is Linux-specific; the crate targets the deployment
//! platform, not portability.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

use std::os::raw::c_int;

/// Readiness: data to read (or a pending accept).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Readiness: the socket's send buffer has room again.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never requested).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// Accept-queue depth asked of `listen`; the kernel clamps it to
/// `net.core.somaxconn`.
const LISTEN_BACKLOG: c_int = 4096;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs it
/// (no padding between `events` and `data`); other architectures use the
/// natural layout.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// The kernel's `struct epoll_event` (naturally aligned variant).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Binds a TCP listener with a [`LISTEN_BACKLOG`]-deep accept queue.
///
/// std's `TcpListener::bind` listens with a backlog of 128. A burst of
/// more connects than that, arriving while the reactor is busy, overflows
/// the queue; the kernel drops each overflowing SYN, and the client's
/// kernel retries it only after 1 s, then 3 s. Calling `listen` again on
/// the already-listening socket resizes its queue in place.
pub(crate) fn bind_listener(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    // SAFETY: listen takes two integers and no pointers; the fd is a live
    // socket owned by `listener`, which outlives the call.
    cvt(unsafe { listen(listener.as_raw_fd(), LISTEN_BACKLOG) })?;
    Ok(listener)
}

/// An owned epoll instance.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes a flag word and returns a fresh fd
        // (or -1); no pointers cross the boundary.
        let raw = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `raw` is a freshly created fd we exclusively own.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(raw) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live stack value of the kernel's expected
        // layout; the kernel copies it before returning. For DEL the
        // pointer is ignored (we still pass a valid one for pre-2.6.9
        // kernel compatibility, as epoll_ctl(2) advises).
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for `events`, tagging readiness with `token`.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of a registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest set.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout_ms` (`-1` = forever), filling
    /// `events`. Returns the number of ready entries. `Interrupted` is
    /// surfaced to the caller (who just loops).
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a live, writable slice of the kernel's
        // expected event layout; the kernel writes at most `len` entries.
        let n = cvt(unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        })?;
        Ok(n as usize)
    }
}

/// A nonblocking eventfd used to wake a blocked [`Epoll::wait`] from
/// another thread. Cloneable via `try_clone` on the write side.
#[derive(Debug)]
pub(crate) struct WakeFd {
    file: File,
}

impl WakeFd {
    /// Creates the eventfd (counter starts at zero).
    pub(crate) fn new() -> io::Result<WakeFd> {
        // SAFETY: eventfd takes plain integers and returns a fresh fd.
        let raw = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: `raw` is a freshly created fd we exclusively own.
        Ok(WakeFd {
            file: unsafe { File::from_raw_fd(raw) },
        })
    }

    /// The fd to register with epoll (level-triggered `EPOLLIN` fires
    /// while the counter is non-zero).
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Adds 1 to the counter, waking a blocked waiter. Infallible by
    /// design: the only failure on a nonblocking eventfd is `EAGAIN` at
    /// counter saturation, which already means "a wake is pending".
    pub(crate) fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.file).write(&one);
    }

    /// Drains the counter so level-triggered readiness stops firing.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::Duration;

    #[test]
    fn wakefd_wakes_and_drains() {
        let epoll = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        epoll.add(wake.raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: a zero timeout returns immediately with no
        // events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        wake.wake();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);

        wake.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn socket_readiness_is_reported_with_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 42).unwrap();

        let _client = TcpStream::connect(addr).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 42);
        assert_ne!({ events[0].events } & EPOLLIN, 0);

        // Interest can be modified and removed.
        epoll
            .modify(listener.as_raw_fd(), EPOLLIN | EPOLLOUT, 43)
            .unwrap();
        epoll.delete(listener.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn bound_listener_queues_a_burst_beyond_std_backlog() {
        // Nothing accepts: every connect below must complete into the
        // accept queue. Past a 128-deep queue the kernel drops the SYN
        // and the first retry comes after 1 s, beyond the timeout.
        let listener = bind_listener("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _burst: Vec<TcpStream> = (0..512)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .unwrap_or_else(|e| panic!("connect {i} into the accept queue: {e}"))
            })
            .collect();
    }
}
