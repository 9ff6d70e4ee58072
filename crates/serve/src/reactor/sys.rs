//! Raw epoll syscalls — the whole OS surface of the reactor.
//!
//! The workspace is dependency-free by design (no `libc`, no `mio`), so
//! the three epoll entry points the event loop needs are issued directly
//! with inline assembly, wrapped in a safe [`Epoll`] handle that owns the
//! epoll file descriptor. Everything else the reactor touches
//! (nonblocking sockets, accept, read, write) goes through `std`, which
//! already surfaces `WouldBlock`; only the readiness *multiplexer* has no
//! std API.
//!
//! Portability notes:
//! - `epoll_pwait` is used instead of `epoll_wait` because aarch64 has no
//!   plain `epoll_wait` syscall; with a null sigmask the two are
//!   equivalent.
//! - `epoll_event` is packed on x86_64 (kernel ABI) and naturally aligned
//!   elsewhere.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

pub const EPOLLIN: u32 = 0x1;
pub const EPOLLOUT: u32 = 0x4;
pub const EPOLLERR: u32 = 0x8;
pub const EPOLLHUP: u32 = 0x10;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: u64 = 0x80000;

/// The kernel's `struct epoll_event`: 32-bit event mask plus 64 bits of
/// caller data (the reactor stores its connection token there).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// The readiness mask (copied out — the struct may be packed).
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The token registered with [`Epoll::add`].
    pub fn token(&self) -> u64 {
        self.data
    }
}

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const EPOLL_CTL: u64 = 233;
    pub const EPOLL_PWAIT: u64 = 281;
    pub const EPOLL_CREATE1: u64 = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EPOLL_CREATE1: u64 = 20;
    pub const EPOLL_CTL: u64 = 21;
    pub const EPOLL_PWAIT: u64 = 22;
}

/// Issues a raw syscall and maps the kernel's `-errno` convention into
/// `io::Result`.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(
    nr: u64,
    a1: u64,
    a2: u64,
    a3: u64,
    a4: u64,
    a5: u64,
    a6: u64,
) -> io::Result<u64> {
    let ret: i64;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret as u64)
    }
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(
    nr: u64,
    a1: u64,
    a2: u64,
    a3: u64,
    a4: u64,
    a5: u64,
    a6: u64,
) -> io::Result<u64> {
    let ret: i64;
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
    }
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret as u64)
    }
}

/// An owned epoll instance. Dropping it closes the epoll fd (via
/// [`OwnedFd`]), which deregisters everything.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; on success it returns
        // a fresh fd that we immediately take ownership of.
        let fd = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0)? };
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let ev_ptr = event
            .as_ref()
            .map_or(std::ptr::null(), |e| e as *const EpollEvent);
        // SAFETY: `ev_ptr` is either null (DEL, allowed since 2.6.9) or
        // points at a live EpollEvent for the duration of the call; the
        // kernel copies it before returning.
        unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as u64,
                op as u64,
                fd as u64,
                ev_ptr as u64,
                0,
                0,
            )?;
        }
        Ok(())
    }

    /// Registers `fd` for `events`, tagging readiness reports with
    /// `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events,
                data: token,
            }),
        )
    }

    /// Re-arms an already-registered `fd` with a new event mask.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events,
                data: token,
            }),
        )
    }

    /// Deregisters `fd`. (Closing the fd does this implicitly; explicit
    /// removal keeps the interest list tidy while the socket is still
    /// open.)
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) for readiness; fills
    /// `events` and returns how many entries are valid. `EINTR` is
    /// reported as zero events rather than an error — the caller's tick
    /// loop re-enters anyway.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a live, writable slice; `epoll_pwait` with
        // a null sigmask never reads the sigsetsize argument.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd.as_raw_fd() as u64,
                events.as_mut_ptr() as u64,
                events.len() as u64,
                timeout_ms as u64,
                0, // sigmask: null — plain epoll_wait semantics
                8, // sigsetsize (ignored with a null mask)
            )
        };
        match ret {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_reports_readability_with_the_registered_token() {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        epoll.add(listener.as_raw_fd(), 42, EPOLLIN).unwrap();

        // Nothing pending: a zero-timeout wait reports no events.
        let mut events = [EpollEvent::default(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        // A connection attempt makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        let n = epoll.wait(&mut events, 2_000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        // Accept, register the peer, and see its data arrive.
        let (peer, _) = listener.accept().unwrap();
        epoll
            .add(peer.as_raw_fd(), 7, EPOLLIN | EPOLLRDHUP)
            .unwrap();
        client.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 2_000).unwrap();
        assert!(n >= 1);
        assert!((0..n).any(|i| events[i].token() == 7));

        // MOD to write-interest: an idle socket's buffer is writable.
        epoll.modify(peer.as_raw_fd(), 7, EPOLLOUT).unwrap();
        let n = epoll.wait(&mut events, 2_000).unwrap();
        assert!((0..n).any(|i| events[i].token() == 7 && events[i].events() & EPOLLOUT != 0));

        epoll.del(peer.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}
