//! The epoll wait strategy: [`Driver::Reactor`](crate::Driver::Reactor)'s
//! half of every socket-reading thread.
//!
//! [`EpollWait`] is the [`Wait`] strategy of a thread that owns a TCP
//! [`PollIo`] — a shard worker ([`PolledWorker::run`](crate::polled))
//! or a server: where sleep-polling sleeps up to a tick and re-polls
//! everything, this blocks in `epoll_wait` with the caller's deadline
//! (the earliest live entry of a worker's timer heap, i.e. its soonest
//! [`ClientSession::next_wake`](lucky_core::runtime::ClientSession::next_wake);
//! a server has none) armed on a dedicated `timerfd`, so
//!
//! * an idle thread costs **zero** CPU (no tick, no park loop — it
//!   sleeps in the kernel until a command, a byte, or a timer), and
//! * a ready thread wakes in microseconds instead of up to one tick,
//!   and a *timer* wakes at nanosecond granularity instead of the
//!   whole-millisecond rounding `epoll_wait`'s timeout argument
//!   imposes (which used to cost ~0.5 ms/op on idle-sequential
//!   workloads vs sleep-polling's 500 µs tick).
//!
//! Registered interests:
//!
//! | token | fd | wakes the loop when |
//! |---|---|---|
//! | `TOKEN_WAKE` | eventfd | a job / server command is sent, or senders drop |
//! | `TOKEN_LISTENER` | the slot's listener | the router connects |
//! | `TOKEN_TIMER` | timerfd | the caller's deadline is due |
//! | `TOKEN_CONN + i` | accepted conn `i` | protocol bytes arrive |
//!
//! The eventfd belongs to the thread's [`Port`](crate::store): senders
//! put their item on the channel *then* write the eventfd.
//!
//! Every failure path degrades rather than dies: if no epoll instance
//! can be had (or the listener cannot register), [`EpollWait::new`]
//! fails and [`wait_strategy`] gives the thread the sleep-poll strategy;
//! if no timerfd can be had (or arming one fails), the wait falls back
//! to `epoll_wait`'s millisecond-rounded timeout; a connection that
//! fails to register is dropped alone. Each degradation counts one
//! [`NetStats::io_errors`](crate::NetStats::io_errors).

use crate::polled::{PollIo, Sink, SleepPoll, Wait};
use epoll::{Epoll, Events, TimerFd, WakeFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Token of the port's eventfd.
const TOKEN_WAKE: u64 = 0;
/// Token of the thread's loopback listener.
const TOKEN_LISTENER: u64 = 1;
/// Token of the deadline timerfd.
const TOKEN_TIMER: u64 = 2;
/// Base token of accepted connections: conn slab index `i` registers as
/// `TOKEN_CONN + i`.
const TOKEN_CONN: u64 = 3;

/// One thread's epoll set, plus what the last `epoll_wait` reported.
pub(crate) struct EpollWait {
    epoll: Epoll,
    /// Filled by [`Wait::wait`], consumed by the next [`Wait::input`].
    events: Events,
    /// `None` if no timerfd could be had: the wait then degrades to
    /// millisecond-rounded timeouts.
    timer: Option<TimerFd>,
    /// Whether `timer` may hold a setting: a thread that never has a
    /// deadline (a server) never pays to clear one.
    armed: bool,
    /// The eventfd the thread's [`Port`](crate::store)s write.
    wake: Arc<WakeFd>,
    /// A shard worker's share of `NetStats::reactor_wakeups`: counts
    /// every `epoll_wait` return, pinning the idle-burns-nothing
    /// property in tests. Servers pass `None` and stay out of it.
    wakeups: Option<Arc<AtomicU64>>,
}

impl EpollWait {
    /// Build the epoll set: wake eventfd + listener + deadline timerfd.
    /// `Err(())` means no reactor is possible here and the caller picks
    /// another strategy; a missing *timer* alone is not fatal (the wait
    /// degrades to millisecond-rounded timeouts, counted as one
    /// io_error).
    fn new(
        io: &PollIo,
        wake: Arc<WakeFd>,
        wakeups: Option<Arc<AtomicU64>>,
    ) -> Result<EpollWait, ()> {
        let epoll = Epoll::new().map_err(|_| ())?;
        epoll.add(wake.as_ref(), TOKEN_WAKE).map_err(|_| ())?;
        // A degraded PollIo (listener lost at setup, None here) already
        // counted its io_error; the reactor still runs for commands and
        // timers so queued ops fail by deadline instead of hanging.
        if let Some(listener) = io.listener() {
            epoll.add(listener, TOKEN_LISTENER).map_err(|_| ())?;
        }
        let timer = TimerFd::new().ok().and_then(|t| epoll.add(&t, TOKEN_TIMER).ok().map(|()| t));
        if timer.is_none() {
            io.io_error("no timerfd; epoll timeouts round up to whole milliseconds");
        }
        Ok(EpollWait { epoll, events: Events::new(), timer, armed: false, wake, wakeups })
    }
}

/// The strategy for a thread that reads `io` and whose port writes
/// `wake`: epoll if there is an eventfd and an epoll set can be built
/// around it, sleep-polling otherwise (a failed build is counted).
pub(crate) fn wait_strategy(
    io: &PollIo,
    wake: Option<Arc<WakeFd>>,
    wakeups: Option<Arc<AtomicU64>>,
) -> Box<dyn Wait> {
    match wake.map(|wake| EpollWait::new(io, wake, wakeups)) {
        Some(Ok(epoll)) => Box::new(epoll),
        Some(Err(())) => {
            io.io_error("no epoll set; sleep-polling");
            Box::new(SleepPoll)
        }
        None => Box::new(SleepPoll),
    }
}

impl Wait for EpollWait {
    /// Read exactly what the last `epoll_wait` reported: accept (and
    /// register) on the listener, drain each ready connection.
    fn input(&mut self, io: &mut PollIo, sink: Sink<'_>) {
        for event in self.events.iter() {
            match event.token {
                TOKEN_WAKE | TOKEN_TIMER => {}
                TOKEN_LISTENER => {
                    for i in io.accept_new() {
                        let Some(stream) = io.conn_stream(i) else { continue };
                        if self.epoll.add(stream, TOKEN_CONN + i as u64).is_err() {
                            // One that fails to register is dropped alone.
                            io.io_error("accepted connection cannot join the epoll set; dropped");
                            io.drop_conn(i);
                            continue;
                        }
                        // Bytes may have raced ahead of the registration:
                        // level-triggered epoll would report them anyway,
                        // but a read here costs nothing and simplifies
                        // reasoning.
                        io.read_conn(i, sink);
                    }
                }
                // A dropped conn's fd closed with it, which deregistered
                // it from the epoll set; the slab hole is reused (and
                // re-registered) by the next accept.
                token => io.read_conn((token - TOKEN_CONN) as usize, sink),
            }
        }
    }

    /// Sleep in the kernel until IO, a port send, or the deadline. The
    /// timer is a timerfd armed with the *exact* delay (re-armed every
    /// call — settime replaces the old setting and clears stale
    /// expiry), so the wait itself can block indefinitely at full
    /// precision. No timer fd (or a failed arm) falls back to
    /// epoll_wait's millisecond-rounded timeout; no deadline at all →
    /// block until the eventfd or a socket wakes us.
    fn wait(&mut self, io: &PollIo, delay: Option<Duration>) {
        let timeout = match (&self.timer, delay) {
            (Some(t), Some(d)) => {
                if t.arm(d).is_ok() {
                    self.armed = true;
                    None
                } else {
                    Some(d)
                }
            }
            (Some(t), None) => {
                if std::mem::take(&mut self.armed) {
                    let _ = t.disarm();
                }
                None
            }
            (None, d) => d,
        };
        if self.epoll.wait(&mut self.events, timeout).is_err() {
            io.io_error("epoll_wait failed; backing off");
            std::thread::sleep(Duration::from_millis(1));
            return;
        }
        if let Some(wakeups) = &self.wakeups {
            wakeups.fetch_add(1, Ordering::Relaxed);
        }
        // The eventfd is drained here, before the loop drains the port's
        // queue: a sender queues its item and *then* writes the eventfd,
        // so whatever this read clears is already queued, and a later
        // write leaves the eventfd readable for the next wait.
        for event in self.events.iter() {
            match event.token {
                TOKEN_WAKE => self.wake.drain(),
                TOKEN_TIMER => {
                    if let Some(t) = &self.timer {
                        t.drain();
                    }
                }
                _ => {}
            }
        }
    }

    fn interruptible(&self) -> bool {
        true
    }
}
