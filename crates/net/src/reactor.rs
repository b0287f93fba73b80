//! The epoll wait strategy: [`Driver::Reactor`](crate::Driver::Reactor)'s
//! half of the shard worker.
//!
//! [`EpollWait`] plugs into the one worker loop
//! ([`PolledWorker::run`]) as its [`Wait`] strategy: where
//! sleep-polling sleeps up to a tick and re-polls everything, this
//! blocks in `epoll_wait` with
//! [`ClientSession::next_wake`](lucky_core::runtime::ClientSession::next_wake)
//! armed on a dedicated `timerfd`, so
//!
//! * an idle worker costs **zero** CPU (no tick, no park loop — it
//!   sleeps in the kernel until a job, a byte, or a timer), and
//! * a ready worker wakes in microseconds instead of up to one tick,
//!   and a *timer* wakes at nanosecond granularity instead of the
//!   whole-millisecond rounding `epoll_wait`'s timeout argument
//!   imposes (which used to cost ~0.5 ms/op on idle-sequential
//!   workloads vs sleep-polling's 500 µs tick).
//!
//! Registered interests:
//!
//! | token | fd | wakes the loop when |
//! |---|---|---|
//! | `TOKEN_WAKE` | eventfd | a job is submitted / senders drop |
//! | `TOKEN_LISTENER` | the slot's listener | the router connects |
//! | `TOKEN_TIMER` | timerfd | the next session timer is due |
//! | `TOKEN_CONN + i` | accepted conn `i` | protocol bytes arrive |
//!
//! Job submission wakes the eventfd via [`JobPort`](crate::store): the
//! store's handles send on the job channel *then* write the eventfd.
//!
//! Every failure path degrades rather than dies: if no epoll instance
//! can be had (or the listener cannot register), [`EpollWait::new`]
//! fails and the store gives the worker the sleep-poll strategy; if no
//! timerfd can be had (or arming one fails), the wait falls back to
//! `epoll_wait`'s millisecond-rounded timeout; a connection that fails
//! to register is dropped alone. Each degradation counts one
//! [`NetStats::io_errors`](crate::NetStats::io_errors).

use crate::polled::{PolledWorker, Wait};
use epoll::{Epoll, Events, TimerFd, WakeFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Token of the job-submission eventfd.
const TOKEN_WAKE: u64 = 0;
/// Token of the worker's loopback listener.
const TOKEN_LISTENER: u64 = 1;
/// Token of the session-deadline timerfd.
const TOKEN_TIMER: u64 = 2;
/// Base token of accepted connections: conn slab index `i` registers as
/// `TOKEN_CONN + i`.
const TOKEN_CONN: u64 = 3;

/// One shard worker's epoll set, plus what the last `epoll_wait`
/// reported.
pub(crate) struct EpollWait {
    epoll: Epoll,
    /// Filled by [`Wait::wait`], consumed by the next [`Wait::input`].
    events: Events,
    /// `None` if no timerfd could be had: the wait then degrades to
    /// millisecond-rounded timeouts.
    timer: Option<TimerFd>,
    /// The eventfd the store's [`JobPort`](crate::store)s write.
    wake: Arc<WakeFd>,
    /// Shared with `NetStore::stats()`: counts every `epoll_wait`
    /// return, pinning the idle-burns-nothing property in tests.
    wakeups: Arc<AtomicU64>,
}

impl EpollWait {
    /// Build the epoll set: wake eventfd + listener + deadline timerfd.
    /// `Err(())` means no reactor is possible here and the caller picks
    /// another strategy; a missing *timer* alone is not fatal (the wait
    /// degrades to millisecond-rounded timeouts, counted as one
    /// io_error).
    pub(crate) fn new(
        worker: &PolledWorker,
        wake: Arc<WakeFd>,
        wakeups: Arc<AtomicU64>,
    ) -> Result<EpollWait, ()> {
        let epoll = Epoll::new().map_err(|_| ())?;
        epoll.add(wake.as_ref(), TOKEN_WAKE).map_err(|_| ())?;
        // A degraded PollIo (listener lost at setup, None here) already
        // counted its io_error; the reactor still runs for jobs + timers
        // so queued ops fail by deadline instead of hanging forever.
        if let Some(listener) = worker.listener() {
            epoll.add(listener, TOKEN_LISTENER).map_err(|_| ())?;
        }
        let timer = TimerFd::new().ok().and_then(|t| epoll.add(&t, TOKEN_TIMER).ok().map(|()| t));
        if timer.is_none() {
            worker.stats.lock().io_errors += 1;
        }
        Ok(EpollWait { epoll, events: Events::new(), timer, wake, wakeups })
    }
}

impl Wait for EpollWait {
    /// Read exactly what the last `epoll_wait` reported: accept (and
    /// register) on the listener, drain each ready connection.
    fn input(&mut self, worker: &mut PolledWorker) {
        for event in self.events.iter() {
            match event.token {
                TOKEN_WAKE | TOKEN_TIMER => {}
                TOKEN_LISTENER => {
                    for i in worker.accept_new() {
                        let Some(stream) = worker.conn_stream(i) else { continue };
                        if self.epoll.add(stream, TOKEN_CONN + i as u64).is_err() {
                            // One that fails to register is dropped alone.
                            worker.stats.lock().io_errors += 1;
                            worker.drop_conn(i);
                            continue;
                        }
                        // Bytes may have raced ahead of the registration:
                        // level-triggered epoll would report them anyway,
                        // but a read here costs nothing and simplifies
                        // reasoning.
                        worker.read_conn(i);
                    }
                }
                // A dropped conn's fd closed with it, which deregistered
                // it from the epoll set; the slab hole is reused (and
                // re-registered) by the next accept.
                token => worker.read_conn((token - TOKEN_CONN) as usize),
            }
        }
    }

    /// Sleep in the kernel until IO, a job, or the next session timer.
    /// The timer is a timerfd armed with the *exact* next-wake delay
    /// (re-armed every call — settime replaces the old setting and
    /// clears stale expiry), so the wait itself can block indefinitely
    /// at full precision. No timer fd (or a failed arm) falls back to
    /// epoll_wait's millisecond-rounded timeout; no deadline at all →
    /// block until the eventfd or a socket wakes us.
    fn wait(&mut self, worker: &mut PolledWorker) {
        let delay = worker.next_wake_delay();
        let timeout = match (&self.timer, delay) {
            (Some(t), Some(d)) => {
                if t.arm(d).is_ok() {
                    None
                } else {
                    Some(d)
                }
            }
            (Some(t), None) => {
                let _ = t.disarm();
                None
            }
            (None, d) => d,
        };
        if self.epoll.wait(&mut self.events, timeout).is_err() {
            worker.stats.lock().io_errors += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
            return;
        }
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        // The eventfd is drained here, before the loop drains the job
        // queue: a submission sends its job and *then* writes the
        // eventfd, so whatever this read clears is already queued, and
        // a later write leaves the eventfd readable for the next wait.
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
}
