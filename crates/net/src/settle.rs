//! The one way a result reaches the caller that asked for it: a oneshot
//! cell whose [`Settle`] half a shard worker (or a server thread) holds
//! and whose [`Receipt`] half sits behind `OpTicket`, and so `OpFuture`.
//!
//! One `Arc` holds a condvar and, under a mutex, the state. A settle
//! stores the value, then wakes the thread blocked in
//! [`Receipt::wait_for`] or the task whose [`Receipt::poll`] found the
//! cell empty; that poll left its waker under the same lock, so no
//! settle is missed. A `Settle` dropped unsettled closes the cell, which
//! wakes the same way and reads as `None`: every path that drops a job
//! still resolves its caller.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

/// A fresh, empty cell: the half that settles it and the half that
/// reads it.
pub(crate) fn oneshot<T>() -> (Settle<T>, Receipt<T>) {
    let cell = Arc::new(Cell {
        state: Mutex::new(State::Pending { waker: None, parked: false }),
        ready: Condvar::new(),
    });
    (Settle(Some(Arc::clone(&cell))), Receipt(cell))
}

struct Cell<T> {
    state: Mutex<State<T>>,
    /// Notified only while a thread is parked on it: a notify costs a
    /// syscall even with no waiter.
    ready: Condvar,
}

enum State<T> {
    /// Not settled yet: the waker of the task that polled last, and
    /// whether a thread is blocked on the condvar.
    Pending { waker: Option<Waker>, parked: bool },
    /// Settled with a value (`Some`), or closed unsettled (`None`).
    Done(Option<T>),
}

impl<T> Cell<T> {
    /// Every update under the lock leaves a valid state, so a guard
    /// poisoned by a panic under it (a waker's or a value's clone) is
    /// safe to take back, and `Settle`'s drop must not panic.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Store `value`, then, with the lock released, wake the waiter.
    fn finish(&self, value: Option<T>) {
        let was = std::mem::replace(&mut *self.lock(), State::Done(value));
        if let State::Pending { waker, parked } = was {
            if parked {
                self.ready.notify_one();
            }
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }
}

/// The writing half: settle it once, or drop it to close the cell.
pub(crate) struct Settle<T>(Option<Arc<Cell<T>>>);

impl<T> Settle<T> {
    pub(crate) fn settle(mut self, value: T) {
        if let Some(cell) = self.0.take() {
            cell.finish(Some(value));
        }
    }
}

impl<T> Drop for Settle<T> {
    fn drop(&mut self) {
        if let Some(cell) = self.0.take() {
            cell.finish(None);
        }
    }
}

/// The reading half. A closed cell reads as `None`.
pub(crate) struct Receipt<T>(Arc<Cell<T>>);

impl<T: Clone> Receipt<T> {
    /// `true` once the cell is settled or closed.
    pub(crate) fn is_done(&self) -> bool {
        matches!(*self.0.lock(), State::Done(_))
    }

    /// The value, ready once the cell is done and again on every later
    /// poll; pending, the cell keeps `cx`'s waker for the settle to wake.
    pub(crate) fn poll(&self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        match &mut *self.0.lock() {
            State::Done(value) => Poll::Ready(value.clone()),
            State::Pending { waker: Some(waker), .. } => {
                waker.clone_from(cx.waker());
                Poll::Pending
            }
            State::Pending { waker, .. } => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    /// Block until the cell is done, for at most `timeout` (`None`: no
    /// limit): `None` if it is still pending then, else the value, which
    /// stays in the cell.
    pub(crate) fn wait_for(&self, timeout: Option<Duration>) -> Option<Option<T>> {
        let mut state = self.0.lock();
        if let State::Pending { parked, .. } = &mut *state {
            *parked = true;
        }
        let pending = |s: &mut State<T>| matches!(s, State::Pending { .. });
        let mut state = match timeout {
            None => self.0.ready.wait_while(state, pending).unwrap_or_else(PoisonError::into_inner),
            Some(t) => {
                self.0
                    .ready
                    .wait_timeout_while(state, t, pending)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
        match &mut *state {
            State::Done(value) => Some(value.clone()),
            State::Pending { parked, .. } => {
                *parked = false;
                None
            }
        }
    }
}

impl<T> std::fmt::Debug for Receipt<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receipt").field("done", &matches!(*self.0.lock(), State::Done(_))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Wake;
    use std::time::Instant;

    /// Counts its wakes.
    #[derive(Default)]
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Spin until a thread is blocked in `receipt`'s condvar wait: what
    /// makes the tests below settle a cell with its waiter parked.
    fn await_parked<T>(receipt: &Receipt<T>) {
        while !matches!(*receipt.0.lock(), State::Pending { parked: true, .. }) {
            std::thread::yield_now();
        }
    }

    /// Poll `receipt` once with a counting waker; the counter and the
    /// poll's result.
    fn poll_counting(receipt: &Receipt<u32>) -> (Arc<CountingWaker>, Poll<Option<u32>>) {
        let count = Arc::new(CountingWaker::default());
        let waker = Waker::from(Arc::clone(&count));
        let polled = receipt.poll(&mut Context::from_waker(&waker));
        (count, polled)
    }

    #[test]
    fn a_value_settled_before_wait_is_returned() {
        let (settle, receipt) = oneshot();
        settle.settle(7u32);
        assert!(receipt.is_done());
        assert_eq!(receipt.wait_for(None), Some(Some(7)));
    }

    #[test]
    fn wait_returns_a_value_settled_from_another_thread() {
        let (settle, receipt) = oneshot();
        let receipt = Arc::new(receipt);
        let waiter = Arc::clone(&receipt);
        std::thread::scope(|s| {
            let waiting = s.spawn(move || waiter.wait_for(None));
            await_parked(&receipt);
            settle.settle(9u32);
            assert_eq!(waiting.join().unwrap(), Some(Some(9)));
        });
    }

    #[test]
    fn wait_for_times_out_while_pending_then_returns_the_value() {
        let (settle, receipt) = oneshot();
        let start = Instant::now();
        assert_eq!(receipt.wait_for(Some(Duration::from_millis(10))), None);
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert!(!receipt.is_done());
        settle.settle(3u32);
        assert_eq!(receipt.wait_for(Some(Duration::from_secs(10))), Some(Some(3)));
        // The value stays in the cell for every later read.
        assert_eq!(receipt.wait_for(Some(Duration::ZERO)), Some(Some(3)));
        assert_eq!(receipt.wait_for(None), Some(Some(3)));
    }

    #[test]
    fn a_dropped_settle_closes_the_cell() {
        let (settle, receipt) = oneshot::<u32>();
        drop(settle);
        assert!(receipt.is_done());
        assert_eq!(receipt.wait_for(Some(Duration::ZERO)), Some(None));
        assert_eq!(receipt.wait_for(None), Some(None));
        // Across threads, a blocked waiter is released by the drop.
        let (settle, receipt) = oneshot::<u32>();
        let receipt = Arc::new(receipt);
        let waiter = Arc::clone(&receipt);
        std::thread::scope(|s| {
            let waiting = s.spawn(move || waiter.wait_for(None));
            await_parked(&receipt);
            drop(settle);
            assert_eq!(waiting.join().unwrap(), Some(None));
        });
    }

    #[test]
    fn a_pending_poll_is_woken_exactly_once_by_a_settle() {
        let (settle, receipt) = oneshot();
        let (count, polled) = poll_counting(&receipt);
        assert_eq!(polled, Poll::Pending);
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        settle.settle(5u32);
        assert_eq!(count.0.load(Ordering::SeqCst), 1, "woken by the settle, and not again on drop");
        // Fused: every re-poll after ready returns the same value, and
        // registers nothing.
        for _ in 0..3 {
            let (again, polled) = poll_counting(&receipt);
            assert_eq!(polled, Poll::Ready(Some(5)));
            assert_eq!(again.0.load(Ordering::SeqCst), 0);
        }
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_pending_poll_is_woken_exactly_once_by_a_drop() {
        let (settle, receipt) = oneshot::<u32>();
        let (first, _) = poll_counting(&receipt);
        // A second poll replaces the registered waker: only the latest
        // task is woken.
        let (count, polled) = poll_counting(&receipt);
        assert_eq!(polled, Poll::Pending);
        drop(settle);
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        assert_eq!(first.0.load(Ordering::SeqCst), 0);
        assert_eq!(poll_counting(&receipt).1, Poll::Ready(None));
        assert_eq!(poll_counting(&receipt).1, Poll::Ready(None), "fused after a close too");
    }

    #[test]
    fn a_restart_ack_reads_none_when_its_settle_drops() {
        // The shape `NetStore::restart_server` reads: the server thread
        // acks with its new address, or drops the ack when it has none.
        let (ack, rebound) = oneshot::<std::net::SocketAddr>();
        drop(ack);
        assert_eq!(rebound.wait_for(Some(Duration::from_secs(5))).flatten(), None);
        let (ack, rebound) = oneshot();
        let addr: std::net::SocketAddr = "127.0.0.1:7".parse().unwrap();
        ack.settle(addr);
        assert_eq!(rebound.wait_for(Some(Duration::from_secs(5))).flatten(), Some(addr));
    }
}
