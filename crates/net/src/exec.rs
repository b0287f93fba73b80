//! A minimal std-only executor, enough to drive [`OpFuture`]s.
//!
//! Two entry points:
//!
//! * [`block_on`] — run one future to completion on the calling thread
//!   (park/unpark based);
//! * [`Executor`] — a single-threaded run-queue multiplexing any number
//!   of spawned futures; [`run_all`] is the convenience wrapper that
//!   joins a batch of same-typed futures and returns their outputs.
//!
//! No reactor lives here: wakeups come from the store's worker threads,
//! which wake a polled [`OpFuture`] when they settle its op, so the
//! executor only needs a run queue. This is deliberate — the *IO*
//! reactor (epoll) runs inside the store's shard workers, and the
//! client-side executor stays a few dozen lines of std.
//!
//! [`OpFuture`]: crate::OpFuture

use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Wakes a parked [`block_on`] thread.
struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Run one future to completion on the calling thread.
///
/// Parks between polls; any waker clone (from whatever thread) unparks
/// it. Spurious unparks cost one extra poll, nothing more.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// Wakes an [`Executor`] task: pushes its id back on the run queue.
struct TaskWaker {
    id: usize,
    queue: Sender<usize>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        let _ = self.queue.send(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let _ = self.queue.send(self.id);
    }
}

/// A single-threaded run-queue executor: spawn any number of futures,
/// then [`Executor::run`] polls each exactly when woken until all
/// complete. Thousands of in-flight store operations multiplex on the
/// one calling thread this way.
pub struct Executor {
    tasks: Vec<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    ready_tx: Sender<usize>,
    ready_rx: Receiver<usize>,
    live: usize,
}

impl Executor {
    /// An empty executor.
    pub fn new() -> Executor {
        let (ready_tx, ready_rx) = channel();
        Executor { tasks: Vec::new(), ready_tx, ready_rx, live: 0 }
    }

    /// Queue `fut` for execution (first polled inside [`Executor::run`]).
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + Send + 'static) {
        let id = self.tasks.len();
        self.tasks.push(Some(Box::pin(fut)));
        self.live += 1;
        let _ = self.ready_tx.send(id);
    }

    /// Drive every spawned future to completion.
    pub fn run(&mut self) {
        while self.live > 0 {
            let id = self.ready_rx.recv().expect("executor holds a sender; never disconnects");
            let Some(task) = self.tasks[id].as_mut() else {
                continue; // spurious wake of a finished task
            };
            let waker = Waker::from(Arc::new(TaskWaker { id, queue: self.ready_tx.clone() }));
            let mut cx = Context::from_waker(&waker);
            if task.as_mut().poll(&mut cx).is_ready() {
                self.tasks[id] = None;
                self.live -= 1;
            }
        }
    }
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new()
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("tasks", &self.tasks.len())
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

/// Run a batch of same-typed futures to completion on the calling
/// thread and return their outputs in input order. The ergonomic way to
/// hold thousands of store operations in flight at once:
///
/// ```ignore
/// let results = run_all((0..5000).map(|i| handles[i].write_async(v(i))).collect());
/// ```
pub fn run_all<F>(futs: Vec<F>) -> Vec<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let n = futs.len();
    let out: Arc<parking_lot::Mutex<Vec<Option<F::Output>>>> =
        Arc::new(parking_lot::Mutex::new((0..n).map(|_| None).collect()));
    let mut exec = Executor::new();
    for (i, fut) in futs.into_iter().enumerate() {
        let out = Arc::clone(&out);
        exec.spawn(async move {
            let result = fut.await;
            out.lock()[i] = Some(result);
        });
    }
    exec.run();
    let results = std::mem::take(&mut *out.lock());
    results.into_iter().map(|r| r.expect("every task stored its output")).collect()
}
