//! A small MPMC channel for the worker pool and the threaded collector.
//!
//! Both need two things the standard library's `mpsc` does not provide
//! together: multiple consumers (workers draining one queue) and
//! disconnect detection on both sides for structured shutdown. A bounded
//! channel blocks its senders when full (backpressure, never loss). It is
//! implemented in-repo on `Mutex` + `Condvar` so the workspace stays
//! dependency-free and bit-reproducible.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// The sending half is disconnected: every receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// The receiving half found the channel empty and every sender gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    capacity: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The producing half of a channel. Cloneable; the channel disconnects for
/// receivers once every clone is dropped.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The consuming half of a channel. Cloneable (workers share one queue);
/// the channel disconnects for senders once every clone is dropped.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// A channel holding at most `capacity` queued items.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(capacity))
}

/// A channel with no queue bound (test and tooling use).
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Inner<T> {
    /// Locks the state, recovering from poisoning: a worker that panicked
    /// while holding the lock leaves a structurally intact queue, and the
    /// collector's graceful-degradation contract is to keep going.
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn is_full(&self, state: &State<T>) -> bool {
        self.capacity.is_some_and(|cap| state.queue.len() >= cap)
    }
}

impl<T> Sender<T> {
    /// Blocks until the value is enqueued or every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.inner.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            if !self.inner.is_full(&state) {
                state.queue.push_back(value);
                drop(state);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .inner
                .not_full
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until an item arrives or every sender is gone and the queue
    /// is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.inner.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .inner
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pops an item if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.inner.lock();
        let v = state.queue.pop_front();
        if v.is_some() {
            drop(state);
            self.inner.not_full.notify_one();
        }
        v
    }

    /// Blocking iterator: yields until the channel disconnects and drains.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }
}

/// Iterator over received items; ends at disconnect-and-drained.
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.lock().receivers += 1;
        Receiver {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.inner.lock();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            // Wake every blocked receiver so it can observe disconnection.
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.inner.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            self.inner.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bounded_blocks_then_resumes() {
        let (tx, rx) = bounded(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn disconnected_receiver_fails_sends() {
        let (tx, rx) = bounded(4);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn receivers_drain_after_senders_drop() {
        let (tx, rx) = bounded(4);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn multiple_consumers_partition_the_stream() {
        let (tx, rx) = bounded(16);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.iter().count())
            })
            .collect();
        drop(rx);
        for i in 0..300 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 300);
    }
}
