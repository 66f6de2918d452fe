//! Offline stand-in for the `crossbeam` crate.
//!
//! Only [`channel`] is provided: unbounded multi-producer multi-consumer
//! channels with clonable senders *and* receivers, timeouts and disconnect
//! detection — the subset the SDG runtime uses (its deployment output
//! sink). The implementation is a `Mutex<VecDeque>` with one condvar that
//! is signalled only when a receiver is waiting on it: a futex wake costs
//! a syscall even with nobody to wake, an order of magnitude more than the
//! uncontended lock.
//!
//! One addition has no counterpart in crates.io `crossbeam`:
//! [`Sender::send_batch`](channel::Sender::send_batch) queues many items
//! under one lock with at most one wake. A TE instance hands the outputs
//! of a whole pool slice to the sink that way. Swapping the real crate in
//! would mean a loop of `send`: on the KV read path such a loop kept about
//! a third of the batch's saving in CPU per request, and the client woke
//! nearly as often as with a send per emit (EXPERIMENTS.md, "ISSUE 49").

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled when an item is pushed or the last sender leaves, if a
        /// receiver is waiting.
        not_empty: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `not_empty`.
        waiting: usize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, Inner<T>> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned when sending on a channel with no receivers left.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait hit the deadline with the channel still empty.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                waiting: 0,
            }),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Sends `value`; never blocks.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            let wake = inner.waiting > 0;
            drop(inner);
            if wake {
                self.shared.not_empty.notify_one();
            }
            Ok(())
        }

        /// Sends every item of `batch` in order, never blocking: one lock
        /// for the whole batch, and one notify only if a receiver waits.
        /// An empty batch takes no lock. With no receiver left nothing is
        /// queued and the unsent items come back in the error.
        pub fn send_batch<I>(&self, batch: I) -> Result<(), SendError<I::IntoIter>>
        where
            I: IntoIterator<Item = T>,
            I::IntoIter: ExactSizeIterator,
        {
            let batch = batch.into_iter();
            if batch.len() == 0 {
                return Ok(());
            }
            let mut inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(SendError(batch));
            }
            inner.queue.extend(batch);
            let wake = inner.waiting > 0;
            drop(inner);
            if wake {
                // The batch may hold an item for every waiting receiver.
                self.shared.not_empty.notify_all();
            }
            Ok(())
        }

        /// Number of queued items (racy, for monitoring only).
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// `true` when no items are queued (racy, for monitoring only).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receives an item, blocking until one arrives or all senders are
        /// dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.waiting += 1;
                inner = self
                    .shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
                inner.waiting -= 1;
            }
        }

        /// Receives an item, waiting at most `timeout`. The clock is read
        /// only once the queue is found empty: a receiver that keeps up
        /// with a busy channel pays no clock read per item.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let mut deadline = None;
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + timeout);
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.waiting += 1;
                let (guard, _) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
                inner.waiting -= 1;
            }
        }

        /// Receives an item if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of queued items (racy, for monitoring only).
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// `true` when no items are queued (racy, for monitoring only).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let wake = {
                let mut inner = self.shared.lock();
                inner.senders -= 1;
                inner.senders == 0 && inner.waiting > 0
            };
            if wake {
                // Wake receivers blocked on an empty queue so they observe
                // the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.lock().receivers -= 1;
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Sender {{ len: {} }}", self.len())
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Receiver {{ len: {} }}", self.len())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        /// Blocks until `n` receivers of `rx`'s channel are waiting.
        fn await_waiting<T>(rx: &Receiver<T>, n: usize) {
            while rx.shared.lock().waiting < n {
                thread::yield_now();
            }
        }

        #[test]
        fn unbounded_roundtrip_across_threads() {
            let (tx, rx) = unbounded();
            let h = thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
            h.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn blocked_receiver_wakes_on_send() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let h = thread::spawn(move || rx2.recv());
            // The send happens only once the receiver is counted as
            // waiting, so it must notify, or the join never returns.
            await_waiting(&rx, 1);
            tx.send(5).unwrap();
            assert_eq!(h.join().unwrap(), Ok(5));
            assert_eq!(rx.shared.lock().waiting, 0);
        }

        #[test]
        fn blocked_timed_receiver_wakes_on_send() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let h = thread::spawn(move || rx2.recv_timeout(Duration::from_secs(60)));
            await_waiting(&rx, 1);
            tx.send(6).unwrap();
            assert_eq!(h.join().unwrap(), Ok(6));
        }

        #[test]
        fn blocked_receiver_wakes_on_disconnect() {
            let (tx, rx) = unbounded::<i32>();
            let rx2 = rx.clone();
            let h = thread::spawn(move || rx2.recv());
            await_waiting(&rx, 1);
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn recv_reports_disconnect() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            assert_eq!(rx.shared.lock().waiting, 0);
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        }

        #[test]
        fn send_to_dropped_receiver_fails() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn batches_and_single_sends_keep_their_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send_batch(vec![2, 3, 4]).unwrap();
            tx.send_batch(Vec::new()).unwrap();
            tx.send(5).unwrap();
            tx.send_batch([6]).unwrap();
            tx.send_batch(vec![7, 8]).unwrap();
            let got: Vec<i32> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
            assert_eq!(got, (1..=8).collect::<Vec<_>>());
        }

        #[test]
        fn blocked_receiver_wakes_on_a_batch() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let h = thread::spawn(move || rx2.recv());
            // Sent only once the receiver is counted as waiting: the batch
            // must notify, or the join never returns.
            await_waiting(&rx, 1);
            tx.send_batch(vec![5, 6]).unwrap();
            assert_eq!(h.join().unwrap(), Ok(5));
            assert_eq!(rx.try_recv(), Ok(6));
        }

        #[test]
        fn blocked_timed_receiver_wakes_on_a_batch() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let h = thread::spawn(move || rx2.recv_timeout(Duration::from_secs(60)));
            await_waiting(&rx, 1);
            tx.send_batch(vec![7]).unwrap();
            assert_eq!(h.join().unwrap(), Ok(7));
            assert_eq!(rx.shared.lock().waiting, 0);
        }

        #[test]
        fn batch_to_dropped_receiver_fails_and_queues_nothing() {
            let (tx, rx) = unbounded();
            drop(rx);
            let SendError(unsent) = tx.send_batch(vec![1, 2, 3]).unwrap_err();
            assert_eq!(unsent.collect::<Vec<_>>(), vec![1, 2, 3]);
            assert!(tx.is_empty());
            assert!(
                tx.send_batch(Vec::new()).is_ok(),
                "an empty batch sends nothing"
            );
        }

        #[test]
        fn cloned_receivers_share_the_queue() {
            let (tx, rx1) = unbounded();
            let rx2 = rx1.clone();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let a = rx1.recv().unwrap();
            let b = rx2.recv().unwrap();
            assert_eq!(a + b, 3);
        }
    }
}
