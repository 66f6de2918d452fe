//! Offline stand-in for the `crossbeam` crate.
//!
//! Only [`channel`] is provided: unbounded multi-producer multi-consumer
//! channels with clonable senders *and* receivers, timeouts and disconnect
//! detection — the subset the SDG runtime uses (its deployment output
//! sink). The implementation is a `Mutex<VecDeque>` with one condvar that
//! is signalled only when a receiver is waiting on it: a futex wake costs
//! a syscall even with nobody to wake, an order of magnitude more than the
//! uncontended lock.

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

        /// Receives an item, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
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
