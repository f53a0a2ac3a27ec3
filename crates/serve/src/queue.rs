//! Bounded job queue with admission control.
//!
//! The queue is the service's backpressure point: connection handlers
//! `try_push` (never block — a full queue is an immediate HTTP 429 with
//! `Retry-After`), workers `pop` one job at a time in FIFO order.
//! `close` flips drain mode: pushes are refused but pops keep returning
//! queued jobs until the queue is empty, so a graceful shutdown finishes
//! everything that was admitted.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// Queue at capacity (HTTP 429); the job is handed back.
    Full(T),
    /// Queue closed for drain (HTTP 503); the job is handed back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC queue.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> Bounded<T> {
    /// Queue admitting at most `cap` items.
    pub fn new(cap: usize) -> Bounded<T> {
        Bounded {
            state: Mutex::new(State { items: VecDeque::with_capacity(cap.min(1024)), closed: false }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Non-blocking admission; returns the new depth on success.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Pop the oldest item, blocking (in `poll`-sized waits, so closing
    /// wakes us promptly) until one is available. Returns `None` only
    /// when the queue is closed *and* empty.
    pub fn pop(&self, poll: Duration) -> Option<T> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(x) = s.items.pop_front() {
                return Some(x);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait_timeout(s, poll).expect("queue poisoned").0;
        }
    }

    /// Refuse new pushes; wake all waiting workers.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const POLL: Duration = Duration::from_millis(20);

    #[test]
    fn admission_control_rejects_when_full() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        q.close();
        assert!(matches!(q.try_push(4), Err(PushError::Closed(4))));
    }

    #[test]
    fn pop_is_fifo_one_at_a_time() {
        let q = Bounded::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop(POLL), Some(0));
        assert_eq!(q.len(), 9);
        let rest: Vec<i32> = (0..9).map(|_| q.pop(POLL).unwrap()).collect();
        assert_eq!(rest, (1..10).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.pop(POLL), Some(1));
        assert_eq!(q.pop(POLL), Some(2));
        assert!(q.pop(POLL).is_none());
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop(POLL));
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert!(h.join().unwrap().is_none());
    }
}
