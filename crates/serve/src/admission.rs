//! Admission control: a fair FIFO gate in front of the shared workers.
//!
//! The service runs at most `max_inflight` attempts at once; beyond that,
//! arrivals wait in a bounded ticket queue and are admitted strictly in
//! arrival order (no barging: a releasing permit wakes the *head* ticket,
//! not whichever thread the scheduler favours). A full queue rejects
//! immediately with [`Rejection::Overloaded`] — the classified 503 the
//! fleet driver counts — instead of letting latency grow without bound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why the gate refused an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Queue full: the service is saturated.
    Overloaded,
    /// The gate is closed for drain; no new work is admitted.
    ShuttingDown,
    /// The arrival waited past its deadline without reaching the head.
    TimedOut,
}

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    /// Tickets of waiting arrivals, head = next admitted.
    queue: VecDeque<u64>,
    next_ticket: u64,
    closed: bool,
}

/// Counters the status endpoint reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateStats {
    pub inflight: usize,
    pub queued: usize,
    pub admitted: u64,
    pub rejected_overloaded: u64,
    /// Highest queue depth observed.
    pub peak_queued: usize,
}

/// The admission gate. One per daemon.
#[derive(Debug)]
pub struct Gate {
    max_inflight: usize,
    max_queue: usize,
    state: Mutex<GateState>,
    turnstile: Condvar,
    admitted: AtomicU64,
    rejected_overloaded: AtomicU64,
    peak_queued: AtomicU64,
}

impl Gate {
    /// A gate admitting `max_inflight` concurrent holders with room for
    /// `max_queue` waiters behind them (both clamped to >= 1).
    pub fn new(max_inflight: usize, max_queue: usize) -> Gate {
        Gate {
            max_inflight: max_inflight.max(1),
            max_queue: max_queue.max(1),
            state: Mutex::new(GateState::default()),
            turnstile: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            peak_queued: AtomicU64::new(0),
        }
    }

    /// Wait for admission, FIFO-fair, up to `deadline`. On success the
    /// returned [`Permit`] holds one in-flight slot until dropped.
    pub fn acquire(&self, deadline: Duration) -> Result<Permit<'_>, Rejection> {
        let mut state = self.state.lock().expect("gate poisoned");
        if state.closed {
            return Err(Rejection::ShuttingDown);
        }
        // Fast path: a free slot and nobody queued ahead.
        if state.inflight < self.max_inflight && state.queue.is_empty() {
            state.inflight += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Permit { gate: self });
        }
        if state.queue.len() >= self.max_queue {
            self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(Rejection::Overloaded);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(ticket);
        self.peak_queued
            .fetch_max(state.queue.len() as u64, Ordering::Relaxed);

        let started = std::time::Instant::now();
        loop {
            let at_head = state.queue.front() == Some(&ticket);
            if state.closed {
                state.queue.retain(|&t| t != ticket);
                // Wake the others so they observe the closure too.
                self.turnstile.notify_all();
                return Err(Rejection::ShuttingDown);
            }
            if at_head && state.inflight < self.max_inflight {
                state.queue.pop_front();
                state.inflight += 1;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                // The next waiter may also fit (multiple releases can land
                // between wakes); pass the baton.
                self.turnstile.notify_all();
                return Ok(Permit { gate: self });
            }
            let waited = started.elapsed();
            if waited >= deadline {
                state.queue.retain(|&t| t != ticket);
                self.turnstile.notify_all();
                return Err(Rejection::TimedOut);
            }
            let (next, timeout) = self
                .turnstile
                .wait_timeout(state, deadline - waited)
                .expect("gate poisoned");
            state = next;
            if timeout.timed_out() {
                state.queue.retain(|&t| t != ticket);
                self.turnstile.notify_all();
                return Err(Rejection::TimedOut);
            }
        }
    }

    /// Close the gate: current holders finish, every waiter and every
    /// future arrival gets [`Rejection::ShuttingDown`].
    pub fn close(&self) {
        let mut state = self.state.lock().expect("gate poisoned");
        state.closed = true;
        drop(state);
        self.turnstile.notify_all();
    }

    /// Block until no permit is held (the drain barrier). Every released
    /// permit notifies the turnstile, so this wakes exactly when the count
    /// moves.
    pub fn wait_idle(&self) {
        let mut state = self.state.lock().expect("gate poisoned");
        while state.inflight > 0 {
            state = self.turnstile.wait(state).expect("gate poisoned");
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> GateStats {
        let state = self.state.lock().expect("gate poisoned");
        GateStats {
            inflight: state.inflight,
            queued: state.queue.len(),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            peak_queued: self.peak_queued.load(Ordering::Relaxed) as usize,
        }
    }
}

/// One in-flight slot; releasing wakes the queue head.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("gate poisoned");
        state.inflight = state.inflight.saturating_sub(1);
        drop(state);
        self.gate.turnstile.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    const LONG: Duration = Duration::from_secs(5);

    #[test]
    fn admits_up_to_capacity_then_queues() {
        let gate = Gate::new(2, 4);
        let a = gate.acquire(LONG).unwrap();
        let _b = gate.acquire(LONG).unwrap();
        assert_eq!(gate.stats().inflight, 2);
        // Third waits; with a tiny deadline it times out.
        assert_eq!(
            gate.acquire(Duration::from_millis(10)).unwrap_err(),
            Rejection::TimedOut
        );
        drop(a);
        let _c = gate.acquire(LONG).unwrap();
        assert_eq!(gate.stats().admitted, 3);
    }

    #[test]
    fn full_queue_rejects_as_overloaded() {
        let gate = Arc::new(Gate::new(1, 1));
        let _holder = gate.acquire(LONG).unwrap();
        // Park one waiter to fill the queue.
        let g = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g.acquire(LONG).map(|_| ()).unwrap_err());
        while gate.stats().queued == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            gate.acquire(Duration::from_millis(5)).unwrap_err(),
            Rejection::Overloaded
        );
        assert_eq!(gate.stats().rejected_overloaded, 1);
        gate.close();
        assert_eq!(waiter.join().unwrap(), Rejection::ShuttingDown);
    }

    #[test]
    fn admission_is_fifo_fair() {
        let gate = Arc::new(Gate::new(1, 16));
        let order = Arc::new(Mutex::new(Vec::new()));
        let holder = gate.acquire(LONG).unwrap();
        let mut threads = Vec::new();
        for i in 0..6 {
            let g = Arc::clone(&gate);
            let o = Arc::clone(&order);
            threads.push(std::thread::spawn(move || {
                let permit = g.acquire(LONG).unwrap();
                o.lock().unwrap().push(i);
                drop(permit);
            }));
            // Serialise arrivals so the expected order is deterministic.
            while gate.stats().queued != i + 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(holder);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn close_drains_and_refuses_new_arrivals() {
        let gate = Arc::new(Gate::new(2, 8));
        let running = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for _ in 0..2 {
            let g = Arc::clone(&gate);
            let r = Arc::clone(&running);
            threads.push(std::thread::spawn(move || {
                let permit = g.acquire(LONG).unwrap();
                r.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                drop(permit);
            }));
        }
        while running.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.close();
        assert_eq!(gate.acquire(LONG).unwrap_err(), Rejection::ShuttingDown);
        gate.wait_idle();
        assert_eq!(gate.stats().inflight, 0);
        for t in threads {
            t.join().unwrap();
        }
    }
}
