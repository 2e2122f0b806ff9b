//! The engine's bounded multi-producer/multi-consumer work queue, built
//! on `Mutex` + `Condvar`.
//!
//! `push` blocks while the queue is at capacity — that blocking *is* the
//! service's backpressure: a submitter can never race ahead of the worker
//! pool by more than `capacity` jobs. Every push that had to wait at
//! least once bumps a stall counter, surfaced in the shutdown summary so
//! operators can see when the queue (not the workers) was the bottleneck.
//!
//! [`LaneQueue`] holds two classes under one shared capacity, an
//! interactive and a batch [`Lane`], popped by a deterministic 3:1
//! weighted pick so interactive traffic keeps moving while a batch
//! backlog exists but batch work is never starved. Single-lane traffic
//! is plain FIFO.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::admit::Lane;

struct LaneState<T> {
    interactive: VecDeque<T>,
    batch: VecDeque<T>,
    closed: bool,
    /// Successful pops so far — the deterministic clock of the weighted
    /// pick (`pops % 4 == 3` prefers batch).
    pops: u64,
}

impl<T> LaneState<T> {
    fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }
}

/// Bounded blocking MPMC queue with two priority lanes sharing one
/// capacity.
///
/// Pop order is a deterministic weighted pick over the *pop counter*
/// (not wall clock): every fourth pop prefers the batch lane, the rest
/// prefer interactive; when the preferred lane is empty the other lane
/// is taken. With single-lane traffic this degenerates to exact FIFO.
pub struct LaneQueue<T> {
    state: Mutex<LaneState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    stalls: AtomicU64,
}

impl<T> LaneQueue<T> {
    /// Creates a queue holding at most `capacity` items total (minimum
    /// 1), shared across both lanes.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            state: Mutex::new(LaneState {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                closed: false,
                pops: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            stalls: AtomicU64::new(0),
        }
    }

    /// Enqueues `item` on `lane`, blocking while the queue is full.
    /// Returns the item back if the queue was closed first.
    pub fn push(&self, item: T, lane: Lane) -> Result<(), T> {
        let mut st = self.state.lock().unwrap();
        let mut stalled = false;
        loop {
            if st.closed {
                return Err(item);
            }
            if st.len() < self.capacity {
                break;
            }
            if !stalled {
                stalled = true;
                self.stalls.fetch_add(1, Ordering::Relaxed);
            }
            st = self.not_full.wait(st).unwrap();
        }
        match lane {
            Lane::Interactive => st.interactive.push_back(item),
            Lane::Batch => st.batch.push_back(item),
        }
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues per the weighted pick, blocking while both lanes are
    /// empty. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.len() > 0 {
                let prefer_batch = st.pops % 4 == 3;
                let item = if prefer_batch {
                    st.batch
                        .pop_front()
                        .or_else(|| st.interactive.pop_front())
                        .unwrap()
                } else {
                    st.interactive
                        .pop_front()
                        .or_else(|| st.batch.pop_front())
                        .unwrap()
                };
                st.pops += 1;
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Closes the queue: pending items stay poppable, new pushes fail,
    /// blocked poppers wake once the backlog drains.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Total queued (not yet popped) items across both lanes.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().len()
    }

    /// `true` when no items are queued in either lane.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of queued items (shared across lanes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pushes that blocked at least once on a full queue.
    pub fn stall_count(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// The lane of the single-lane tests.
    const L: Lane = Lane::Interactive;

    #[test]
    fn fifo_within_capacity() {
        let q = LaneQueue::new(8);
        for i in 0..5 {
            q.push(i, L).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = LaneQueue::new(4);
        q.push(1, L).unwrap();
        q.push(2, L).unwrap();
        q.close();
        assert_eq!(q.push(3, L), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_blocks_and_counts_stalls() {
        let q = Arc::new(LaneQueue::new(1));
        q.push(0u32, L).unwrap();
        assert_eq!(q.stall_count(), 0);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1, L).unwrap());
        // Give the producer time to hit the full queue.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 1, "second push must wait for space");
        assert_eq!(q.pop(), Some(0));
        producer.join().unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.stall_count(), 1);
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = LaneQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(7, L).unwrap();
        assert_eq!(q.pop(), Some(7));
    }

    #[test]
    fn push_wakes_with_closed_while_blocked_on_full_queue() {
        // Closing must wake a push that is *already waiting* on a full
        // queue and hand the item back.
        let q = Arc::new(LaneQueue::new(1));
        q.push(0u32, L).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1, L));
        std::thread::sleep(Duration::from_millis(30));
        let before = Instant::now();
        q.close();
        assert_eq!(producer.join().unwrap(), Err(1));
        assert!(
            before.elapsed() < Duration::from_secs(5),
            "close must wake the waiter promptly"
        );
        assert_eq!(q.stall_count(), 1, "the aborted push still counts a stall");
        assert_eq!(q.pop(), Some(0), "pending items stay poppable after close");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_rides_a_concurrently_draining_consumer() {
        // A consumer draining one item at a time must let a sequence of
        // blocking pushes through a capacity-1 queue with no lost or
        // duplicated items.
        let q = Arc::new(LaneQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some(item) = q2.pop() {
                seen.push(item);
                std::thread::sleep(Duration::from_millis(5));
            }
            seen
        });
        for i in 0..10u32 {
            q.push(i, L)
                .expect("the draining consumer frees space for every push");
        }
        q.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(
            q.stall_count() >= 1,
            "pushes that waited on the slow consumer must count stalls"
        );
    }

    #[test]
    fn lane_queue_single_lane_is_fifo() {
        for lane in [Lane::Interactive, Lane::Batch] {
            let q = LaneQueue::new(16);
            for i in 0..10 {
                q.push(i, lane).unwrap();
            }
            for i in 0..10 {
                assert_eq!(q.pop(), Some(i), "single-lane traffic must stay FIFO");
            }
        }
    }

    #[test]
    fn lane_queue_weighted_pick_is_three_to_one() {
        let q = LaneQueue::new(32);
        for i in 0..12 {
            q.push(("i", i), Lane::Interactive).unwrap();
        }
        for i in 0..4 {
            q.push(("b", i), Lane::Batch).unwrap();
        }
        let order: Vec<_> = (0..16).map(|_| q.pop().unwrap()).collect();
        let expected = vec![
            ("i", 0),
            ("i", 1),
            ("i", 2),
            ("b", 0),
            ("i", 3),
            ("i", 4),
            ("i", 5),
            ("b", 1),
            ("i", 6),
            ("i", 7),
            ("i", 8),
            ("b", 2),
            ("i", 9),
            ("i", 10),
            ("i", 11),
            ("b", 3),
        ];
        assert_eq!(order, expected);
    }

    #[test]
    fn lane_queue_falls_back_to_the_other_lane() {
        let q = LaneQueue::new(8);
        q.push(1, Lane::Batch).unwrap();
        // Pop 0 prefers interactive, which is empty — takes batch.
        assert_eq!(q.pop(), Some(1));
        q.push(2, Lane::Interactive).unwrap();
        q.push(3, Lane::Interactive).unwrap();
        q.push(4, Lane::Interactive).unwrap();
        // Pop 3 prefers batch, which is empty — takes interactive.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert!(q.is_empty());
    }

    #[test]
    fn lane_queue_shares_capacity_and_closes_like_bounded() {
        let q = Arc::new(LaneQueue::new(2));
        q.push(1, Lane::Interactive).unwrap();
        q.push(2, Lane::Batch).unwrap();
        // One item per lane fills the shared capacity: a third blocks.
        let q2 = Arc::clone(&q);
        let blocked = std::thread::spawn(move || q2.push(3, Lane::Batch));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 2, "the lanes share one capacity");
        q.close();
        assert_eq!(blocked.join().unwrap(), Err(3));
        assert_eq!(q.stall_count(), 1);
        assert_eq!(q.push(4, Lane::Interactive), Err(4));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }
}
