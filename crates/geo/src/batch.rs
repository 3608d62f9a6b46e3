//! A generic request batcher: "batching when an API allows multiple
//! simultaneous requests" (§2, High-latency Operators).
//!
//! The TweeQL async-UDF operator pushes pending requests into a
//! [`Batcher`]; a batch is released when it reaches `max_size` or when
//! the oldest pending item exceeds `max_delay` in stream time — bounding
//! the latency a tuple can sit waiting for peers.

use tweeql_model::{Duration, Timestamp};

/// Accumulates items into flush-ready batches.
#[derive(Debug)]
pub struct Batcher<T> {
    items: Vec<T>,
    oldest: Option<Timestamp>,
    max_size: usize,
    max_delay: Duration,
}

impl<T> Batcher<T> {
    /// New batcher releasing at `max_size` items or `max_delay` age.
    pub fn new(max_size: usize, max_delay: Duration) -> Batcher<T> {
        Batcher {
            items: Vec::new(),
            oldest: None,
            max_size: max_size.max(1),
            max_delay,
        }
    }

    /// Pending item count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Arrival time of the oldest pending item (`None` when nothing is
    /// pending): [`poll`](Batcher::poll) releases once `now` is
    /// [`max_delay`](Batcher::max_delay) past it.
    pub fn oldest(&self) -> Option<Timestamp> {
        self.oldest.filter(|_| !self.items.is_empty())
    }

    /// The age bound this batcher was built with.
    pub fn max_delay(&self) -> Duration {
        self.max_delay
    }

    /// Add an item arriving at `now`. Returns a full batch if this push
    /// filled it.
    pub fn push(&mut self, item: T, now: Timestamp) -> Option<Vec<T>> {
        if self.items.is_empty() {
            self.oldest = Some(now);
        }
        self.items.push(item);
        if self.items.len() >= self.max_size {
            Some(self.take())
        } else {
            None
        }
    }

    /// Release the pending batch if the oldest item has waited past
    /// `max_delay` by `now`.
    pub fn poll(&mut self, now: Timestamp) -> Option<Vec<T>> {
        match self.oldest {
            Some(t0) if now.since(t0) >= self.max_delay && !self.items.is_empty() => {
                Some(self.take())
            }
            _ => None,
        }
    }

    /// Unconditionally drain whatever is pending (end of stream).
    pub fn flush(&mut self) -> Vec<T> {
        self.take()
    }

    /// Hand a released batch's (emptied) vector back, so the next batch
    /// collects in it instead of growing a new one.
    pub fn recycle(&mut self, mut spent: Vec<T>) {
        spent.clear();
        if self.items.capacity() == 0 {
            self.items = spent;
        }
    }

    fn take(&mut self) -> Vec<T> {
        self.oldest = None;
        std::mem::take(&mut self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn releases_on_size() {
        let mut b = Batcher::new(3, Duration::from_millis(1000));
        assert!(b.push(1, ts(0)).is_none());
        assert!(b.push(2, ts(1)).is_none());
        let batch = b.push(3, ts(2)).unwrap();
        assert_eq!(batch, vec![1, 2, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn releases_on_age() {
        let mut b = Batcher::new(100, Duration::from_millis(50));
        b.push("a", ts(0));
        assert!(b.poll(ts(40)).is_none());
        let batch = b.poll(ts(50)).unwrap();
        assert_eq!(batch, vec!["a"]);
        assert!(b.poll(ts(60)).is_none(), "nothing pending after release");
    }

    #[test]
    fn age_measured_from_oldest() {
        let mut b = Batcher::new(100, Duration::from_millis(50));
        b.push(1, ts(0));
        b.push(2, ts(45));
        // Oldest is at 0, so 50 releases both.
        assert_eq!(b.poll(ts(50)).unwrap(), vec![1, 2]);
    }

    #[test]
    fn flush_drains() {
        let mut b = Batcher::new(10, Duration::from_millis(1000));
        b.push(1, ts(0));
        b.push(2, ts(1));
        assert_eq!(b.flush(), vec![1, 2]);
        assert!(b.flush().is_empty());
    }

    #[test]
    fn size_one_releases_immediately() {
        let mut b = Batcher::new(1, Duration::ZERO);
        assert_eq!(b.push(9, ts(0)).unwrap(), vec![9]);
    }

    #[test]
    fn recycled_vector_collects_the_next_batch() {
        let mut b = Batcher::new(3, Duration::from_millis(10));
        b.push(1, ts(0));
        b.push(2, ts(0));
        let mut batch = b.push(3, ts(0)).unwrap();
        let buffer = batch.as_ptr();
        batch.drain(..).for_each(drop);
        b.recycle(batch);
        b.push(4, ts(1));
        let next = b.flush();
        assert_eq!(next, vec![4]);
        assert_eq!(next.as_ptr(), buffer, "same allocation");
        // A vector handed back while items are pending is dropped, not
        // swapped in over them.
        b.push(5, ts(2));
        b.recycle(vec![9, 9]);
        assert_eq!(b.flush(), vec![5]);
    }

    #[test]
    fn len_tracks_pending() {
        let mut b = Batcher::new(5, Duration::from_millis(10));
        assert_eq!(b.len(), 0);
        b.push(1, ts(0));
        b.push(2, ts(0));
        assert_eq!(b.len(), 2);
    }
}
