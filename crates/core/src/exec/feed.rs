//! The one way a tweet travels from the supervised source to the
//! queries: the source half of [`crate::host::QueryHost`], whose
//! dispatcher ([`Dispatch`]) is the feed's one consumer. Standing
//! pumps, durable replay and [`crate::engine::Engine::execute`] (a host
//! of its own, pulled until its query has finished) all drive it.
//!
//! A [`Feed`] owns the [`SupervisedSource`], the cursor into it (the
//! block of log indices being consumed, or a gap the source delivered
//! ahead), and the [`TweetBatch`] the tweets fill with its [`Cadence`].
//! The batch is bound to the source's log, so a tweet joins it as an
//! index and is never cloned. Every configuration pulls this way.
//! The host [`peek`](Feed::peek)s the next event and
//! [`take`](Feed::take)s it or stops. The rules:
//!
//! * the batch is flushed when it holds `batch_size` tweets, before a
//!   source gap, and when the host asks;
//! * a flush first moves the virtual clock to the latest buffered tweet
//!   ([`Cadence::high`]); the end of the stream, or a drive leaving
//!   early, moves it to the source frontier, the furthest tweet the
//!   source scanned;
//! * a watermark-boundary crossing rides in the batch
//!   ([`TweetBatch::cross`]). Under the reference cadence it cuts the
//!   batch and each boundary goes to the dispatcher instead: the
//!   reference configuration of `Engine::execute` runs it, and the
//!   differential tests hold the riding cadence to it.

use crate::engine::{EngineConfig, WATERMARK_INTERVAL};
use crate::error::QueryError;
use crate::exec::supervise::{SourceBlock, SupervisedSource};
use crate::host::Dispatch;
use std::sync::Arc;
use tweeql_firehose::{FilterSpec, StreamingApi};
use tweeql_model::{Cadence, Timestamp, Tweet, TweetBatch};

/// The next stream event, as [`Feed::peek`] sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Next {
    /// A tweet at this stream time.
    Tweet(Timestamp),
    /// A coverage gap `[from, to)`.
    Gap(Timestamp, Timestamp),
}

impl Next {
    /// The tweet's time, or the gap's start.
    pub(crate) fn at(self) -> Timestamp {
        match self {
            Next::Tweet(ts) | Next::Gap(ts, _) => ts,
        }
    }
}

/// Source cursor plus batch filler; see the module docs.
pub(crate) struct Feed {
    source: SupervisedSource,
    /// Whether the source has been pulled yet.
    opened: bool,
    exhausted: bool,
    block: Vec<u32>,
    cursor: usize,
    /// A gap `[from, to)` delivered ahead of the block cursor.
    ahead: Option<(Timestamp, Timestamp)>,
    log: Arc<Vec<Tweet>>,
    cadence: Cadence,
    batch: TweetBatch,
    batch_size: usize,
    /// Cut the batch at every crossing and hand each boundary to the
    /// dispatcher.
    pub(crate) reference_cadence: bool,
}

impl Feed {
    /// A feed over `api` subscribed with `filter`, under the config's
    /// fault plan, retry policy, seed and batch size. Nothing is pulled
    /// before the first [`peek`](Feed::peek).
    pub(crate) fn new(api: &StreamingApi, filter: FilterSpec, config: &EngineConfig) -> Feed {
        let source = SupervisedSource::new(
            api.clone(),
            filter,
            config.fault.clone(),
            config.retry.clone(),
            config.seed,
        );
        // Rows are indices into the log; resets keep the binding.
        let mut batch = TweetBatch::new();
        batch.bind_log(source.log());
        Feed {
            log: Arc::clone(source.log()),
            source,
            opened: false,
            exhausted: false,
            block: Vec::new(),
            cursor: 0,
            ahead: None,
            cadence: Cadence::new(WATERMARK_INTERVAL),
            batch,
            batch_size: config.batch_size.max(1),
            reference_cadence: false,
        }
    }

    /// The supervised source, once it has been pulled.
    pub(crate) fn source(&self) -> Option<&SupervisedSource> {
        self.opened.then_some(&self.source)
    }

    /// True once the stream has ended.
    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The watermark cursor of the tweets taken so far.
    pub(crate) fn cadence(&self) -> &Cadence {
        &self.cadence
    }

    /// The next stream event, pulling the source when the cursor is
    /// spent; `None` at the end of the stream.
    pub(crate) fn peek(&mut self) -> Option<Next> {
        match self.block.get(self.cursor) {
            Some(&i) => Some(Next::Tweet(self.log[i as usize].created_at)),
            None => self.pull(),
        }
    }

    /// [`peek`](Feed::peek) once the block cursor is spent. Out of line,
    /// so that the per-tweet cursor check inlines into the drive loops.
    #[inline(never)]
    fn pull(&mut self) -> Option<Next> {
        loop {
            if let Some(&i) = self.block.get(self.cursor) {
                return Some(Next::Tweet(self.log[i as usize].created_at));
            }
            if let Some((from, to)) = self.ahead {
                return Some(Next::Gap(from, to));
            }
            if self.exhausted {
                return None;
            }
            self.opened = true;
            match self.source.next_block(self.batch_size) {
                Some(SourceBlock::Tweets(b)) => {
                    self.block.clear();
                    self.block.extend_from_slice(&b.sel);
                    self.cursor = 0;
                }
                Some(SourceBlock::Gap { from, to }) => self.ahead = Some((from, to)),
                None => {
                    self.exhausted = true;
                    self.stop();
                }
            }
        }
    }

    /// Take `next`, the event [`peek`](Feed::peek) just returned: a
    /// tweet joins the batch after the boundaries crossed to reach it,
    /// and a full batch is flushed; a gap flushes the batch and goes to
    /// the dispatcher. Returns how many boundaries were crossed.
    pub(crate) fn take(
        &mut self,
        next: Next,
        dispatch: &mut Dispatch<'_>,
    ) -> Result<u64, QueryError> {
        let ts = match next {
            Next::Tweet(ts) => ts,
            Next::Gap(from, to) => {
                self.ahead = None;
                self.flush(dispatch)?;
                dispatch.gap(from, to)?;
                return Ok(0);
            }
        };
        let crossed = self.cadence.advance(ts);
        match crossed {
            Some(c) if self.reference_cadence => {
                self.flush(dispatch)?;
                dispatch.boundaries(c)?;
            }
            Some(c) => self.batch.cross(c),
            None => {}
        }
        self.batch.push_index(self.block[self.cursor]);
        self.cursor += 1;
        if self.batch.len() >= self.batch_size {
            self.flush(dispatch)?;
        }
        Ok(crossed.map_or(0, |c| c.count()))
    }

    /// Flush the batch into `dispatch`, the clock first moved to the
    /// latest buffered tweet.
    pub(crate) fn flush(&mut self, dispatch: &mut Dispatch<'_>) -> Result<(), QueryError> {
        self.source.clock().advance_to(self.cadence.high());
        dispatch.flush(&mut self.batch)
    }

    /// The host pulls no more (LIMIT reached, or the end): the clock
    /// moves to the source frontier, where the end of the stream puts
    /// it too.
    pub(crate) fn stop(&mut self) {
        self.source.clock().advance_to(self.source.frontier());
    }
}
