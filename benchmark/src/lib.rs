//! The one TweeQL benchmark.
//!
//! Five workloads drive the real `Service`/`QueryHost`/TCP loop in a
//! separate child process ([`bin/bench_server.rs`]) with a closed-loop
//! feeder and a closed-loop poller, check every output against a
//! reference computation, and report end-to-end metrics. A separate
//! traced run replays each workload in-process as a ladder of layer
//! rungs and reports per-layer metrics. See `README.md`.

pub mod adhoc;
pub mod alloc;
pub mod child;
pub mod compare;
pub mod json;
pub mod ladder;
pub mod reference;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod tcp;
pub mod workloads;
