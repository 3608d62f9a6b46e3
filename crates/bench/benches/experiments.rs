//! Criterion benches: one group per experiment (E1–E8), measuring the
//! wall-clock cost of each experiment's computational kernel. The
//! *modeled* quantities (service time, request counts, precision) are
//! produced by the `report` binary; these benches answer "how fast does
//! the reproduction itself run".

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use tweeql_bench::*;
use twitinfo::peaks::{PeakDetector, PeakDetectorConfig};

fn bench_e1_dashboard(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_dashboard");
    g.sample_size(10);
    g.bench_function("analyze_soccer_match", |b| {
        b.iter(|| black_box(e1_dashboard::run(42)))
    });
    g.finish();
}

fn bench_e2_peaks(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2_peaks");
    // Pure detector throughput on a pre-built timeline.
    let scenario = tweeql_firehose::scenarios::soccer_match();
    let (timeline, _) = e2_peaks::event_timeline(&scenario, "soccer", 42);
    g.bench_function("detect_timeline", |b| {
        b.iter(|| {
            black_box(PeakDetector::detect(
                black_box(&timeline),
                PeakDetectorConfig::default(),
            ))
        })
    });
    // Streaming push cost per bin.
    g.bench_function("streaming_push_10k_bins", |b| {
        b.iter_batched(
            || PeakDetector::new(PeakDetectorConfig::default()),
            |mut d| {
                for i in 0..10_000u64 {
                    black_box(d.push(10 + (i % 7)));
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_e3_selectivity(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_selectivity");
    g.sample_size(10);
    g.bench_function("probe_and_choose", |b| {
        b.iter(|| black_box(e3_selectivity::run_regime("bench", 60.0, 0.2, 7)))
    });
    g.finish();
}

fn bench_e4_confidence(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_confidence");
    g.sample_size(10);
    g.bench_function("confidence_window_query", |b| {
        b.iter(|| {
            black_box(e4_confidence::run_strategy(
                "bench",
                "WINDOW CONFIDENCE 0.15 MAX 3 hours",
                5,
            ))
        })
    });
    g.finish();
}

fn bench_e5_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5_latency");
    g.sample_size(10);
    g.bench_function("cached_batched_geocode_query", |b| {
        b.iter(|| black_box(e5_latency::run_config("bench", 65536, 25, 9)))
    });
    g.finish();
}

fn bench_e6_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_engine");
    g.sample_size(10);
    let tweets = e6_engine::firehose(3);
    for (label, sql) in e6_engine::QUERIES {
        g.bench_function(label, |b| {
            b.iter_batched(
                || tweets.clone(),
                |tw| black_box(e6_engine::run_query(tw, sql)),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_e7_sentiment(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_sentiment");
    g.sample_size(10);
    g.bench_function("train_and_evaluate", |b| {
        b.iter(|| black_box(e7_sentiment::run(31)))
    });
    g.finish();
}

fn bench_e8_reorder(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_reorder");
    g.sample_size(10);
    g.bench_function("drift_400k_tuples", |b| {
        b.iter(|| black_box(e8_reorder::run(200_000)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_e1_dashboard,
    bench_e2_peaks,
    bench_e3_selectivity,
    bench_e4_confidence,
    bench_e5_latency,
    bench_e6_engine,
    bench_e7_sentiment,
    bench_e8_reorder,
);
criterion_main!(benches);
