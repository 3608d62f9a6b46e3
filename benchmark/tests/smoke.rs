//! Keeps the harness alive: every workload on a 10-virtual-minute
//! stream, measured and traced, through the real child process.

use std::path::PathBuf;
use tweeql_benchmark::alloc::CountingAlloc;
use tweeql_benchmark::child::{ChildSpec, Scratch};
use tweeql_benchmark::json::{self, Value};
use tweeql_benchmark::report;
use tweeql_benchmark::run::{run, RunOpts, END_TO_END, PER_LAYER};
use tweeql_benchmark::spans::validate_tree;
use tweeql_benchmark::tcp;
use tweeql_benchmark::workloads::{self, Sizing, WORKLOADS};
use tweeql_firehose::replay::encode_log;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn opts() -> RunOpts {
    RunOpts {
        seed: 7,
        seconds: 0.0,
        sizing: Sizing {
            minutes: 10,
            tracker_queries: 60,
        },
        min_passes: 1,
        server_bin: PathBuf::from(env!("CARGO_BIN_EXE_bench_server")),
        out_dir: out_dir(),
    }
}

#[test]
fn every_workload_measures_and_traces_correctly() {
    for w in WORKLOADS {
        let measured = run(w, false, &opts()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            measured.correct,
            "{}: outputs differ from the reference",
            w.name
        );
        assert_eq!(measured.ops.failed, 0, "{}", w.name);
        assert!(measured.ops.attempted > 0, "{}", w.name);
        assert_eq!(measured.passes, 1, "{}", w.name);
        let names: Vec<_> = measured.metrics.iter().map(|m| m.name).collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", w.name);
        for m in &measured.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name,
                m.name,
                m.value
            );
        }

        // The result line is the driver's schema, exactly.
        let line = json::parse(&report::result_line(&measured)).unwrap();
        let Value::Obj(keys) = &line else {
            panic!("result line is not an object")
        };
        let keys: Vec<_> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), &Value::Bool(true));
        for m in END_TO_END {
            let v = line.get("metrics").get(m.name);
            assert!(v.get("value").as_f64().is_some(), "{}", m.name);
            assert_eq!(v.get("unit").as_str(), Some(m.unit));
        }

        let traced = run(w, true, &opts()).unwrap_or_else(|e| panic!("{} traced: {e}", w.name));
        assert!(traced.correct, "{}: traced outputs differ", w.name);
        let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", w.name);
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("layer.total_ms") > 0.0, "{}", w.name);
        assert!(value("firehose.tweets_delivered") > 0.0, "{}", w.name);

        let path = out_dir().join(format!("trace-{}.jsonl", w.name));
        let text = std::fs::read_to_string(&path).unwrap();
        let spans = validate_tree(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(spans > 10, "{}: {spans} spans", w.name);
    }
}

#[test]
fn a_refused_register_fails_the_pass_and_is_counted() {
    let scratch = Scratch::new(&out_dir()).unwrap();
    let log = scratch.path().join("stream.log");
    std::fs::write(&log, encode_log(&workloads::stream(7, 1)).to_vec()).unwrap();
    let spec = ChildSpec {
        bin: opts().server_bin,
        log,
        seed: 7,
    };
    let sqls = [
        "SELECT text FROM twitter".to_string(),
        "SELECT nothing FROM nowhere".to_string(),
    ];
    let sent = tcp::OpCounter::default();
    let pass = tcp::pass(&spec, &sqls, 1, None, &sent);
    assert!(
        pass.is_err(),
        "a pass without all its queries must not be measured"
    );
    let ops = sent.ops();
    assert_eq!((ops.attempted, ops.failed), (2, 1));
}

#[test]
fn committed_benchmark_json_matches_the_code() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        committed,
        report::benchmark_json(),
        "regenerate with `benchmark/run.sh spec > BENCHMARK.json`"
    );
    let doc = json::parse(&committed).unwrap();
    let Value::Obj(keys) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<_> = keys.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(doc
        .get("end_to_end")
        .as_arr()
        .iter()
        .any(|m| m.get("name").as_str() == Some("setup_s")));
    for m in doc.get("end_to_end").as_arr() {
        let bound = m.get("bound").as_f64().unwrap();
        // The contract's ceiling. The issue's rule: a metric that cannot
        // repeat within its bound is demoted to a per-layer metric, not
        // given a wider one.
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    assert!(doc.get("per_layer").as_arr().len() <= 128);
}
