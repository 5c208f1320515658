//! Golden telemetry transcript: one fixed scene — two classes of
//! completions, a validation failure, an overload shed, a deadline shed,
//! an applied and a rejected update, over three tenants on two backends —
//! and the exact `stats` line, per-tenant `stats@tenant` lines and
//! Prometheus exposition it leaves behind. Only time-dependent values
//! are masked (`qps`, `*_us`, uptime, `*_seconds` quantiles); every
//! counter, label, family header and family order is pinned.

use blockgnn::engine::{BackendKind, EngineBuilder, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::graph::datasets;
use blockgnn::graph::delta::GraphDelta;
use blockgnn::nn::Compression;
use blockgnn::server::{
    FaultPlan, Server, ServerConfig, ServerError, SloClass, SubmitOptions, TenantSpec,
};
use std::sync::Arc;
use std::time::Duration;

/// Every executed batch stalls this long (an injected latency fault on
/// every engine draw), so a request admitted behind one stays queued
/// long enough for the next submission to find its lane full. Short
/// enough that no request in the scene is promoted as slow.
const STALL_US: u64 = 30_000;

/// A `stats` line with `qps` and every `*_us` value masked, inside the
/// colon-separated class and tenant segments too.
fn masked_stats(line: &str) -> String {
    let field = |f: &str| match f.split_once('=') {
        Some((key, _)) if key == "qps" || key.ends_with("_us") => format!("{key}=*"),
        _ => f.to_string(),
    };
    let word = |w: &str| w.split(':').map(field).collect::<Vec<_>>().join(":");
    line.split(' ').map(word).collect::<Vec<_>>().join(" ")
}

/// An exposition with the uptime, qps and latency-quantile sample
/// values masked; headers, labels and `_count` samples stay exact.
fn masked_metrics(text: &str) -> String {
    let sample = |line: &str| {
        let (series, _) = line.rsplit_once(' ').unwrap_or((line, ""));
        let name = series.split('{').next().unwrap_or_default();
        let timed = name == "blockgnn_uptime_seconds"
            || name == "blockgnn_qps"
            || (name.ends_with("_seconds") && series.contains("quantile="));
        if line.starts_with('#') || !timed {
            line.to_string()
        } else {
            format!("{series} *")
        }
    };
    text.lines().map(sample).collect::<Vec<_>>().join("\n")
}

/// Plays the scene on a one-worker server and returns it, idle.
fn scene() -> Server {
    let dataset = Arc::new(datasets::cora_like_small(11));
    let engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
        .hidden_dim(16)
        .compression(Compression::BlockCirculant { block_size: 8 })
        .seed(5)
        .build(Arc::clone(&dataset))
        .expect("engine builds")
        .into_parallel(2)
        .expect("widens");
    let stall = FaultPlan::new(3).with_latency(1000, STALL_US);
    let config = ServerConfig::default().with_workers(1).unbatched().with_faults(Some(stall));
    let server = Server::start(engine, config).expect("server starts");
    let default = server.handle();
    let traffic =
        TenantSpec::new("traffic", "citeseer-small", ModelKind::GsPool, BackendKind::Spectral)
            .hidden_dim(16)
            .seed(7);
    let traffic = server.deploy(&traffic).expect("traffic deploys");
    let tiny = TenantSpec::new("tiny", "cora-small", ModelKind::Gcn, BackendKind::Dense)
        .hidden_dim(16)
        .seed(9)
        .max_queue_depth(0);
    let tiny = server.deploy(&tiny).expect("tiny deploys");
    let gold = SubmitOptions::class(SloClass::Gold);
    let bronze = SubmitOptions::class(SloClass::Bronze);

    // Completions in three classes over two tenants and both backends.
    default.infer(InferRequest::full_graph(vec![0, 1])).expect("silver serves");
    default.infer_with(InferRequest::sampled(vec![5], 4, 2, 3), gold).expect("gold serves");
    traffic.infer_with(InferRequest::full_graph(vec![2]), bronze).expect("bronze serves");
    // A request invalid on its face fails at admission.
    match default.infer(InferRequest::sampled(vec![], 4, 2, 1)) {
        Err(ServerError::Engine(_)) => {}
        other => panic!("expected a validation failure, got {other:?}"),
    }
    // A request whose deadline has passed by dequeue is shed there.
    let doomed = SubmitOptions { class: SloClass::Gold, deadline: Some(Duration::ZERO) };
    match default.infer_with(InferRequest::sampled(vec![3], 4, 2, 1), doomed) {
        Err(ServerError::DeadlineExceeded { .. }) => {}
        other => panic!("expected a deadline shed, got {other:?}"),
    }
    // `tiny` holds one queued request: with the worker stalled on the
    // first, the second queues and the third is shed at admission.
    let running =
        tiny.submit_with(InferRequest::sampled(vec![1], 4, 2, 1), gold).expect("runs");
    while server.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let queued =
        tiny.submit_with(InferRequest::sampled(vec![2], 4, 2, 1), gold).expect("queues");
    match tiny.submit_with(InferRequest::sampled(vec![4], 4, 2, 1), gold) {
        Err(ServerError::Overloaded { depth: 1, max_depth: 1 }) => {}
        other => panic!("expected an overload shed, got {other:?}"),
    }
    running.wait().expect("the running request serves");
    queued.wait().expect("the queued request serves");
    // One applied and one rejected graph delta.
    default.update(&GraphDelta::new().add_edge(0, 5)).expect("the delta applies");
    assert!(default.update(&GraphDelta::new().add_edge(0, 999_999)).is_err());
    server
}

const STATS: &str = "requests=8 completed=5 failed=1 shed_overload=1 shed_deadline=1 qps=* p50_us=* p95_us=* p99_us=* mean_queue_us=* mean_compute_us=* batches=5 mean_batch=1.00 deduped=0 version=1 updates=1 failed_updates=1 workers_alive=1 worker_crashes=0 restarts=0 degraded=false part_balance=1.02 class=gold:requests=5:completed=3:failed=0:shed=2:p50_us=*:p95_us=*:p99_us=* class=silver:requests=2:completed=1:failed=1:shed=0:p50_us=*:p95_us=*:p99_us=* class=bronze:requests=1:completed=1:failed=0:shed=0:p50_us=*:p95_us=*:p99_us=* tenants=3 tenant=default:w=1:requests=4:completed=2:failed=1:shed=1:version=1:updates=1:depth=0:qps=*:p50_us=*:p95_us=*:p99_us=* tenant=tiny:w=1:requests=3:completed=2:failed=0:shed=1:version=0:updates=0:depth=0:qps=*:p50_us=*:p95_us=*:p99_us=* tenant=traffic:w=1:requests=1:completed=1:failed=0:shed=0:version=0:updates=0:depth=0:qps=*:p50_us=*:p95_us=*:p99_us=*";

const STATS_AT: &[(&str, &str)] = &[
    ("default", "requests=4 completed=2 failed=1 shed_overload=0 shed_deadline=1 qps=* p50_us=* p95_us=* p99_us=* mean_queue_us=* mean_compute_us=* batches=2 mean_batch=1.00 deduped=0 version=1 updates=1 failed_updates=1 workers_alive=1 worker_crashes=0 restarts=0 degraded=false part_balance=1.02 class=gold:requests=2:completed=1:failed=0:shed=1:p50_us=*:p95_us=*:p99_us=* class=silver:requests=2:completed=1:failed=1:shed=0:p50_us=*:p95_us=*:p99_us=*"),
    ("tiny", "requests=3 completed=2 failed=0 shed_overload=1 shed_deadline=0 qps=* p50_us=* p95_us=* p99_us=* mean_queue_us=* mean_compute_us=* batches=2 mean_batch=1.00 deduped=0 version=0 updates=0 failed_updates=0 workers_alive=1 worker_crashes=0 restarts=0 degraded=false part_balance=0.00 class=gold:requests=3:completed=2:failed=0:shed=1:p50_us=*:p95_us=*:p99_us=*"),
    ("traffic", "requests=1 completed=1 failed=0 shed_overload=0 shed_deadline=0 qps=* p50_us=* p95_us=* p99_us=* mean_queue_us=* mean_compute_us=* batches=1 mean_batch=1.00 deduped=0 version=0 updates=0 failed_updates=0 workers_alive=1 worker_crashes=0 restarts=0 degraded=false part_balance=0.00 class=bronze:requests=1:completed=1:failed=0:shed=0:p50_us=*:p95_us=*:p99_us=*"),
];

const METRICS: &str = r##"# HELP blockgnn_uptime_seconds Seconds since the server started
# TYPE blockgnn_uptime_seconds gauge
blockgnn_uptime_seconds *
# HELP blockgnn_qps Completed requests per second of uptime
# TYPE blockgnn_qps gauge
blockgnn_qps *
# HELP blockgnn_queue_depth Requests currently queued across all tenants
# TYPE blockgnn_queue_depth gauge
blockgnn_queue_depth 0
# HELP blockgnn_workers_alive Workers currently serving (a crashed worker is down until its respawn backoff elapses)
# TYPE blockgnn_workers_alive gauge
blockgnn_workers_alive 1
# HELP blockgnn_worker_crashes_total Worker panics caught at the batch boundary
# TYPE blockgnn_worker_crashes_total counter
blockgnn_worker_crashes_total 0
# HELP blockgnn_worker_restarts_total Crashed-worker respawns (fresh engine fork after backoff)
# TYPE blockgnn_worker_restarts_total counter
blockgnn_worker_restarts_total 0
# HELP blockgnn_pool_degraded 1 while the crash circuit breaker has the pool in brownout, else 0
# TYPE blockgnn_pool_degraded gauge
blockgnn_pool_degraded 0
# HELP blockgnn_requests_submitted_total Requests offered to the admission queue (including shed ones)
# TYPE blockgnn_requests_submitted_total counter
blockgnn_requests_submitted_total{tenant="default",backend="dense"} 4
blockgnn_requests_submitted_total{tenant="tiny",backend="dense"} 3
blockgnn_requests_submitted_total{tenant="traffic",backend="spectral"} 1
# HELP blockgnn_requests_completed_total Requests answered successfully
# TYPE blockgnn_requests_completed_total counter
blockgnn_requests_completed_total{tenant="default",backend="dense"} 2
blockgnn_requests_completed_total{tenant="tiny",backend="dense"} 2
blockgnn_requests_completed_total{tenant="traffic",backend="spectral"} 1
# HELP blockgnn_requests_failed_total Requests that failed in the engine
# TYPE blockgnn_requests_failed_total counter
blockgnn_requests_failed_total{tenant="default",backend="dense"} 1
blockgnn_requests_failed_total{tenant="tiny",backend="dense"} 0
blockgnn_requests_failed_total{tenant="traffic",backend="spectral"} 0
# HELP blockgnn_requests_shed_total Requests shed (admission overload + queued-deadline expiry)
# TYPE blockgnn_requests_shed_total counter
blockgnn_requests_shed_total{tenant="default",backend="dense"} 1
blockgnn_requests_shed_total{tenant="tiny",backend="dense"} 1
blockgnn_requests_shed_total{tenant="traffic",backend="spectral"} 0
# HELP blockgnn_batches_total Coalesced executions run
# TYPE blockgnn_batches_total counter
blockgnn_batches_total{tenant="default",backend="dense"} 2
blockgnn_batches_total{tenant="tiny",backend="dense"} 2
blockgnn_batches_total{tenant="traffic",backend="spectral"} 1
# HELP blockgnn_deduped_total Requests that shared an identical request's execution
# TYPE blockgnn_deduped_total counter
blockgnn_deduped_total{tenant="default",backend="dense"} 0
blockgnn_deduped_total{tenant="tiny",backend="dense"} 0
blockgnn_deduped_total{tenant="traffic",backend="spectral"} 0
# HELP blockgnn_graph_updates_total Graph deltas applied
# TYPE blockgnn_graph_updates_total counter
blockgnn_graph_updates_total{tenant="default",backend="dense"} 1
blockgnn_graph_updates_total{tenant="tiny",backend="dense"} 0
blockgnn_graph_updates_total{tenant="traffic",backend="spectral"} 0
# HELP blockgnn_graph_version Graph version currently being served
# TYPE blockgnn_graph_version gauge
blockgnn_graph_version{tenant="default"} 1
blockgnn_graph_version{tenant="tiny"} 0
blockgnn_graph_version{tenant="traffic"} 0
# HELP blockgnn_tenant_queue_depth Requests currently queued in the tenant's lanes
# TYPE blockgnn_tenant_queue_depth gauge
blockgnn_tenant_queue_depth{tenant="default"} 0
blockgnn_tenant_queue_depth{tenant="tiny"} 0
blockgnn_tenant_queue_depth{tenant="traffic"} 0
# HELP blockgnn_partition_balance Partition load-balance factor of the tenant's full-graph plan (max part work / mean part work; 1.0 is perfect)
# TYPE blockgnn_partition_balance gauge
blockgnn_partition_balance{tenant="default"} 1.024885915932088
# HELP blockgnn_class_requests_total Requests offered per SLO class
# TYPE blockgnn_class_requests_total counter
blockgnn_class_requests_total{tenant="default",class="gold"} 2
blockgnn_class_requests_total{tenant="default",class="silver"} 2
blockgnn_class_requests_total{tenant="tiny",class="gold"} 3
blockgnn_class_requests_total{tenant="traffic",class="bronze"} 1
# HELP blockgnn_class_completed_total Requests answered per SLO class
# TYPE blockgnn_class_completed_total counter
blockgnn_class_completed_total{tenant="default",class="gold"} 1
blockgnn_class_completed_total{tenant="default",class="silver"} 1
blockgnn_class_completed_total{tenant="tiny",class="gold"} 2
blockgnn_class_completed_total{tenant="traffic",class="bronze"} 1
# HELP blockgnn_class_shed_total Requests shed per SLO class
# TYPE blockgnn_class_shed_total counter
blockgnn_class_shed_total{tenant="default",class="gold"} 1
blockgnn_class_shed_total{tenant="default",class="silver"} 0
blockgnn_class_shed_total{tenant="tiny",class="gold"} 1
blockgnn_class_shed_total{tenant="traffic",class="bronze"} 0
# HELP blockgnn_class_latency_seconds End-to-end served latency per SLO class
# TYPE blockgnn_class_latency_seconds summary
blockgnn_class_latency_seconds{tenant="default",class="gold",quantile="0.5"} *
blockgnn_class_latency_seconds{tenant="default",class="gold",quantile="0.95"} *
blockgnn_class_latency_seconds{tenant="default",class="gold",quantile="0.99"} *
blockgnn_class_latency_seconds_count{tenant="default",class="gold"} 1
blockgnn_class_latency_seconds{tenant="default",class="silver",quantile="0.5"} *
blockgnn_class_latency_seconds{tenant="default",class="silver",quantile="0.95"} *
blockgnn_class_latency_seconds{tenant="default",class="silver",quantile="0.99"} *
blockgnn_class_latency_seconds_count{tenant="default",class="silver"} 1
blockgnn_class_latency_seconds{tenant="tiny",class="gold",quantile="0.5"} *
blockgnn_class_latency_seconds{tenant="tiny",class="gold",quantile="0.95"} *
blockgnn_class_latency_seconds{tenant="tiny",class="gold",quantile="0.99"} *
blockgnn_class_latency_seconds_count{tenant="tiny",class="gold"} 2
blockgnn_class_latency_seconds{tenant="traffic",class="bronze",quantile="0.5"} *
blockgnn_class_latency_seconds{tenant="traffic",class="bronze",quantile="0.95"} *
blockgnn_class_latency_seconds{tenant="traffic",class="bronze",quantile="0.99"} *
blockgnn_class_latency_seconds_count{tenant="traffic",class="bronze"} 1
# HELP blockgnn_latency_seconds End-to-end served latency (queue + compute), all tenants
# TYPE blockgnn_latency_seconds summary
blockgnn_latency_seconds{quantile="0.5"} *
blockgnn_latency_seconds{quantile="0.95"} *
blockgnn_latency_seconds{quantile="0.99"} *
blockgnn_latency_seconds_count 5
# HELP blockgnn_queue_time_seconds Time requests spent queued before execution
# TYPE blockgnn_queue_time_seconds summary
blockgnn_queue_time_seconds{quantile="0.5"} *
blockgnn_queue_time_seconds{quantile="0.95"} *
blockgnn_queue_time_seconds{quantile="0.99"} *
blockgnn_queue_time_seconds_count 5
# HELP blockgnn_compute_time_seconds Batch execution time requests rode on
# TYPE blockgnn_compute_time_seconds summary
blockgnn_compute_time_seconds{quantile="0.5"} *
blockgnn_compute_time_seconds{quantile="0.95"} *
blockgnn_compute_time_seconds{quantile="0.99"} *
blockgnn_compute_time_seconds_count 5
# HELP blockgnn_traces_recorded Trace records currently held across the worker rings
# TYPE blockgnn_traces_recorded gauge
blockgnn_traces_recorded 6
# HELP blockgnn_trace_exemplars Retained slow/shed/failed trace exemplars per SLO class
# TYPE blockgnn_trace_exemplars gauge
blockgnn_trace_exemplars{class="gold"} 2
blockgnn_trace_exemplars{class="silver"} 1"##;

#[test]
fn a_fixed_scene_renders_pinned_stats_and_metrics() {
    let server = scene();
    let mut mismatches = Vec::new();
    let mut check = |what: &str, got: String, pinned: &str| {
        if got != pinned {
            mismatches.push(format!("{what}:\n  got    {got:?}\n  pinned {pinned:?}"));
        }
    };
    check("stats", masked_stats(&server.stats().summary()), STATS);
    for (tenant, pinned) in STATS_AT {
        let stats = server.tenant_stats(tenant).expect("tenant is deployed");
        check(&format!("stats@{tenant}"), masked_stats(&stats.summary()), pinned);
    }
    check("metrics", masked_metrics(&server.metrics_text()), METRICS);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    server.shutdown();
}

#[test]
fn tenant_snapshots_report_the_shared_pool_health() {
    let engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
        .hidden_dim(16)
        .build(Arc::new(datasets::cora_like_small(11)))
        .expect("engine builds");
    let server =
        Server::start(engine, ServerConfig::default().with_workers(2)).expect("starts");
    assert_eq!(server.tenant_stats("default").expect("deployed").workers_alive, 2);
    assert_eq!(server.handle().tenant_stats().workers_alive, 2);
    server.shutdown();
}
