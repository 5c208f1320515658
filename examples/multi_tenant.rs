//! Multi-tenant serving: many graphs × many models in one process.
//!
//! Starts a server whose engine becomes the `default` tenant, deploys
//! two more tenants (different datasets, models, and backends) with
//! their own fair-share weights, drives all three over loopback TCP —
//! including a per-tenant graph update — and prints the per-tenant
//! telemetry rollup, then retires one tenant live.
//!
//! Run with `cargo run --release --example multi_tenant`.

use blockgnn::engine::{BackendKind, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::server::{
    Client, GraphDelta, Server, ServerConfig, SubmitOptions, TcpServer, TenantSpec,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. The default tenant: whatever engine the server starts around.
    let default_spec =
        TenantSpec::new("default", "cora-small", ModelKind::Gcn, BackendKind::Spectral)
            .hidden_dim(16)
            .seed(5);
    let config = ServerConfig::default()
        .with_workers(2)
        .with_batching(Duration::from_micros(500), 8)
        // Arm the §IV-B/§IV-C residency accountant: deploys must fit.
        .with_device_budget(Some(64 << 20));
    let server = Arc::new(
        Server::start(default_spec.build_engine().expect("engine builds"), config)
            .expect("server starts"),
    );

    // 2. Two more tenants, hot-deployed: a weight-3 GS-Pool on the
    //    Citeseer stand-in and a G-GCN on the Pubmed stand-in. Neither
    //    deploy stalls traffic already in flight.
    for spec in [
        TenantSpec::new("traffic", "citeseer-small", ModelKind::GsPool, BackendKind::Dense)
            .hidden_dim(16)
            .seed(7)
            .weight(3),
        TenantSpec::new("fraud", "pubmed-small", ModelKind::Ggcn, BackendKind::Spectral)
            .hidden_dim(16)
            .seed(9),
    ] {
        let handle = server.deploy(&spec).expect("tenant deploys");
        let info = handle.info();
        println!(
            "deployed {:<8} {} nodes, weight {}, resident {} B (aggregate {} / {} B)",
            info.name,
            info.num_nodes,
            info.weight,
            info.resident_bytes,
            server.resident_bytes(),
            server.device_budget().unwrap_or(0),
        );
    }

    // 3. Drive all three over TCP: unqualified requests hit `default`,
    //    `infer@name` addresses a tenant.
    let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let mut client = Client::connect(front.local_addr()).expect("connects");
    let request = InferRequest::sampled(vec![0, 1, 2], 6, 4, 42);
    for tenant in [None, Some("traffic"), Some("fraud")] {
        let response = client
            .infer_tenant(&request, SubmitOptions::default(), tenant)
            .expect("request serves");
        println!(
            "{:<8} answered {} rows at version {}",
            response.tenant,
            response.logits.rows(),
            response.graph_version,
        );
    }

    // 4. Graphs version independently: update one tenant, the others
    //    keep serving version 0.
    let ack = client
        .update_tenant(&GraphDelta::new().add_edge(0, 9), Some("traffic"))
        .expect("delta applies");
    println!("update landed on {} → version {}", ack.tenant, ack.version);

    // 5. Per-tenant telemetry rides the aggregate snapshot.
    let stats = server.stats();
    for (name, rollup) in &stats.tenants {
        println!(
            "tenant {:<8} w={} completed={} version={} p99={:?}",
            name,
            rollup.weight,
            rollup.completed,
            rollup.graph_version,
            rollup.serve.p99(),
        );
    }

    // 6. Retire one tenant live; its final counters come back and the
    //    rest of the roster is untouched.
    let finals = server.retire("fraud").expect("retires");
    println!(
        "retired fraud: {} completed; roster now {:?}",
        finals.completed,
        server.tenants().iter().map(|t| t.name.clone()).collect::<Vec<_>>(),
    );
    client.shutdown().expect("clean shutdown");
    front.run_until_shutdown();
}
