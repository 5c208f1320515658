//! The fixed lists every performance claim in this repository names
//! from: four workloads, the end-to-end metrics with their bounds, and
//! the per-layer metrics with the end-to-end number each should move.
//! `BENCHMARK.json` is generated from these tables (`benchmark manifest`)
//! and a unit test keeps the committed file equal to them.

use crate::json::Json;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is here.
    pub why: &'static str,
}

pub const FULL_OFFLINE: &str = "full_offline";
pub const SERVE_SINGLE: &str = "serve_single";
pub const SERVE_HOT8: &str = "serve_hot8";
pub const UPDATE_MIX: &str = "update_mix";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: FULL_OFFLINE,
        why: "closed loop, 1 caller, no server: full-graph GS-Pool passes on reddit-small; \
              the paper's nodes/s regime, where fft/core/nn do the work and sampling, \
              batching and the wire do none",
    },
    Workload {
        name: SERVE_SINGLE,
        why: "closed loop, 2 TCP connections: one-target sampled GCN requests that never \
              dedup or cache; per-request overhead (wire, admission, queue, sampling, \
              gather) dominates the kernel",
    },
    Workload {
        name: SERVE_HOT8,
        why: "closed loop, 8 tickets outstanding in process: zipf(1.1) over 64 two-target \
              requests; the only workload where batcher, dedup, merge and scatter carry \
              the load, wire bypassed",
    },
    Workload {
        name: UPDATE_MIX,
        why: "closed-loop cached full-graph reads beside one graph delta every 50 ms over \
              TCP: a write stalls the next reader for one full pass, so read and update \
              costs trade off",
    },
];

/// Looks a workload up by name.
///
/// # Errors
///
/// The message lists the valid names.
pub fn workload(name: &str) -> Result<Workload, String> {
    WORKLOADS.iter().copied().find(|w| w.name == name).ok_or_else(|| {
        let valid: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; valid workloads: {}", valid.join(", "))
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline's median.
    Share(f64),
    /// Any rise is a regression (`failed_share`).
    NoIncrease,
    /// Any change is a regression (`sim_cycles_per_node`).
    Exact,
}

/// How the samples of several rounds combine into the reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Median over all pooled samples (windows, or set-ups).
    Median,
    /// Largest sample (`peak_rss_mb`).
    Max,
    /// Every sample must be identical; that value.
    Exact,
    /// Failed ÷ attempted over the pooled counts.
    FailedShare,
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub pool: Pool,
    /// Workloads it is reported on.
    pub on: &'static [&'static str],
    /// Default bound, and per-workload exceptions. This is the only bound
    /// table: `compare` enforces it and `BENCHMARK.json` is written from it.
    pub bound: Bound,
    pub bound_on: &'static [(&'static str, Bound)],
}

impl EndToEnd {
    pub fn reported_on(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }

    pub fn bound_for(&self, workload: &str) -> Bound {
        self.bound_on.iter().find(|(w, _)| *w == workload).map_or(self.bound, |(_, b)| *b)
    }

    /// The bound `BENCHMARK.json` publishes. That file holds one share per
    /// metric and its driver wants every listed metric from every workload,
    /// so a metric is listed only when it is reported on all of them with a
    /// share bound, under the loosest bound `compare` holds any workload to.
    pub fn contract_bound(&self) -> Option<f64> {
        if self.on != ALL {
            return None;
        }
        WORKLOADS.iter().try_fold(0.0_f64, |widest, w| match self.bound_for(w.name) {
            Bound::Share(share) => Some(widest.max(share)),
            Bound::NoIncrease | Bound::Exact => None,
        })
    }
}

const ALL: &[&str] = &[FULL_OFFLINE, SERVE_SINGLE, SERVE_HOT8, UPDATE_MIX];

pub const SETUP_S: &str = "setup_s";
pub const NODES_PER_S: &str = "nodes_per_s";
pub const LATENCY_P50_US: &str = "latency_p50_us";
pub const LATENCY_P99_US: &str = "latency_p99_us";
pub const MISS_READ_P50_US: &str = "miss_read_p50_us";
pub const UPDATE_P50_US: &str = "update_p50_us";
pub const FAILED_SHARE: &str = "failed_share";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SIM_CYCLES_PER_NODE: &str = "sim_cycles_per_node";

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        pool: Pool::Median,
        on: ALL,
        bound: Bound::Share(0.25),
        bound_on: &[],
    },
    EndToEnd {
        name: NODES_PER_S,
        unit: "nodes/s",
        better: Better::Higher,
        pool: Pool::Median,
        on: ALL,
        bound: Bound::Share(0.15),
        bound_on: &[(SERVE_SINGLE, Bound::Share(0.25))],
    },
    EndToEnd {
        name: LATENCY_P50_US,
        unit: "us",
        better: Better::Lower,
        pool: Pool::Median,
        on: ALL,
        bound: Bound::Share(0.15),
        bound_on: &[(SERVE_SINGLE, Bound::Share(0.25))],
    },
    EndToEnd {
        name: LATENCY_P99_US,
        unit: "us",
        better: Better::Lower,
        pool: Pool::Median,
        on: &[SERVE_SINGLE, SERVE_HOT8],
        bound: Bound::Share(0.25),
        bound_on: &[],
    },
    EndToEnd {
        name: MISS_READ_P50_US,
        unit: "us",
        better: Better::Lower,
        pool: Pool::Median,
        on: &[UPDATE_MIX],
        bound: Bound::Share(0.20),
        bound_on: &[],
    },
    EndToEnd {
        name: UPDATE_P50_US,
        unit: "us",
        better: Better::Lower,
        pool: Pool::Median,
        on: &[UPDATE_MIX],
        bound: Bound::Share(0.15),
        bound_on: &[],
    },
    EndToEnd {
        name: FAILED_SHARE,
        unit: "ratio",
        better: Better::Lower,
        pool: Pool::FailedShare,
        on: ALL,
        bound: Bound::NoIncrease,
        bound_on: &[],
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        pool: Pool::Max,
        on: ALL,
        bound: Bound::Share(0.15),
        bound_on: &[(UPDATE_MIX, Bound::Share(0.25))],
    },
    EndToEnd {
        name: SIM_CYCLES_PER_NODE,
        unit: "cycles",
        better: Better::Lower,
        pool: Pool::Exact,
        on: &[FULL_OFFLINE],
        bound: Bound::Exact,
        bound_on: &[],
    },
];

/// A metric of one layer, measured only in the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The (end-to-end metric, workload) pairs it should move, written
    /// down before any optimisation is measured.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher, Lower};

const KERNEL: &str = "nodes_per_s, latency_p50_us on full_offline";
const KERNEL_MISS: &str = "nodes_per_s on full_offline; miss_read_p50_us on update_mix";
const SPINE: &str = "latency_p50_us on serve_single";
const SPINE_HOT: &str = "latency_p50_us on serve_single, serve_hot8";
const BATCH: &str = "latency_p50_us, nodes_per_s on serve_hot8";
const WRITE: &str = "update_p50_us on update_mix";
const MISS: &str = "miss_read_p50_us, nodes_per_s on update_mix";
const WIRE: &str = "latency_p50_us, latency_p99_us on serve_single, update_mix";
const MODEL: &str = "sim_cycles_per_node on full_offline";
const NONE: &str = "none (reference or bookkeeping)";

pub const PER_LAYER: [PerLayer; 57] = [
    layer("fft.rfft16_ns", "ns", Lower, KERNEL),
    layer("fft.irfft16_ns", "ns", Lower, KERNEL),
    layer("fft.transforms_per_node", "count", Lower, KERNEL),
    layer("core.matvec_256_b16_us", "us", Lower, KERNEL_MISS),
    layer("core.matvec_96x64_b16_us", "us", Lower, KERNEL_MISS),
    layer("core.matvec_self_share", "ratio", Lower, KERNEL_MISS),
    layer("core.weight_bytes", "bytes", Lower, "peak_rss_mb on full_offline"),
    layer("linalg.gemm_row_us", "us", Lower, NONE),
    layer("nn.layer_row_us_r256", "us", Lower, KERNEL),
    layer("nn.layer_row_us_r1", "us", Lower, SPINE),
    layer("nn.layer_self_share", "ratio", Lower, KERNEL),
    layer("nn.spectral_over_gemm", "ratio", Lower, KERNEL),
    layer("graph.delta_apply_us", "us", Lower, WRITE),
    layer("graph.sample_2hop_us", "us", Lower, SPINE),
    layer("gnn.subgraph_build_us", "us", Lower, SPINE_HOT),
    layer("gnn.subgraph_nodes", "count", Lower, SPINE_HOT),
    layer("gnn.gather_us", "us", Lower, SPINE_HOT),
    layer("gnn.forward_sub_us", "us", Lower, SPINE_HOT),
    layer("gnn.forward_full_ms", "ms", Lower, KERNEL),
    layer("gnn.forward_self_share", "ratio", Lower, KERNEL),
    layer("gnn.merge8_us", "us", Lower, BATCH),
    layer("engine.infer_b1_us", "us", Lower, SPINE),
    layer("engine.infer_b16_us", "us", Lower, NONE),
    layer("engine.infer_b256_us", "us", Lower, NONE),
    layer("engine.self_us", "us", Lower, SPINE),
    layer("engine.coalesced8_us", "us", Lower, BATCH),
    layer("engine.stage_sample_us", "us", Lower, BATCH),
    layer("engine.stage_merge_us", "us", Lower, BATCH),
    layer("engine.stage_gather_us", "us", Lower, BATCH),
    layer("engine.stage_execute_us", "us", Lower, BATCH),
    layer("engine.stage_scatter_us", "us", Lower, BATCH),
    layer("engine.full_pass_ms", "ms", Lower, MISS),
    layer("engine.full_hit_us", "us", Lower, "latency_p50_us on update_mix"),
    layer("engine.apply_delta_us", "us", Lower, WRITE),
    layer("engine.par2_cold_ms", "ms", Lower, NONE),
    layer("engine.par2_warm_ms", "ms", Lower, NONE),
    layer("engine.hot_rows", "count", Higher, NONE),
    layer("server.inproc_rt_us", "us", Lower, SPINE),
    layer("server.queue_us", "us", Lower, BATCH),
    layer("server.compute_us", "us", Lower, SPINE),
    layer("server.dispatch_self_us", "us", Lower, WIRE),
    layer("server.tcp_rt_us", "us", Lower, SPINE),
    layer("server.wire_self_us", "us", Lower, WIRE),
    layer("server.parse_us", "us", Lower, WIRE),
    layer("server.encode_us", "us", Lower, WIRE),
    layer("server.reply_bytes", "bytes", Lower, WIRE),
    layer("server.mean_batch", "count", Higher, BATCH),
    layer("server.dedup_share", "ratio", Higher, BATCH),
    layer("server.hit_share", "ratio", Higher, "nodes_per_s on update_mix"),
    layer("accel.cycles_per_node", "cycles", Lower, MODEL),
    layer("accel.nodes_per_joule", "nodes/J", Higher, MODEL),
    layer("perf.model_cycles_per_node", "cycles", Lower, MODEL),
    layer("perf.model_over_sim", "ratio", Lower, MODEL),
    layer("trace.parts_sum_us", "us", Lower, SPINE),
    layer("trace.unaccounted_us", "us", Lower, NONE),
    layer("trace.overhead_share", "ratio", Lower, NONE),
    layer("loadgen.late_p99_us", "us", Lower, NONE),
];

/// Seconds each (workload, round) child of `benchmark run` measures.
pub const RUN_SECONDS: u64 = 10;
/// Seconds one run of `BENCHMARK.json`'s driver measures (`run_seconds`).
/// Its run is a single process where `run` pools three, and for a few
/// seconds at a time the host runs even one compute-bound thread 15%
/// slower: 10-s runs of `full_offline` put three or four of ten seeds in
/// such a phase (spread 0.13), so the driver gets twice the windows.
pub const CONTRACT_SECONDS: u64 = 20;

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(CONTRACT_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter_map(|m| {
                        m.contract_bound().map(|bound| {
                            Json::obj([
                                ("name", Json::str(m.name)),
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str(m.better.name())),
                                ("bound", Json::Num(bound)),
                            ])
                        })
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in END_TO_END {
            for w in WORKLOADS {
                if let Bound::Share(share) = m.bound_for(w.name) {
                    assert!(share > 0.0 && share <= 0.25, "{} on {}", m.name, w.name);
                }
            }
            for (w, _) in m.bound_on {
                assert!(
                    m.reported_on(w),
                    "{} has a bound on {w} but is not reported there",
                    m.name
                );
            }
        }
        // The published bound is the loosest enforced one, and the metrics
        // the contract cannot carry are exactly the ones named in README.md.
        let published: Vec<(&str, f64)> =
            END_TO_END.iter().filter_map(|m| Some((m.name, m.contract_bound()?))).collect();
        assert_eq!(
            published,
            [(SETUP_S, 0.25), (NODES_PER_S, 0.25), (LATENCY_P50_US, 0.25), (PEAK_RSS_MB, 0.25)]
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn unknown_workload_lists_the_valid_ones() {
        let err = workload("serve_all").unwrap_err();
        for w in WORKLOADS {
            assert!(err.contains(w.name));
        }
        assert_eq!(workload(UPDATE_MIX).unwrap().name, UPDATE_MIX);
    }
}
