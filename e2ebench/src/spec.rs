//! What the benchmark runs and what it reports: the four workloads and
//! the metric tables. `BENCHMARK.json` at the repository root repeats
//! these names; `tests/smoke.rs` fails if the two drift apart.

/// Neighbours asked for by every k-NN request.
pub const K: usize = 10;
/// Distance-ratio slack of the approximate tier's requests.
pub const EPSILON: f64 = 0.25;
/// Closed-loop client threads, one connection each: callers of this
/// system (coordinator legs, application threads) each wait for their
/// reply, and the box has two cores.
pub const CLIENTS: usize = 2;
/// `ServerConfig.workers` / `CoordServerConfig.workers`. Clients never
/// exceed workers, so any shed request is a failure, not admission
/// control at work.
pub const WORKERS: usize = 2;
/// Every `ORACLE_STRIDE`-th query has bench-computed ground truth.
pub const ORACLE_STRIDE: usize = 10;
/// Rows per scene class of the synthetic corpus. The generator's default
/// of 20 classes makes every seed a visibly different dataset (exact-EMD
/// latency moves by ±10 % with the palettes drawn); many small clusters,
/// each still larger than `K`, average that out, so a seed changes the
/// data without changing how hard it is.
pub const ROWS_PER_CLASS: usize = 20;
/// Buffer-pool budget of the paged workload: 4 of its 16 blocks.
pub const POOL_BYTES: usize = 256 * 1024;
/// Size of the paged workload's hot query set: the last 8 cold queries,
/// well inside the filter cache's 32-entry FIFO.
pub const HOT_SET: usize = 8;
/// First starts timed per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// How a workload's database is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Resident `.emdb`, one `Server`, mixed exact / approximate / range.
    RefineMixed,
    /// Paged `.emdc` behind a pool a quarter of the file's size.
    ScanPaged,
    /// Resident + `.emds` sidecar, sketch-only, a connection per request.
    WireSketch,
    /// Two shard `Server`s behind one `CoordServer`.
    Cluster,
}

/// One named workload. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name the driver passes as `--workload`.
    pub name: &'static str,
    /// Serving configuration.
    pub kind: Kind,
    /// Bin-grid axes (the paper's reduced 3-D grids).
    pub axes: [usize; 3],
    /// Database rows.
    pub rows: usize,
    /// Distinct query histograms (never database members).
    pub queries: usize,
}

/// The four workloads, in the order `e2e all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "refine_mixed_d32",
        kind: Kind::RefineMixed,
        axes: [4, 4, 2],
        rows: 20_000,
        queries: 2_000,
    },
    Workload {
        name: "scan_paged_d16",
        kind: Kind::ScanPaged,
        axes: [4, 2, 2],
        rows: 8_000,
        queries: 2_000,
    },
    Workload {
        name: "wire_sketch_d16",
        kind: Kind::WireSketch,
        axes: [4, 2, 2],
        rows: 20_000,
        queries: 2_000,
    },
    Workload {
        name: "cluster_d32",
        kind: Kind::Cluster,
        axes: [4, 4, 2],
        rows: 20_000,
        queries: 2_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of `emdd` / `emdd-coord` sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("knn_p50_ms", "ms"),
    m("knn_p99_ms", "ms"),
    m("approx_p50_ms", "ms"),
    m("range_p50_ms", "ms"),
    m("qps", "1/s"),
    m("recall_at_k", "frac"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("disk_bytes_per_user_byte", "B/B"),
];

/// Single-layer numbers from the traced run; layer = module name. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("transport.solves_per_req", "count"),
    m("transport.solve_us_p50", "us"),
    m("transport.busy_frac", "frac"),
    m("transport.useful_frac", "frac"),
    m("transport.recovery_notes", "count"),
    m("lower_bounds.lb_im_evals_per_req", "count"),
    m("lower_bounds.lb_im_us_per_eval", "us"),
    m("lower_bounds.lb_im_pass_frac", "frac"),
    m("lower_bounds.lb_im_busy_frac", "frac"),
    m("lower_bounds.first_stage_evals_per_req", "count"),
    m("lower_bounds.first_stage_busy_frac", "frac"),
    m("lower_bounds.scan_pairs_per_s", "1/s"),
    m("rtree.node_accesses_per_req", "count"),
    m("rtree.rank_busy_frac", "frac"),
    m("rtree.build_s", "s"),
    m("multistep.self_frac", "frac"),
    m("multistep.range_candidates_per_req", "count"),
    m("pipeline.engine_ms_p50", "ms"),
    m("storage.pool_hit_frac", "frac"),
    m("storage.block_loads_per_req", "count"),
    m("storage.evictions_per_req", "count"),
    m("storage.bypasses", "count"),
    m("storage.cold_lease_us", "us"),
    m("storage.read_calls_per_req", "count"),
    m("storage.read_bytes_per_req", "B"),
    m("storage.read_busy_frac", "frac"),
    m("storage.load_busy_frac", "frac"),
    m("storage.convert_s", "s"),
    m("cache.filter_hit_frac", "frac"),
    m("cache.entries", "count"),
    m("sketch.scan_us_p50", "us"),
    m("sketch.rows_per_s", "1/s"),
    m("sketch.build_s", "s"),
    m("sketch.sidecar_bytes", "B"),
    m("sketch.distortion", "ratio"),
    m("sketch.busy_frac", "frac"),
    m("protocol.encode_req_ns", "ns"),
    m("protocol.decode_req_ns", "ns"),
    m("protocol.encode_resp_ns", "ns"),
    m("protocol.decode_resp_ns", "ns"),
    m("protocol.req_bytes", "B"),
    m("protocol.resp_bytes", "B"),
    m("protocol.busy_frac", "frac"),
    m("server.rtt_floor_us", "us"),
    m("server.connect_ms_p50", "ms"),
    m("server.accept_wait_ms_p50", "ms"),
    m("server.overhead_ms_p50", "ms"),
    m("server.busy_frac", "frac"),
    m("server.shed", "count"),
    m("server.dropped", "count"),
    m("coord.overhead_ms_p50", "ms"),
    m("coord.busy_frac", "frac"),
    m("coord.straggler_gap_ms_p50", "ms"),
    m("coord.refine_amplification", "ratio"),
    m("coord.retries", "count"),
    m("coord.hedges", "count"),
    m("coord.breaker_opens", "count"),
    m("obs.ring_overhead_frac", "frac"),
    m("bench.trace_overhead_frac", "frac"),
    m("bench.unaccounted_frac", "frac"),
];
