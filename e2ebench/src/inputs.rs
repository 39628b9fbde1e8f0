//! Seed → inputs: the corpus, the `.emdb` files the servers start from,
//! the query list and the request stream.
//!
//! `--seed` drives the corpus (scene classes and every image), the query
//! ids, the operation mix and the hot-set draws; the servers only ever
//! see the generated files and the frames sent to them.

use crate::spec::{Kind, Workload, HOT_SET, ORACLE_STRIDE, ROWS_PER_CLASS};
use earthmover_core::ground::BinGrid;
use earthmover_core::{storage, Histogram, HistogramDb};
use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover_serve::coord::shard_of;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Shard groups of the cluster workload.
pub const SHARDS: usize = 2;

/// The operation a request performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The workload's k-NN: exact, or sketch-only on `wire_sketch_d16`.
    Knn,
    /// k-NN on the `Approximate{ε}` tier.
    Approx,
    /// ε-range query at the query's true k-th neighbour distance.
    Range,
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// What to ask.
    pub op: Op,
    /// Index into [`Inputs::queries`].
    pub query: usize,
}

/// Everything one run of one workload is made from.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Ground-distance grid.
    pub grid: BinGrid,
    /// The whole corpus, kept by the bench for its oracle; servers load
    /// their own copy from the files below.
    pub db: HistogramDb,
    /// Query histograms: corpus images with ids ≥ rows, so no query is a
    /// database member.
    pub queries: Vec<Histogram>,
    /// The request stream clients cycle through, client `c` taking the
    /// entries at `c, c + CLIENTS, …`.
    pub stream: Vec<Req>,
    /// The unsplit database file.
    pub emdb: PathBuf,
    /// Per-shard files (cluster workload only), in shard-map order.
    pub shard_files: Vec<PathBuf>,
}

impl Inputs {
    /// True when query `index` has bench-computed ground truth.
    pub fn in_oracle(index: usize) -> bool {
        index.is_multiple_of(ORACLE_STRIDE)
    }

    /// Bytes of user data: rows × dims × 8.
    pub fn user_bytes(&self) -> u64 {
        (self.db.len() * self.db.dims() * 8) as u64
    }
}

/// Generates the inputs of `workload` from `seed` and writes the
/// database files under `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let grid = BinGrid::new(workload.axes.to_vec());
    let classes = (workload.rows / ROWS_PER_CLASS).max(1);
    let corpus = SyntheticCorpus::new(
        CorpusConfig::default()
            .with_seed(seed)
            .with_classes(classes),
    );
    let db = corpus.build_database(&grid, workload.rows);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE2E0_51DE);

    let mut ids = BTreeSet::new();
    while ids.len() < workload.queries {
        ids.insert(workload.rows as u64 + rng.gen_range(0..1_000_000u64));
    }
    let queries = ids
        .iter()
        .map(|&id| corpus.histogram(id, &grid).into_normalized())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("query histogram: {e}"))?;

    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let emdb = dir.join("db.emdb");
    storage::save(&db, &emdb).map_err(|e| format!("{}: {e}", emdb.display()))?;
    let mut shard_files = Vec::new();
    if workload.kind == Kind::Cluster {
        // The split `emdtool shard-split` performs: hash placement,
        // global ids ascending within each shard.
        let mut parts: Vec<HistogramDb> =
            (0..SHARDS).map(|_| HistogramDb::new(db.dims())).collect();
        for id in 0..db.len() {
            parts[shard_of(id as u64, SHARDS)].push(db.get(id).to_histogram());
        }
        for (i, part) in parts.iter().enumerate() {
            let path = dir.join(format!("shard{i}.emdb"));
            storage::save(part, &path).map_err(|e| format!("{}: {e}", path.display()))?;
            shard_files.push(path);
        }
    }

    let stream = request_stream(workload, &mut rng);
    Ok(Inputs {
        workload,
        grid,
        db,
        queries,
        stream,
        emdb,
        shard_files,
    })
}

/// The nearest query at or below `index` that has ground truth.
fn oracle_query(index: usize) -> usize {
    index - index % ORACLE_STRIDE
}

fn request_stream(workload: Workload, rng: &mut StdRng) -> Vec<Req> {
    let n = workload.queries;
    let knn = |query| Req { op: Op::Knn, query };
    match workload.kind {
        // 60 % exact k-NN / 20 % approximate / 20 % range over five
        // passes of the list, so every query is asked in several ways.
        // Range radii come from the oracle, so range ops only use
        // queries that have one.
        Kind::RefineMixed => (0..5 * n)
            .map(|i| {
                let query = i % n;
                match rng.gen_range(0..5u32) {
                    0 => Req {
                        op: Op::Approx,
                        query,
                    },
                    1 => Req {
                        op: Op::Range,
                        query: oracle_query(query),
                    },
                    _ => knn(query),
                }
            })
            .collect(),
        // Three cold queries (the list, in order), then one of the last
        // `HOT_SET` cold queries again: the filter cache and the pool see
        // reuse on a quarter of the stream and none on the rest. The hot
        // set slides with the stream because per-query cost is heavy
        // tailed: eight queries fixed for a run would decide a quarter of
        // its requests, and every metric would follow their luck.
        Kind::ScanPaged => {
            let mut stream = Vec::new();
            for query in 0..n {
                stream.push(knn(query));
                if query % 3 == 2 {
                    let back = rng.gen_range(0..HOT_SET.min(query + 1));
                    stream.push(knn(query - back));
                }
            }
            stream
        }
        Kind::WireSketch | Kind::Cluster => (0..n).map(knn).collect(),
    }
}

/// The approximate and range requests asked of workloads whose own
/// stream has none, so that every workload reports every per-operation
/// median: one of each per oracle query.
pub fn probe_stream(workload: Workload) -> Vec<Req> {
    (0..workload.queries)
        .step_by(ORACLE_STRIDE)
        .flat_map(|query| {
            [
                Req {
                    op: Op::Approx,
                    query,
                },
                Req {
                    op: Op::Range,
                    query,
                },
            ]
        })
        .collect()
}
