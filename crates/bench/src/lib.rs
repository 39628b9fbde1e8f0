//! Shared harness for the experiment suite: workload construction, the
//! named filter configurations the paper compares, and table formatting.
//!
//! The `figures` binary (see `src/bin/figures.rs`) drives these helpers to
//! regenerate every evaluation figure of the paper; the Criterion benches
//! use the same setup for micro-level costs. EXPERIMENTS.md records the
//! outputs next to the paper's own numbers.

use earthmover_core::db::HistogramDb;
use earthmover_core::ground::BinGrid;
use earthmover_core::histogram::Histogram;
use earthmover_core::pipeline::{FirstStage, KnnAlgorithm, QueryEngine};
use earthmover_core::stats::QueryStats;
use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
use std::time::Duration;

/// Histogram resolutions of the paper's dimensionality experiment
/// (Figure 8): 16, 32 and 64 bins.
pub fn grid_for_dims(dims: usize) -> BinGrid {
    BinGrid::for_bins(dims)
        .unwrap_or_else(|| panic!("unsupported histogram dimensionality {dims} (use 16/32/64)"))
}

/// A fully constructed experiment workload: database plus query
/// histograms drawn from the same corpus but disjoint from the database.
pub struct Workload {
    /// The bin layout.
    pub grid: BinGrid,
    /// The histogram database of `db_size` corpus images.
    pub db: HistogramDb,
    /// Normalized query histograms (the paper used 200 random query
    /// images; the count here is configurable for runtime).
    pub queries: Vec<Histogram>,
}

impl Workload {
    /// Builds a deterministic workload: `db_size` database images and
    /// `num_queries` query images (ids beyond the database range so
    /// queries are not database members), `dims`-bin histograms.
    pub fn build(dims: usize, db_size: usize, num_queries: usize, seed: u64) -> Workload {
        let grid = grid_for_dims(dims);
        let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(seed));
        let db = corpus.build_database(&grid, db_size);
        let queries = (0..num_queries as u64)
            .map(|i| {
                corpus
                    .histogram(db_size as u64 + i, &grid)
                    .into_normalized()
                    .expect("corpus images have positive mass")
            })
            .collect();
        Workload { grid, db, queries }
    }
}

/// The named filter configurations compared across the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// `LB_Man` scan filter, then exact EMD.
    Man,
    /// `LB_Avg` scan filter, then exact EMD.
    Avg,
    /// `LB_IM` scan filter, then exact EMD ("simple multistep" with the
    /// paper's most selective bound; `LB_Max`/`LB_Eucl` are measured in
    /// the tightness experiment rather than as engine configs, mirroring
    /// the paper dropping them from its figures).
    Im,
    /// Two-phase: 3-D `LB_Avg` R-tree index → `LB_IM` → EMD (paper's best).
    ComboAvg,
    /// Two-phase: 3-D reduced `LB_Man` R-tree index → `LB_IM` → EMD.
    ComboMan,
}

impl Config {
    /// All engine configurations in presentation order.
    pub fn all() -> [Config; 5] {
        [
            Config::Man,
            Config::Avg,
            Config::Im,
            Config::ComboMan,
            Config::ComboAvg,
        ]
    }

    /// Display label matching the paper's series names.
    pub fn label(self) -> &'static str {
        match self {
            Config::Man => "LB_Man",
            Config::Avg => "LB_Avg",
            Config::Im => "LB_IM",
            Config::ComboAvg => "Combo(Avg3D+IM)",
            Config::ComboMan => "Combo(Man3D+IM)",
        }
    }

    /// Builds the engine for this configuration.
    pub fn engine<'a>(self, w: &'a Workload, algorithm: KnnAlgorithm) -> QueryEngine<'a> {
        let builder = QueryEngine::builder(&w.db, &w.grid).algorithm(algorithm);
        match self {
            Config::Man => builder
                .first_stage(FirstStage::ManhattanScan)
                .lb_im(false)
                .build(),
            Config::Avg => builder
                .first_stage(FirstStage::AvgScan)
                .lb_im(false)
                .build(),
            Config::Im => builder.first_stage(FirstStage::ImScan).build(),
            Config::ComboAvg => builder
                .first_stage(FirstStage::AvgIndex)
                .lb_im(true)
                .build(),
            Config::ComboMan => builder
                .first_stage(FirstStage::ManhattanIndex { dims: 3 })
                .lb_im(true)
                .build(),
        }
    }
}

/// Averaged measurements for one configuration over a query workload.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Measurement {
    /// Configuration label.
    pub label: String,
    /// Mean selectivity (fraction of DB refined with exact EMD).
    pub selectivity: f64,
    /// Mean wall-clock time per query.
    pub time_per_query: Duration,
    /// Mean exact EMD evaluations per query.
    pub exact_evaluations: f64,
    /// Mean index node accesses per query (0 for scans).
    pub node_accesses: f64,
}

/// Runs `engine.knn(q, k)` for every query and averages the statistics.
pub fn measure_knn(
    label: &str,
    engine: &QueryEngine<'_>,
    queries: &[Histogram],
    k: usize,
) -> Measurement {
    let mut merged = QueryStats::default();
    for q in queries {
        let result = engine.knn(q, k).expect("benchmark query failed");
        merged.merge(&result.stats);
    }
    let n = queries.len().max(1) as f64;
    Measurement {
        label: label.to_string(),
        selectivity: merged.exact_evaluations as f64 / (merged.db_size.max(1) as f64 * n),
        time_per_query: merged.elapsed / queries.len().max(1) as u32,
        exact_evaluations: merged.exact_evaluations as f64 / n,
        node_accesses: merged.node_accesses as f64 / n,
    }
}

/// Prints a measurement table (selectivity panel + response-time panel,
/// like the paper's paired figures).
pub fn print_table(title: &str, rows: &[Measurement], csv: bool) {
    if csv {
        println!("# {title}");
        println!("config,selectivity_pct,ms_per_query,exact_evals,node_accesses");
        for r in rows {
            println!(
                "{},{:.6},{:.3},{:.1},{:.1}",
                r.label,
                100.0 * r.selectivity,
                r.time_per_query.as_secs_f64() * 1e3,
                r.exact_evaluations,
                r.node_accesses
            );
        }
        return;
    }
    println!("\n=== {title} ===");
    println!(
        "{:<18} {:>14} {:>12} {:>12} {:>12}",
        "config", "selectivity %", "ms/query", "EMD evals", "node reads"
    );
    for r in rows {
        println!(
            "{:<18} {:>14.4} {:>12.3} {:>12.1} {:>12.1}",
            r.label,
            100.0 * r.selectivity,
            r.time_per_query.as_secs_f64() * 1e3,
            r.exact_evaluations,
            r.node_accesses
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        let w = Workload::build(16, 50, 4, 1);
        assert_eq!(w.db.len(), 50);
        assert_eq!(w.db.dims(), 16);
        assert_eq!(w.queries.len(), 4);
        for q in &w.queries {
            assert!((q.mass() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn grid_resolutions() {
        assert_eq!(grid_for_dims(16).num_bins(), 16);
        assert_eq!(grid_for_dims(32).num_bins(), 32);
        assert_eq!(grid_for_dims(64).num_bins(), 64);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn unsupported_dims_panics() {
        let _ = grid_for_dims(48);
    }

    #[test]
    fn configs_produce_working_engines() {
        let w = Workload::build(16, 60, 2, 2);
        let mut reference: Option<Vec<f64>> = None;
        for config in Config::all() {
            let engine = config.engine(&w, KnnAlgorithm::Optimal);
            let m = measure_knn(config.label(), &engine, &w.queries, 5);
            assert!(m.selectivity > 0.0 && m.selectivity <= 1.0);
            // All configurations retrieve identical results (completeness).
            let distances: Vec<f64> = engine
                .knn(&w.queries[0], 5)
                .unwrap()
                .items
                .iter()
                .map(|(_, d)| *d)
                .collect();
            match &reference {
                None => reference = Some(distances),
                Some(r) => {
                    for (a, b) in r.iter().zip(&distances) {
                        assert!((a - b).abs() < 1e-9, "{config:?}");
                    }
                }
            }
        }
    }
}
