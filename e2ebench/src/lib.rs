//! The served-query benchmark of the earthmover serving stack: four
//! workloads driven through `Client` → loopback TCP → `Server` /
//! `CoordServer` → `QueryEngine`, end-to-end metrics with tracing off,
//! per-layer metrics from a traced run, every answer checked against an
//! oracle the bench computes itself. See `BENCHMARK.md`.

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod load;
pub mod oracle;
pub mod report;
pub mod run;
pub mod serving;
pub mod spec;
pub mod trace;
