//! The closed-loop load generator and its bookkeeping.
//!
//! Each client thread owns one connection (or opens one per request on
//! the fresh-connection workload), sends its share of the request
//! stream, and waits for every reply before sending the next request.
//! Open-loop rate sweeps and overload behaviour stay in `loadgen`.

use crate::inputs::{Inputs, Op, Req};
use crate::oracle::Truth;
use crate::serving::IO_TIMEOUT;
use crate::spec::{Kind, CLIENTS, EPSILON, K};
use earthmover_core::stats::QueryStats;
use earthmover_core::RetrievalMode;
use earthmover_serve::client::{Client, ClientError, Outcome};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// One answered request kept for the correctness check.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The request that produced it.
    pub req: Req,
    /// `(row, distance)` as served.
    pub items: Vec<(u64, f64)>,
    /// Server-side work breakdown.
    pub stats: QueryStats,
}

/// Outcome counts and latencies of a load phase, merged across clients.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// `Outcome::Complete` replies.
    pub complete: u64,
    /// `Outcome::Partial` replies (a failure here: no deadline is set).
    pub partial: u64,
    /// `Outcome::Overloaded` replies.
    pub shed: u64,
    /// Wire errors: the connection was reset or closed.
    pub dropped: u64,
    /// Typed server errors and protocol violations.
    pub errors: u64,
    /// Client-observed latency in seconds of complete replies, indexed
    /// by `Op as usize`: k-NN, approximate, range.
    pub latencies: [Vec<f64>; 3],
    /// Complete replies to queries that have ground truth.
    pub answers: Vec<Answer>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.complete += other.complete;
        self.partial += other.partial;
        self.shed += other.shed;
        self.dropped += other.dropped;
        self.errors += other.errors;
        for (mine, theirs) in self.latencies.iter_mut().zip(other.latencies) {
            mine.extend(theirs);
        }
        self.answers.extend(other.answers);
        self.failures.extend(other.failures);
    }

    /// Requests that did not come back complete.
    pub fn failed(&self) -> u64 {
        self.attempted - self.complete
    }

    /// Notes a failure, keeping the first few descriptions.
    pub fn note_failure(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// How a load phase sends its requests.
#[derive(Clone, Copy)]
pub struct Drive<'a> {
    /// Server or coordinator address.
    pub addr: SocketAddr,
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// Ground truth, for range radii and for choosing which answers to
    /// keep.
    pub truth: &'a HashMap<usize, Truth>,
    /// The requests to cycle through.
    pub stream: &'a [Req],
    /// When to stop issuing; `None` sends the stream exactly once.
    pub stop_at: Option<Instant>,
}

/// The retrieval-mode extension a request of `kind`'s workload carries:
/// sketch-only for that workload's k-NN, the ε tier for approximate
/// requests, none (the mode-less exact path) otherwise.
pub fn retrieval_mode(kind: Kind, op: Op) -> Option<RetrievalMode> {
    match op {
        Op::Knn if kind == Kind::WireSketch => Some(RetrievalMode::SketchOnly),
        Op::Approx => Some(RetrievalMode::Approximate { epsilon: EPSILON }),
        Op::Knn | Op::Range => None,
    }
}

/// The radius of a range request: the query's true k-th neighbour
/// distance.
pub fn radius(truth: &HashMap<usize, Truth>, query: usize) -> f64 {
    truth.get(&query).map_or(0.0, Truth::kth)
}

/// Sends one request and returns the client's view of the reply.
pub fn send(client: &mut Client, drive: &Drive<'_>, req: Req) -> Result<Outcome, ClientError> {
    let q = &drive.inputs.queries[req.query];
    match (req.op, retrieval_mode(drive.inputs.workload.kind, req.op)) {
        (Op::Range, _) => client.range(q, radius(drive.truth, req.query), 0),
        (_, Some(mode)) => client.knn_mode(q, K as u32, 0, mode),
        (_, None) => client.knn(q, K as u32, 0),
    }
}

fn client_loop(drive: Drive<'_>, index: usize) -> Tally {
    let kind = drive.inputs.workload.kind;
    let fresh = kind == Kind::WireSketch;
    let mut tally = Tally::default();
    let mut kept: Option<Client> = None;
    let mine: Vec<Req> = drive
        .stream
        .iter()
        .copied()
        .skip(index)
        .step_by(CLIENTS)
        .collect();
    let mut turns = mine.iter().copied().cycle();
    let mut sent = 0usize;
    loop {
        match drive.stop_at {
            Some(at) if Instant::now() >= at => break,
            None if sent == mine.len() => break,
            _ => {}
        }
        let Some(req) = turns.next() else { break };
        sent += 1;
        tally.attempted += 1;
        let started = Instant::now();
        // A fresh connection per request is what `emdtool client` and
        // `loadgen` do; its cost is part of what that caller waits for.
        let mut client = match kept.take() {
            Some(client) => client,
            None => match Client::connect(drive.addr, IO_TIMEOUT) {
                Ok(client) => client,
                Err(e) => {
                    tally.dropped += 1;
                    tally.note_failure(format!("connect: {e}"));
                    continue;
                }
            },
        };
        let outcome = send(&mut client, &drive, req);
        let latency = started.elapsed().as_secs_f64();
        match outcome {
            Ok(Outcome::Complete { items, stats }) => {
                tally.complete += 1;
                tally.latencies[req.op as usize].push(latency);
                if drive.truth.contains_key(&req.query) {
                    tally.answers.push(Answer { req, items, stats });
                }
            }
            Ok(Outcome::Partial { .. }) => {
                tally.partial += 1;
                tally.note_failure(format!("{req:?}: partial answer"));
            }
            Ok(Outcome::Overloaded { .. }) => {
                tally.shed += 1;
                tally.note_failure(format!("{req:?}: shed"));
            }
            Err(ClientError::Wire(e)) => {
                tally.dropped += 1;
                tally.note_failure(format!("{req:?}: {e}"));
                continue; // the connection is dead: reconnect next turn
            }
            Err(e) => {
                tally.errors += 1;
                tally.note_failure(format!("{req:?}: {e}"));
            }
        }
        if !fresh {
            kept = Some(client);
        }
    }
    tally
}

/// Runs `drive` from [`CLIENTS`] closed-loop client threads and returns
/// the merged tally plus the wall-clock seconds the phase took.
pub fn run(drive: Drive<'_>) -> (Tally, f64) {
    let started = Instant::now();
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| scope.spawn(move || client_loop(drive, index)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => tally.merge(part),
                Err(_) => {
                    tally.attempted += 1;
                    tally.errors += 1;
                    tally.note_failure("client thread panicked".to_string());
                }
            }
        }
    });
    (tally, started.elapsed().as_secs_f64())
}
