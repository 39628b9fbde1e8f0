//! Golden-bits regression test for the transportation simplex.
//!
//! A fixed, xorshift-seeded family of instances is solved and every
//! output bit is folded into one FNV-1a hash: `total_cost.to_bits()`, the
//! pivot count, and every flow's `(from, to, mass.to_bits())` in the order
//! the solver reports them. Any change to Vogel's start cell, its tie
//! order, the pivot sequence or the summation order moves the hash, so a
//! rewrite of the solver that claims to be bit-identical must leave
//! [`GOLDEN`] unchanged.
//!
//! The instances cover the three cost shapes the solver meets: the
//! Euclidean distance between the centroids of a 3-D bin grid (the
//! `BinGrid` the query engine uses), the line metric `|i − j|`, and a
//! three-valued matrix whose rows are full of ties. Marginals mix
//! densities of 0.2, 0.35, 0.6 and 1.0 with integer and real masses.
//!
//! [`GOLDEN`] was recorded over these 3,024 square solves, in debug and
//! release builds, while the solver was still generic over its cost type
//! and also served rectangular problems; specialising it to
//! [`CostMatrix`] left every bit in place.

use earthmover_transport::{solve_transportation, CostMatrix, TransportSolution};

/// The hash every build of the solver must reproduce.
const GOLDEN: u64 = 0x0241_bade_4902_2746;

/// Marsaglia's xorshift64: deterministic, dependency-free, good enough to
/// scatter masses and costs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn solution(&mut self, sol: &TransportSolution) {
        self.word(sol.total_cost.to_bits());
        self.word(sol.pivots as u64);
        self.word(sol.flows.len() as u64);
        for f in &sol.flows {
            self.word(f.from as u64);
            self.word(f.to as u64);
            self.word(f.mass.to_bits());
        }
    }
}

/// Axis resolutions of the 3-D grid with `bins` cells.
fn grid_axes(bins: usize) -> [usize; 3] {
    match bins {
        4 => [2, 2, 1],
        8 => [2, 2, 2],
        16 => [4, 2, 2],
        32 => [4, 4, 2],
        64 => [4, 4, 4],
        _ => panic!("no grid with {bins} bins"),
    }
}

/// Euclidean distance between bin centroids of a 3-D grid, row-major bins.
fn grid_cost(bins: usize) -> CostMatrix {
    let axes = grid_axes(bins);
    let centroid = |mut bin: usize| {
        let mut c = [0.0; 3];
        for d in (0..3).rev() {
            c[d] = ((bin % axes[d]) as f64 + 0.5) / axes[d] as f64;
            bin /= axes[d];
        }
        c
    };
    CostMatrix::from_fn(bins, |i, j| {
        let (a, b) = (centroid(i), centroid(j));
        a.iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt()
    })
}

fn line_cost(bins: usize) -> CostMatrix {
    CostMatrix::from_fn(bins, |i, j| (i as f64 - j as f64).abs())
}

/// Zero diagonal, off-diagonal entries drawn from {1, 2}: every row is a
/// run of ties, which is where the start cell's tie order shows.
fn tie_cost(bins: usize, rng: &mut XorShift) -> CostMatrix {
    CostMatrix::from_fn(bins, |i, j| {
        if i == j {
            0.0
        } else {
            1.0 + rng.below(2) as f64
        }
    })
}

/// A sparse mass vector: each bin is non-zero with probability `density`
/// (at least one bin always is). Integer masses lie in 1..=9, real masses
/// in (0, 1].
fn masses(bins: usize, density: f64, integer: bool, rng: &mut XorShift) -> Vec<f64> {
    let mut v: Vec<f64> = (0..bins)
        .map(|_| {
            if rng.unit() < density {
                if integer {
                    1.0 + rng.below(9) as f64
                } else {
                    1.0 - rng.unit()
                }
            } else {
                0.0
            }
        })
        .collect();
    if v.iter().all(|&m| m <= 0.0) {
        let at = rng.below(bins as u64) as usize;
        v[at] = 1.0;
    }
    v
}

/// A balanced pair of marginals. Integer masses are balanced by topping
/// up a random bin of the lighter side; real masses are both normalized
/// to one.
fn marginals(bins: usize, density: f64, integer: bool, rng: &mut XorShift) -> (Vec<f64>, Vec<f64>) {
    let mut x = masses(bins, density, integer, rng);
    let mut y = masses(bins, density, integer, rng);
    let (sx, sy): (f64, f64) = (x.iter().sum(), y.iter().sum());
    if integer {
        if sx < sy {
            let at = rng.below(bins as u64) as usize;
            x[at] += sy - sx;
        } else {
            let at = rng.below(bins as u64) as usize;
            y[at] += sx - sy;
        }
    } else {
        x.iter_mut().for_each(|m| *m /= sx);
        y.iter_mut().for_each(|m| *m /= sy);
    }
    (x, y)
}

/// Solves every instance of the family, folding each solution into the
/// hash. Returns the hash and the number of solves.
fn golden_hash() -> (u64, usize) {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut hash = Fnv::new();
    let mut solves = 0;
    for (bins, reps) in [(4, 48), (8, 40), (16, 24), (32, 10), (64, 4)] {
        let costs = [grid_cost(bins), line_cost(bins), tie_cost(bins, &mut rng)];
        for cost in &costs {
            for density in [0.2, 0.35, 0.6, 1.0] {
                for integer in [true, false] {
                    for _ in 0..reps {
                        let (x, y) = marginals(bins, density, integer, &mut rng);
                        let sol = solve_transportation(&x, &y, cost).expect("solvable");
                        hash.solution(&sol);
                        solves += 1;
                    }
                }
            }
        }
    }
    (hash.0, solves)
}

#[test]
fn solver_output_bits_match_the_golden_hash() {
    let (hash, solves) = golden_hash();
    assert_eq!(solves, 3_024);
    assert_eq!(
        hash, GOLDEN,
        "solver output moved: hash {hash:#018x} over {solves} solves"
    );
}
