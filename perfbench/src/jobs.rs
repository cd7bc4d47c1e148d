//! Seeded jobs-file generator for the `serve_jobs` workload.
//!
//! The file covers every admitted scheme × routing × region × pattern cell
//! once at a seeded absolute load, then appends relabeled duplicates (the
//! service's dedup path) and one `rair_foreign_high` line, which the
//! static admission gate rejects (the gate path). The benchmark hands the
//! service only this text, exactly as `repro serve` would read it.

/// Schemes the admission gate admits.
pub const SCHEMES: [&str; 5] = ["ro_rr", "ro_age", "rair", "rair_va", "rair_native_high"];
pub const ROUTINGS: [&str; 3] = ["xy", "local", "dbar"];
pub const REGIONS: [&str; 3] = ["single", "halves", "quadrants"];
pub const PATTERNS: [&str; 3] = ["uniform", "transpose", "bitcomp"];

/// Relabeled copies of earlier lines.
pub const DUPLICATES: usize = 8;

/// Distinct simulations in every generated file.
pub const UNIQUE_JOBS: usize = SCHEMES.len() * ROUTINGS.len() * REGIONS.len() * PATTERNS.len();

/// Lines the admission gate rejects in every generated file.
pub const REJECTED_JOBS: usize = 1;

/// Job lines in every generated file.
pub const TOTAL_JOBS: usize = UNIQUE_JOBS + DUPLICATES + REJECTED_JOBS;

/// SplitMix64: a tiny, fully specified PRNG, so the generated text depends
/// on the seed and nothing else.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The jobs file for `seed`. Loads are 0.020–0.100 flits/cycle/node,
/// below saturation for every cell, so no job measures queue blow-up.
pub fn jobs_file(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut lines = vec![format!("# serve_jobs workload, seed {seed}")];
    let mut cells = Vec::with_capacity(UNIQUE_JOBS);
    for scheme in SCHEMES {
        for routing in ROUTINGS {
            for region in REGIONS {
                for pattern in PATTERNS {
                    let rate = 0.020 + 0.001 * rng.below(81) as f64;
                    let job_seed = 1 + rng.below(1_000_000);
                    let fields =
                        format!("{scheme} {routing} {region} {pattern} {rate:.3} {job_seed}");
                    lines.push(format!("j{} {fields}", cells.len()));
                    cells.push(fields);
                }
            }
        }
    }
    for k in 0..DUPLICATES {
        let of = rng.below(cells.len());
        lines.push(format!("dup{k}-of-j{of} {}", cells[of]));
    }
    let routing = ROUTINGS[rng.below(ROUTINGS.len())];
    let pattern = PATTERNS[rng.below(PATTERNS.len())];
    lines.push(format!(
        "rejected rair_foreign_high {routing} halves {pattern} 0.050 {}",
        1 + rng.below(1_000_000)
    ));
    lines.join("\n") + "\n"
}
