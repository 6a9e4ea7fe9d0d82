//! The benchmark's fixed inputs and the pieces every workload shares.
//!
//! The corpora are fixed: planning cost and plan accuracy depend on the
//! corpus, and the gate compares medians of runs made with different
//! seeds, so a per-seed corpus would turn corpus-to-corpus variation
//! into noise. The workload seed varies what should not move the
//! figures: the order queries are planned in, the order templates are
//! sent in, and the refinement clauses of the hot workload.

use std::time::Instant;

use zeus_api::{ExecutorKind, ServeConfig, ZeusSession};
use zeus_core::planner::{CandidateSpec, PlannerOptions};
use zeus_serve::ZeusServer;
use zeus_video::DatasetKind;

use crate::pace::{Pace, Timed};

/// Corpus scale: the smallest at which the test splits can meet the
/// paper's targets (Zeus-Sliding does at this scale; at 0.1 nothing
/// does on BDD100K).
pub const SCALE: f64 = 0.2;

/// Seed of the fixed corpora and of the planner.
pub const CORPUS_SEED: u64 = 2022;

/// The plan workload's queries: one per configuration family.
pub const PLAN_QUERIES: [&str; 2] = [
    "SELECT segment_ids FROM bdd100k WHERE action_class = 'cross-right' AND accuracy >= 85%",
    "SELECT segment_ids FROM thumos14 WHERE action_class = 'pole-vault' AND accuracy >= 75%",
];

/// The served templates: 2 classes x 2 targets on BDD100K.
pub const SERVE_TEMPLATES: [(&str, u32); 4] = [
    ("cross-right", 80),
    ("cross-right", 85),
    ("left-turn", 80),
    ("left-turn", 85),
];

/// Server worker threads: one per CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed, reduced trainer budget for the served templates: plan
/// quality is not what the serving workloads measure, only that the
/// plans are fixed.
pub fn serving_planner() -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 6;
    options.candidates = CandidateSpec::default_portfolio()[..1].to_vec();
    options
}

/// A session over the given built-in corpora (the first is the
/// default), generated at [`SCALE`] from [`CORPUS_SEED`], with its own
/// in-memory plan store. Returns the session and the seconds it took.
pub fn session(
    kinds: &[DatasetKind],
    planner: PlannerOptions,
) -> Result<(ZeusSession, f64), String> {
    let started = Instant::now();
    let mut builder = ZeusSession::builder()
        .scale(SCALE)
        .seed(CORPUS_SEED)
        .planner(planner)
        .executor(ExecutorKind::ZeusRl);
    for (i, &kind) in kinds.iter().enumerate() {
        builder = if i == 0 {
            builder.dataset(kind)
        } else {
            builder.register_kind(kind)
        };
    }
    let session = builder.build().map_err(|e| format!("session: {e}"))?;
    Ok((session, started.elapsed().as_secs_f64()))
}

/// Set-ups timed before every measured segment, so that `setup_s`, the
/// median of a run's calibrated set-ups, samples the machine through the
/// whole run and one slow start-up does not move it.
pub const SETUPS_PER_SEGMENT: usize = 3;

/// Time one set-up on the calling thread, calibrated by `pace`: a fresh
/// session over `kinds` and, for the serving workloads, a server started
/// over it. Shut-down and drop are not timed.
pub fn setup_sample(
    kinds: &[DatasetKind],
    with_server: bool,
    pace: &mut Pace,
) -> Result<Timed, String> {
    let (built, timed) = pace.time(|| {
        let (session, _) = session(kinds, PlannerOptions::default())?;
        let server = with_server.then(|| start_server(&session, 1)).transpose()?;
        Ok::<_, String>((session, server))
    });
    if let (_, Some(server)) = built? {
        server.shutdown();
    }
    Ok(timed)
}

/// Start a Zeus-RL server over the session's default corpus with one
/// worker per CPU and a result cache of `cache_capacity` entries.
pub fn start_server(session: &ZeusSession, cache_capacity: usize) -> Result<ZeusServer, String> {
    session
        .serve(ServeConfig {
            workers: workers(),
            cache_capacity,
            executor: ExecutorKind::ZeusRl,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))
}

/// A small deterministic generator for seed-derived choices (SplitMix64).
pub struct SeedRng(u64);

impl SeedRng {
    /// Generator for workload seed `seed`.
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed ^ 0x5A17_B3C4_D5E6_F708)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_rng_is_deterministic_and_permutes() {
        let a = SeedRng::new(3).permutation(8);
        let b = SeedRng::new(3).permutation(8);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_ne!(SeedRng::new(3).next_u64(), SeedRng::new(4).next_u64());
    }
}
