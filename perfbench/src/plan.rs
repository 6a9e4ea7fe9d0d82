//! The `plan` workload: cold planning with a fresh session and an
//! in-memory plan store every round, then `Query::run()` on each
//! planned query.

use std::time::Instant;

use zeus_api::{QueryResponse, ZeusSession};
use zeus_core::planner::PlannerOptions;
use zeus_video::DatasetKind;

use crate::fixture::{self, SeedRng, PLAN_QUERIES};
use crate::pace::{Pace, Timed};
use crate::report::Ledger;
use crate::spans::Recorder;
use crate::stats::{Segment, TailWindows};

/// The corpora the plan workload's queries run on.
const KINDS: [DatasetKind; 2] = [DatasetKind::Bdd100k, DatasetKind::Thumos14];

/// `Query::run()` calls per planned query and round: three tail windows.
const RUNS_PER_ROUND: usize = 3000;

/// Typical wall seconds of one round on a 2-vCPU cloud VM; a run of
/// `seconds` makes `round(seconds / ROUND_SECS)` rounds (at least one),
/// a number fixed by `seconds` alone, so every run does the same work.
const ROUND_SECS: f64 = 18.0;

/// `Query::run()` calls per planned query in one measured segment.
const RUNS_PER_SEGMENT: usize = 125;

/// `Query::run()` calls per planned query between two reference runs
/// of the calibration (about 40 ms).
const RUNS_PER_CHUNK: usize = 25;

/// What one served answer reached on the test split.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Accuracy target of the query.
    pub target: f64,
    /// Test-split F1 of the answer `Query::run()` serves.
    pub f1: f64,
    /// Simulated test-split throughput of that answer.
    pub fps: f64,
}

/// Raw measurements of a plan run.
pub struct PlanRun {
    /// Calibrated session builds (corpus generation), taken before every
    /// segment.
    pub setup_s: Vec<Timed>,
    /// Per round: mean wall seconds per cold `Query::train()`.
    pub plan_s: Vec<f64>,
    /// Calibrated `Query::run()` throughput and median latency per
    /// segment of [`RUNS_PER_SEGMENT`] runs of each query.
    pub segments: Vec<Segment>,
    /// Calibrated `Query::run()` latency tail windows, per query in
    /// [`PLAN_QUERIES`] order.
    pub tails: TailWindows,
    /// `Query::run()` calls measured and their raw wall seconds.
    pub measured: (u64, f64),
    /// Slowdown of every `Query::run()` chunk.
    pub slowdowns: Vec<f64>,
    /// Served answers, in [`PLAN_QUERIES`] order.
    pub answers: Vec<Answer>,
    /// Operation counts and correctness checks.
    pub ledger: Ledger,
    /// The last round's session, with its plans (per-layer inputs).
    pub session: ZeusSession,
}

fn answer(response: &QueryResponse) -> Answer {
    Answer {
        target: response.ir.base.target_accuracy,
        f1: response.result.f1,
        fps: response.result.throughput_fps,
    }
}

/// Run `round(seconds / ROUND_SECS)` planning rounds (at least one).
pub fn run(seed: u64, seconds: f64, rec: &Recorder) -> Result<PlanRun, String> {
    let mut ledger = Ledger::default();
    let order = SeedRng::new(seed).permutation(PLAN_QUERIES.len());
    let mut setup_s = Vec::new();
    let mut plan_s = Vec::new();
    let mut segments = Vec::new();
    let mut tails = TailWindows::new(PLAN_QUERIES.len());
    let mut measured = (0u64, 0.0);
    let mut pace = Pace::here();
    // Buffers reused by every segment and chunk, so the benchmark's own
    // allocations do not vary with the call rate.
    let mut segment_ms: Vec<Vec<f64>> = vec![Vec::new(); PLAN_QUERIES.len()];
    let mut chunk = Vec::new();
    let mut answers: Option<Vec<Answer>> = None;
    let mut last_session = None;
    let rounds = ((seconds / ROUND_SECS).round() as u64).max(1);
    for round in 0..rounds {
        let (session, _) = rec.span("session.build", round, || {
            fixture::session(&KINDS, PlannerOptions::default())
        })?;

        let mut queries = Vec::new();
        for &i in &order {
            queries.push((
                i,
                session.query(PLAN_QUERIES[i]).map_err(|e| e.to_string())?,
            ));
        }
        let mut train_secs = 0.0;
        for (_, query) in &queries {
            let t = Instant::now();
            let trained = rec.span("query.train", round, || query.train());
            train_secs += t.elapsed().as_secs_f64();
            ledger.op(trained);
        }
        plan_s.push(train_secs / queries.len() as f64);

        let mut firsts: Vec<Option<QueryResponse>> = vec![None; PLAN_QUERIES.len()];
        for _ in 0..RUNS_PER_ROUND / RUNS_PER_SEGMENT {
            for _ in 0..fixture::SETUPS_PER_SEGMENT {
                setup_s.push(fixture::setup_sample(&KINDS, false, &mut pace)?);
            }
            pace.restart();
            segment_ms.iter_mut().for_each(Vec::clear);
            let (mut done, mut segment_secs) = (0u64, 0.0);
            for _ in 0..RUNS_PER_SEGMENT / RUNS_PER_CHUNK {
                let chunk_started = Instant::now();
                for _ in 0..RUNS_PER_CHUNK {
                    for (i, query) in &queries {
                        let t = Instant::now();
                        let response = rec.span("query.run", round, || query.run());
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let Some(response) = ledger.op(response) else {
                            continue;
                        };
                        chunk.push((*i, ms));
                        match &firsts[*i] {
                            None => firsts[*i] = Some(response),
                            Some(first) => {
                                if first.answer != response.answer
                                    || first.result.f1 != response.result.f1
                                {
                                    ledger.check(
                                        false,
                                        format!("query {i}: Query::run() answers differ"),
                                    );
                                }
                            }
                        }
                    }
                }
                let chunk_secs = chunk_started.elapsed().as_secs_f64();
                let slowdown = pace.slowdown();
                measured.0 += chunk.len() as u64;
                measured.1 += chunk_secs;
                done += chunk.len() as u64;
                segment_secs += chunk_secs / slowdown;
                for (i, ms) in chunk.drain(..) {
                    segment_ms[i].push(ms / slowdown);
                    tails.push(i, ms / slowdown);
                }
            }
            segments.push(
                Segment::of(&segment_ms, done, segment_secs)
                    .ok_or("a segment completed too few Query::run() calls")?,
            );
        }

        let round_answers: Vec<Answer> = firsts
            .iter()
            .map(|r| r.as_ref().map(answer))
            .collect::<Option<_>>()
            .ok_or("a planned query never ran")?;
        match &answers {
            None => answers = Some(round_answers),
            Some(first) => ledger.check(
                *first == round_answers,
                format!("round {round}: served F1 and fps identical to round 0"),
            ),
        }
        drop(queries);
        last_session = Some(session);
    }
    Ok(PlanRun {
        setup_s,
        plan_s,
        segments,
        tails,
        measured,
        slowdowns: pace.slowdowns().to_vec(),
        answers: answers.expect("at least one round ran"),
        ledger,
        session: last_session.expect("at least one round ran"),
    })
}
