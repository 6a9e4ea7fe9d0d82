//! The `exec` and `hot` workloads: one closed-loop client sending the
//! served templates round-robin to a `ZeusServer` with warm plans.
//!
//! * `exec` — the result cache holds fewer entries than there are
//!   templates, so its LRU misses on every request and every request
//!   executes.
//! * `hot` — the cache holds every template; after one warm-up pass
//!   every request hits, and each request parses and refines extended
//!   ZQL.

use std::time::{Duration, Instant};

use zeus_api::ZeusSession;
use zeus_core::query::{parse_zql, QueryIr};
use zeus_core::result::QueryResult;
use zeus_core::QueryEngine;
use zeus_serve::request::ResponseEvent;
use zeus_serve::{QueryRefiner, SegmentHit, ZeusServer};
use zeus_sim::CostModel;
use zeus_video::video::Split;
use zeus_video::{DatasetKind, VideoId};

use crate::fixture::{self, SeedRng, SERVE_TEMPLATES};
use crate::pace::{Pace, Timed, CHUNK};
use crate::report::Ledger;
use crate::spans::Recorder;
use crate::stats::{Segment, TailWindows};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every request misses the result cache.
    Exec,
    /// Every request after warm-up hits the result cache.
    Hot,
}

/// Cold planning passes over the templates per run; `plan_s` is their
/// mean. The first plans the served session; the others run after the
/// measured segments, once `peak_rss_mb` has been read, because
/// training's allocations on its own threads would otherwise set the
/// serving process's peak by a different amount each run.
const PLAN_REPS: usize = 3;

/// Full passes over the templates before measuring.
const WARMUP_PASSES: usize = 2;

/// Target length of a measured segment; a run of `seconds` is cut into
/// `round(seconds / SEGMENT_SECS)` equal segments (at least one).
const SEGMENT_SECS: f64 = 1.0;

/// A served template: its ZQL text and what serial execution answers.
pub struct Template {
    /// The ZQL the client sends.
    pub zql: String,
    /// The compiled query.
    pub ir: QueryIr,
    /// Serial `QueryEngine::execute` labels of the stored plan over the
    /// test split, sorted by video id.
    pub serial: Vec<(VideoId, Vec<bool>)>,
    /// The refined answer those labels give.
    pub answer: Vec<SegmentHit>,
    /// The evaluated serial result (F1, simulated fps, invocations).
    pub result: QueryResult,
}

/// Raw measurements of a serving run.
pub struct ServeRun {
    /// Calibrated set-ups (corpus generation, session and server
    /// start), taken before every segment.
    pub setup_s: Vec<Timed>,
    /// Per planning pass: mean seconds to plan one template, with the
    /// slowdown that calibrates it. The first pass planned the served
    /// session.
    pub plan_s: Vec<Timed>,
    /// Calibrated throughput and median latency (submit to `Done`) of
    /// each measured segment.
    pub segments: Vec<Segment>,
    /// Calibrated latency tail windows, per template.
    pub tails: TailWindows,
    /// Requests completed in the measured segments.
    pub requests: u64,
    /// Raw wall seconds of the measured segments' requests.
    pub measured_s: f64,
    /// The same seconds, calibrated.
    pub calibrated_s: f64,
    /// Slowdown of every measured chunk.
    pub slowdowns: Vec<f64>,
    /// Peak resident memory when the measured segments ended, MB.
    pub peak_rss_mb: f64,
    /// Result-cache `(hits, misses)` over the measured requests.
    pub measured_cache: (u64, u64),
    /// The templates, in send order.
    pub templates: Vec<Template>,
    /// Operation counts and correctness checks.
    pub ledger: Ledger,
    /// The session that planned the templates (per-layer inputs).
    pub session: ZeusSession,
    /// The server that was measured (still running).
    pub server: ZeusServer,
}

/// ZQL for template `i`. Hot templates add extended clauses chosen from
/// the seed, so parsing and refinement run on every request.
fn template_zql(mode: Mode, i: usize, rng: &mut SeedRng) -> String {
    let (class, target) = SERVE_TEMPLATES[i];
    let mut zql = format!("SELECT segment_ids FROM bdd100k WHERE action_class = '{class}'");
    if mode == Mode::Hot {
        let other = if class == "left-turn" {
            "cross-left"
        } else {
            "left-turn"
        };
        zql.push_str(&format!(" AND NOT action_class = '{other}'"));
    }
    zql.push_str(&format!(" AND accuracy >= {target}%"));
    if mode == Mode::Hot {
        let t0 = rng.below(200);
        let t1 = 2_000 + rng.below(2_000);
        let order = if rng.below(2) == 0 { "DESC" } else { "ASC" };
        let limit = 10 + rng.below(40);
        zql.push_str(&format!(
            " WINDOW [{t0}, {t1}] ORDER BY confidence {order} LIMIT {limit}"
        ));
    }
    zql
}

/// Plan every template in a fresh session; returns the session and the
/// mean seconds per template. Each template's planning (one candidate,
/// trained on a thread of the engine's) is a chunk calibrated on every
/// CPU by `pace`.
fn plan_templates(zqls: &[String], pace: &mut Pace) -> Result<(ZeusSession, Timed), String> {
    let (session, _) = fixture::session(&[DatasetKind::Bdd100k], fixture::serving_planner())?;
    let (mut secs, mut calibrated) = (0.0, 0.0);
    for zql in zqls {
        let query = session.query(zql).map_err(|e| e.to_string())?;
        let (planned, timed) = pace.time(|| query.plan());
        planned.map_err(|e| format!("planning {zql}: {e}"))?;
        secs += timed.secs;
        calibrated += timed.calibrated();
    }
    let per_template = Timed {
        secs: secs / zqls.len() as f64,
        slowdown: secs / calibrated,
    };
    Ok((session, per_template))
}

/// Compile `zqls` against the session's default corpus and record what
/// serial execution of each stored plan answers.
pub fn templates(session: &ZeusSession, zqls: Vec<String>) -> Result<Vec<Template>, String> {
    let mut test = session.source().store().split(Split::Test);
    test.sort_by_key(|v| v.id);
    let cost = CostModel::default();
    zqls.into_iter()
        .map(|zql| {
            let ir = parse_zql(&zql).map_err(|e| e.to_string())?;
            let stored = session
                .plans()
                .get(session.corpus_id(), &ir.base)
                .ok_or_else(|| format!("no stored plan for {zql}"))?;
            let exec = stored.zeus_rl_engine(cost.clone()).execute(&test);
            let report = exec.evaluate(&test, &ir.base.classes, stored.protocol);
            let mut serial = exec.labels.clone();
            serial.sort_by_key(|(id, _)| *id);
            let answer = QueryRefiner::new(&ir, test.iter().copied()).answer(&serial);
            Ok(Template {
                zql,
                ir,
                serial,
                answer,
                result: QueryResult::from_parts("Zeus-RL", &exec, &report),
            })
        })
        .collect()
}

/// One client request: parse (hot only), submit, drain to `Done`, each
/// a span of the request. Returns the latency and whether the outcome
/// matched serial execution; the time to the first `Video` event is
/// recorded as a span too.
pub fn request(
    mode: Mode,
    server: &ZeusServer,
    template: &Template,
    id: u64,
    rec: &Recorder,
) -> Result<(Duration, bool), String> {
    let started = Instant::now();
    rec.span("request", id, || {
        let parsed;
        let ir = match mode {
            Mode::Hot => {
                parsed = rec
                    .span("core.parse_zql", id, || parse_zql(&template.zql))
                    .map_err(|e| format!("parse: {e}"))?;
                &parsed
            }
            Mode::Exec => &template.ir,
        };
        let stream = rec
            .span("serve.submit", id, || server.submit_ir(ir, None))
            .map_err(|e| format!("admission: {e}"))?;
        rec.span("serve.deliver", id, || {
            let mut first_video = true;
            loop {
                match stream.recv() {
                    Some(ResponseEvent::Video { .. }) => {
                        if first_video {
                            rec.record("serve.first_video", id, started, Instant::now());
                            first_video = false;
                        }
                    }
                    Some(ResponseEvent::Done(outcome)) => {
                        let latency = started.elapsed();
                        let same =
                            outcome.labels == template.serial && outcome.answer == template.answer;
                        return Ok((latency, same));
                    }
                    None => return Err("response stream closed before Done".into()),
                }
            }
        })
    })
}

/// Set up, warm up, then measure for `seconds`.
pub fn run(mode: Mode, seed: u64, seconds: f64, rec: &Recorder) -> Result<ServeRun, String> {
    let mut rng = SeedRng::new(seed);
    let order = rng.permutation(SERVE_TEMPLATES.len());
    let zqls: Vec<String> = order
        .iter()
        .map(|&i| template_zql(mode, i, &mut rng))
        .collect();

    // The first planning pass's session is served; the others follow the
    // measured segments (see `PLAN_REPS`).
    let mut plan_pace = Pace::every_cpu();
    let (session, first_pass) = plan_templates(&zqls, &mut plan_pace)?;
    let mut plan_s = vec![first_pass];
    let cache_capacity = match mode {
        Mode::Exec => SERVE_TEMPLATES.len() - 1,
        Mode::Hot => SERVE_TEMPLATES.len(),
    };
    let server = fixture::start_server(&session, cache_capacity)?;
    let templates = templates(&session, zqls.clone())?;

    let mut ledger = Ledger::default();
    let mut mismatches = 0u64;
    let mut id = 0u64;
    // Sends the next template round-robin; returns its slot and, when
    // the request succeeded, its latency.
    let mut send = |ledger: &mut Ledger, rec: &Recorder| {
        let slot = (id % templates.len() as u64) as usize;
        let result = request(mode, &server, &templates[slot], id, rec);
        id += 1;
        let (latency, same) = ledger.op(result)?;
        if !same {
            mismatches += 1;
        }
        Some((slot, latency))
    };
    for _ in 0..WARMUP_PASSES * SERVE_TEMPLATES.len() {
        send(&mut ledger, &Recorder::new(false));
    }
    let before = server.cache_stats();

    let count = ((seconds / SEGMENT_SECS).round() as usize).max(1);
    let length = Duration::from_secs_f64(seconds / count as f64);
    let mut segments = Vec::with_capacity(count);
    let mut requests = 0u64;
    let (mut measured_s, mut calibrated_s) = (0.0, 0.0);
    let mut tails = TailWindows::new(templates.len());
    // Exec requests run on the workers, spread over every CPU; hot
    // requests are answered from the cache on the client's thread.
    let mut pace = match mode {
        Mode::Exec => Pace::every_cpu(),
        Mode::Hot => Pace::here(),
    };
    let mut setup_pace = Pace::here();
    let mut setup_s = Vec::new();
    // Buffers reused by every segment and chunk, so the benchmark's own
    // allocations do not vary with the request rate.
    let mut segment_ms: Vec<Vec<f64>> = vec![Vec::new(); templates.len()];
    let mut chunk = Vec::new();
    for _ in 0..count {
        for _ in 0..fixture::SETUPS_PER_SEGMENT {
            setup_s.push(fixture::setup_sample(
                &[DatasetKind::Bdd100k],
                true,
                &mut setup_pace,
            )?);
        }
        pace.restart();
        segment_ms.iter_mut().for_each(Vec::clear);
        let (mut done, mut segment_secs) = (0u64, 0.0);
        let segment_started = Instant::now();
        while segment_started.elapsed() < length {
            let chunk_started = Instant::now();
            while chunk_started.elapsed() < CHUNK {
                if let Some((slot, latency)) = send(&mut ledger, rec) {
                    chunk.push((slot, latency.as_secs_f64() * 1e3));
                }
            }
            let chunk_secs = chunk_started.elapsed().as_secs_f64();
            let slowdown = pace.slowdown();
            measured_s += chunk_secs;
            segment_secs += chunk_secs / slowdown;
            done += chunk.len() as u64;
            for (slot, ms) in chunk.drain(..) {
                segment_ms[slot].push(ms / slowdown);
                tails.push(slot, ms / slowdown);
            }
        }
        requests += done;
        calibrated_s += segment_secs;
        segments.push(
            Segment::of(&segment_ms, done, segment_secs)
                .ok_or("a segment completed too few requests to support its median")?,
        );
    }
    let peak_rss_mb = fixture::peak_rss_mb()?;
    while plan_s.len() < PLAN_REPS {
        plan_s.push(plan_templates(&zqls, &mut plan_pace)?.1);
    }
    let after = server.cache_stats();
    let measured_cache = (after.0 - before.0, after.1 - before.1);

    ledger.check(
        mismatches == 0,
        format!("served labels and answers byte-identical to serial execution ({mismatches} mismatches)"),
    );
    match mode {
        Mode::Exec => ledger.check(
            after.0 == 0,
            format!("exec reads exactly 0 result-cache hits (read {})", after.0),
        ),
        Mode::Hot => ledger.check(
            measured_cache == (requests, 0),
            format!(
                "hot hits on every request after warm-up ({} hits, {} misses, {requests} requests)",
                measured_cache.0, measured_cache.1
            ),
        ),
    }
    Ok(ServeRun {
        setup_s,
        plan_s,
        segments,
        tails,
        requests,
        measured_s,
        calibrated_s,
        slowdowns: pace.slowdowns().to_vec(),
        peak_rss_mb,
        measured_cache,
        templates,
        ledger,
        session,
        server,
    })
}
