//! The traced run: per-layer times, their call counts, and each layer's
//! share of its workload's end-to-end time.
//!
//! The workload runs twice, once untraced and once with spans recorded
//! around the calls the benchmark makes (`Query::train`, `Query::run`,
//! `parse_zql`, `ZeusServer::submit_ir`, the first streamed video).
//! Layers that run inside `Query::train` or inside the server cannot be
//! wrapped from outside; they are timed by calling the same public
//! functions on the workload's own inputs — its corpora, its trained
//! plans, the planner-shaped environment, `CandidateJob::representative`,
//! an agent with the Q-network's shape and a replay buffer filled from
//! environment transitions. Each per-call time is then multiplied by the
//! count the run recorded (`ObsSnapshot` counters, span counts, or the
//! served plans' invocation counts).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use zeus_apfg::{FeatureCache, FeatureGenerator};
use zeus_api::ZeusSession;
use zeus_core::baselines::ZeusRl;
use zeus_core::config::ConfigSpace;
use zeus_core::env::VideoTraversalEnv;
use zeus_core::planner::{PlannerOptions, QueryPlan, QueryPlanner};
use zeus_core::query::parse_zql;
use zeus_core::result::ConfigHistogram;
use zeus_core::training::{CandidateJob, TrainingEngine};
use zeus_core::{ExecutorKind, QueryEngine};
use zeus_nn::{Activation, Mlp, Tensor};
use zeus_obs::{keys, ObsSnapshot};
use zeus_rl::agent::DqnAgent;
use zeus_rl::{Environment, Experience, ReplayBuffer};
use zeus_serve::cache::{CacheKey, CachedExecution, ResultCache};
use zeus_serve::QueryRefiner;
use zeus_sim::{CostModel, SimClock};
use zeus_video::video::Split;
use zeus_video::{DataSource, DatasetKind, Video};

use crate::fixture::{self, CORPUS_SEED, PLAN_QUERIES, SCALE};
use crate::pace;
use crate::report::{metric, Ledger, Metric};
use crate::serve::{self, Mode, Template};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{plan, plan::PlanRun, serve::ServeRun};

/// Wall-time budget for timing one layer's per-call cost.
const LAYER_BUDGET: Duration = Duration::from_millis(300);

/// Minibatch of a DQN update (`PlannerOptions::default().trainer`).
const BATCH: usize = 128;

/// Hidden-by-hidden matrix products per `DqnAgent::update`: one in each
/// of its three forwards and two in the backward pass.
const MATMULS_PER_UPDATE: f64 = 5.0;

/// MLP forwards per `DqnAgent::update`.
const FORWARDS_PER_UPDATE: f64 = 3.0;

/// Which end-to-end quantity a share is taken of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    /// One set-up (`setup_s`).
    Setup,
    /// The planning the workload timed (`plan_s`).
    Plan,
    /// The measured operations: requests, or `Query::run()` calls.
    Ops,
}

impl Group {
    fn name(self) -> &'static str {
        match self {
            Group::Setup => "setup_s",
            Group::Plan => "plan_s",
            Group::Ops => "ops",
        }
    }
}

/// One row of the share table.
struct Row {
    layer: &'static str,
    group: Group,
    /// Calls in the group's end-to-end time.
    count: f64,
    /// Threads the calls are spread over (wall share = count x per call
    /// / parallel).
    parallel: f64,
    /// The enclosing layer, for rows whose time is part of another row.
    parent: Option<&'static str>,
}

/// Seconds per call of `f`, which performs `calls` calls per invocation:
/// one untimed warm-up, then repeated invocations for [`LAYER_BUDGET`].
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut done = 0usize;
    while done == 0 || started.elapsed() < LAYER_BUDGET {
        f();
        done += calls;
    }
    started.elapsed().as_secs_f64() / done.max(1) as f64
}

/// One planned query the layers are timed on.
struct Subject<'s> {
    source: &'s dyn DataSource,
    plan: Arc<QueryPlan>,
    test: Vec<&'s Video>,
}

fn subjects<'s>(session: &'s ZeusSession, zqls: &[String]) -> Result<Vec<Subject<'s>>, String> {
    zqls.iter()
        .map(|zql| {
            let query = session.query(zql).map_err(|e| e.to_string())?;
            let source = session
                .source_named(query.dataset_name())
                .map_err(|e| e.to_string())?;
            let plan = query.train().map_err(|e| e.to_string())?;
            let mut test = source.store().split(Split::Test);
            test.sort_by_key(|v| v.id);
            Ok(Subject { source, plan, test })
        })
        .collect()
}

/// The environment the planner trains on: the plan's training split,
/// query classes, APFG, Pareto-restricted space and init configuration,
/// behind a fresh shared feature cache.
fn planner_env(
    subject: &Subject,
    cost: &CostModel,
    seed: u64,
) -> Result<VideoTraversalEnv, String> {
    let plan = &subject.plan;
    let train: Vec<Video> = subject
        .source
        .store()
        .split(Split::Train)
        .into_iter()
        .cloned()
        .collect();
    VideoTraversalEnv::new(
        train,
        plan.query.classes.clone(),
        Arc::new(plan.apfg.clone()),
        plan.space.clone(),
        plan.space.alphas(cost),
        plan.init_config,
        seed,
    )
    .map(|env| env.with_cache(Arc::new(FeatureCache::new())))
    .map_err(|e| e.to_string())
}

/// Per-call seconds of every timed layer.
struct Timings {
    values: Vec<(&'static str, f64)>,
}

impl Timings {
    fn get(&self, layer: &str) -> f64 {
        self.values
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Time the training-side layers on the workload's planned queries.
fn time_training(
    subjects: &[Subject],
    kinds: &[DatasetKind],
    options: &PlannerOptions,
    seed: u64,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let cost = CostModel::new(options.device.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    out.push((
        "video.generate",
        per_call(kinds.len(), || {
            for kind in kinds {
                black_box(kind.generate(SCALE, CORPUS_SEED));
            }
        }),
    ));

    let mut profile = 0.0;
    let mut train = 0.0;
    let mut train_per_update = 0.0;
    let mut validate = 0.0;
    for s in subjects {
        let mut planner_options = options.clone();
        planner_options.seed = CORPUS_SEED;
        let planner = QueryPlanner::new(s.source, planner_options);
        let space = ConfigSpace::for_family(s.source.family()).masked(options.knob_mask);
        profile += per_call(1, || {
            black_box(planner.profile_configurations(&s.plan.query, &space, &s.plan.apfg));
        });

        let proto = planner_env(s, &cost, seed)?;
        let job = CandidateJob::representative(
            options.trainer.clone(),
            s.plan.protocol,
            s.plan.query.target_accuracy,
            seed,
        );
        let engine = TrainingEngine::new(options.training);
        let started = Instant::now();
        let outcome = engine
            .train_candidate(&proto, &job)
            .map_err(|e| format!("train_candidate: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        train += secs;
        train_per_update += secs / outcome.report.updates.max(1) as f64;

        let validation = s.source.store().split(Split::Validation);
        let engine = ZeusRl::new(
            s.plan.apfg.clone(),
            s.plan.policy.clone(),
            s.plan.space.clone(),
            s.plan.init_config,
            cost.clone(),
        );
        validate += per_call(1, || {
            black_box(engine.execute(&validation).evaluate(
                &validation,
                &s.plan.query.classes,
                s.plan.protocol,
            ));
        });
    }
    let n = subjects.len() as f64;
    out.push(("core.profile", profile / n));
    out.push(("core.train_candidate", train / n));
    // Candidates train for different numbers of steps; DQN updates are
    // nearly all of a candidate's time, so the share table scales
    // candidate time by the updates the run recorded.
    out.push(("core.train_candidate_update", train_per_update / n));
    out.push(("core.validate", validate / n));

    // Environment steps, action selection, replay sampling and DQN
    // updates on the first subject's planner-shaped environment.
    let s = &subjects[0];
    let mut env = planner_env(s, &cost, seed)?.fork(seed ^ 0xE57);
    let actions = env.num_actions();
    let mut state = env.reset();
    let mut buffer = ReplayBuffer::new(options.trainer.replay_capacity);
    for _ in 0..4 * BATCH {
        let t = env.step(rng.gen_range(0..actions));
        let reward = if t.has_action() { 1.0 } else { 0.0 };
        buffer.push(Experience {
            state: t.state,
            action: t.action,
            reward,
            next_state: t.next_state.clone(),
            done: t.done,
        });
        state = if t.done { env.reset() } else { t.next_state };
    }
    out.push((
        "core.env_step",
        per_call(256, || {
            for _ in 0..256 {
                let t = env.step(rng.gen_range(0..actions));
                state = if t.done { env.reset() } else { t.next_state };
            }
        }),
    ));
    let mut agent = DqnAgent::new(env.state_dim(), actions, options.dqn.clone(), seed);
    out.push((
        "rl.act_batch",
        per_call(256, || {
            for _ in 0..256 {
                black_box(agent.select_actions_batch(&[&state], 0.1));
            }
        }),
    ));
    let mut sample_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A);
    out.push((
        "rl.replay_sample",
        per_call(64, || {
            for _ in 0..64 {
                black_box(buffer.sample(BATCH, &mut sample_rng));
            }
        }),
    ));
    let mut failures = 0usize;
    out.push((
        "rl.dqn_update",
        per_call(8, || {
            for _ in 0..8 {
                let batch = buffer.sample(BATCH, &mut sample_rng);
                failures += agent.update(&batch).is_err() as usize;
            }
        }),
    ));
    if failures > 0 {
        return Err(format!("{failures} DQN updates failed"));
    }

    // The Q-network's shape: state -> hidden layers -> actions, batch 128.
    let mut sizes = vec![env.state_dim()];
    sizes.extend_from_slice(&options.dqn.hidden);
    sizes.push(actions);
    let mut mlp = Mlp::new(&sizes, Activation::Relu, &mut rng);
    let input = Tensor::from_vec(
        &[BATCH, sizes[0]],
        (0..BATCH * sizes[0]).map(|_| rng.gen::<f32>()).collect(),
    );
    let hidden = options.dqn.hidden.first().copied().unwrap_or(64);
    let left = Tensor::full(&[BATCH, hidden], 0.5);
    let right = Tensor::full(&[hidden, hidden], 0.25);
    out.push((
        "nn.matmul",
        per_call(64, || {
            for _ in 0..64 {
                black_box(left.matmul(&right));
            }
        }),
    ));
    out.push((
        "nn.mlp_forward",
        per_call(16, || {
            for _ in 0..16 {
                black_box(mlp.forward(&input));
            }
        }),
    ));
    let grad = Tensor::full(&[BATCH, actions], 0.01);
    let mut backward = 0.0;
    let mut calls = 0usize;
    let started = Instant::now();
    while calls == 0 || started.elapsed() < LAYER_BUDGET {
        mlp.zero_grad();
        black_box(mlp.forward(&input));
        let t = Instant::now();
        black_box(mlp.backward(&grad));
        backward += t.elapsed().as_secs_f64();
        calls += 1;
    }
    out.push(("nn.mlp_backward", backward / calls as f64));
    Ok(())
}

/// Time the execution- and serving-side layers on the served queries.
fn time_execution(
    subjects: &[Subject],
    templates: &[Template],
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let cost = CostModel::default();
    // One APFG call per segment of every test video, walking each plan's
    // configurations in turn, with the features the policy then sees.
    let mut features = Vec::new();
    let mut apfg_calls = 0usize;
    for s in subjects {
        let configs = s.plan.space.configs();
        for (i, video) in s.test.iter().enumerate() {
            let config = configs[i % configs.len()];
            let mut start = 0;
            while start < video.num_frames {
                features.push(s.plan.apfg.process(video, start, config).feature);
                start += config.frames_covered();
                apfg_calls += 1;
            }
        }
    }
    out.push((
        "apfg.process",
        per_call(apfg_calls, || {
            for s in subjects {
                let configs = s.plan.space.configs();
                for (i, video) in s.test.iter().enumerate() {
                    let config = configs[i % configs.len()];
                    let mut start = 0;
                    while start < video.num_frames {
                        black_box(s.plan.apfg.process(video, start, config));
                        start += config.frames_covered();
                    }
                }
            }
        }),
    ));
    let policy = &subjects[0].plan.policy;
    out.push((
        "rl.policy_act",
        per_call(features.len(), || {
            for f in &features {
                black_box(policy.act(f));
            }
        }),
    ));

    let engines: Vec<ZeusRl> = subjects
        .iter()
        .map(|s| {
            ZeusRl::new(
                s.plan.apfg.clone(),
                s.plan.policy.clone(),
                s.plan.space.clone(),
                s.plan.init_config,
                cost.clone(),
            )
        })
        .collect();
    let videos: usize = subjects.iter().map(|s| s.test.len()).sum();
    out.push((
        "core.execute_video",
        per_call(videos, || {
            // One clock and histogram per pass, as `QueryEngine::execute`
            // threads them through its videos.
            for (s, engine) in subjects.iter().zip(&engines) {
                let (mut clock, mut hist) = (SimClock::new(), ConfigHistogram::new());
                for video in &s.test {
                    black_box(engine.execute_video(video, &mut clock, &mut hist));
                }
            }
        }),
    ));
    let executions: Vec<_> = subjects
        .iter()
        .zip(&engines)
        .map(|(s, e)| e.execute(&s.test))
        .collect();
    out.push((
        "core.evaluate",
        per_call(subjects.len(), || {
            for (s, exec) in subjects.iter().zip(&executions) {
                black_box(exec.evaluate(&s.test, &s.plan.query.classes, s.plan.protocol));
            }
        }),
    ));

    // The result cache: gets on a resident key, inserts at capacity
    // (each evicts the least recently used entry).
    let corpus = zeus_serve::CorpusId::of(subjects[0].source);
    let key = |i: usize| {
        let mut query = templates[0].ir.base.clone();
        query.target_accuracy = 0.5 + 0.4 * (i % 64) as f64 / 64.0;
        CacheKey::new(&query, corpus, ExecutorKind::ZeusRl)
    };
    let value = CachedExecution {
        labels: templates[0].serial.clone(),
        result: templates[0].result.clone(),
    };
    let capacity = 3;
    let cache = ResultCache::new(capacity);
    for i in 0..capacity {
        cache.insert(key(i), value.clone());
    }
    let resident = key(capacity - 1);
    out.push((
        "serve.cache_get",
        per_call(1024, || {
            for _ in 0..1024 {
                black_box(cache.get(&resident));
            }
        }),
    ));
    let pending: Vec<(CacheKey, CachedExecution)> = (capacity..capacity + 512)
        .map(|i| (key(i), value.clone()))
        .collect();
    let started = Instant::now();
    let inserted = pending.len();
    for (k, v) in pending {
        cache.insert(k, v);
    }
    out.push((
        "serve.cache_insert",
        started.elapsed().as_secs_f64() / inserted as f64,
    ));

    let refiners: Vec<QueryRefiner> = templates
        .iter()
        .map(|t| QueryRefiner::new(&t.ir, subjects[0].test.iter().copied()))
        .collect();
    out.push((
        "serve.refine",
        per_call(templates.len(), || {
            for (refiner, t) in refiners.iter().zip(templates) {
                black_box(refiner.answer(&t.serial));
            }
        }),
    ));
    let mut parse_failures = 0usize;
    out.push((
        "core.parse_zql",
        per_call(templates.len(), || {
            for t in templates {
                parse_failures += parse_zql(black_box(&t.zql)).is_err() as usize;
            }
        }),
    ));
    if parse_failures > 0 {
        return Err("template ZQL failed to parse".into());
    }
    Ok(())
}

/// Spans of the client's request loop: mean seconds of `name`.
fn span_mean(rec: &Recorder, name: &str) -> (usize, f64) {
    let (count, mean) = rec.stats(name);
    (count, mean.as_secs_f64())
}

fn counter(snapshot: &ObsSnapshot, key: &str) -> f64 {
    snapshot.counter(key).unwrap_or(0) as f64
}

/// The training counts of a planning session.
struct TrainCounts {
    plans: f64,
    candidates: f64,
    steps: f64,
    updates: f64,
    feature_hit_rate: f64,
    feature_misses: f64,
    imbalance: f64,
    workers: f64,
}

fn train_counts(session: &ZeusSession, plans: usize, options: &PlannerOptions) -> TrainCounts {
    let snap = session.snapshot();
    let (hit, miss) = (
        counter(&snap, keys::CACHE_FEATURE_HIT),
        counter(&snap, keys::CACHE_FEATURE_MISS),
    );
    let busy: Vec<f64> = (0..)
        .map_while(|i| snap.gauge(&keys::train_device_busy_secs(i)))
        .collect();
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    TrainCounts {
        plans: plans as f64,
        candidates: counter(&snap, keys::TRAIN_CANDIDATES),
        steps: counter(&snap, keys::TRAIN_STEPS),
        updates: counter(&snap, keys::TRAIN_UPDATES),
        feature_hit_rate: if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        },
        feature_misses: miss,
        imbalance: if mean > 0.0 { max / mean } else { 0.0 },
        workers: TrainingEngine::new(options.training).effective_workers(options.candidates.len())
            as f64,
    }
}

fn row(
    layer: &'static str,
    group: Group,
    count: f64,
    parallel: f64,
    parent: Option<&'static str>,
) -> Row {
    Row {
        layer,
        group,
        count,
        parallel,
        parent,
    }
}

/// Rows of the set-up group: one set-up, and the corpora it generates.
fn setup_rows(corpora: usize) -> Vec<Row> {
    vec![
        row("setup", Group::Setup, 1.0, 1.0, None),
        row(
            "video.generate",
            Group::Setup,
            corpora as f64,
            1.0,
            Some("setup"),
        ),
    ]
}

/// Rows of the planning group: the timed planning calls, and inside them
/// the layers `Query::train` runs (counts from the session's snapshot).
fn plan_rows(top: &'static str, calls: f64, t: &TrainCounts) -> Vec<Row> {
    let w = t.workers;
    let plan =
        |layer, count, parallel, parent| row(layer, Group::Plan, count, parallel, Some(parent));
    vec![
        row(top, Group::Plan, calls, 1.0, None),
        plan("core.profile", t.plans, 1.0, top),
        plan("core.train_candidate_update", t.updates, w, top),
        plan("core.validate", t.candidates, 1.0, top),
        plan("core.env_step", t.steps, w, "core.train_candidate_update"),
        plan("apfg.process", t.feature_misses, w, "core.env_step"),
        plan("rl.act_batch", t.steps, w, "core.train_candidate_update"),
        plan(
            "rl.replay_sample",
            t.updates,
            w,
            "core.train_candidate_update",
        ),
        plan("rl.dqn_update", t.updates, w, "core.train_candidate_update"),
        plan(
            "nn.mlp_forward",
            t.updates * FORWARDS_PER_UPDATE,
            w,
            "rl.dqn_update",
        ),
        plan("nn.mlp_backward", t.updates, w, "rl.dqn_update"),
        plan(
            "nn.matmul",
            t.updates * MATMULS_PER_UPDATE,
            w,
            "rl.dqn_update",
        ),
    ]
}

/// Print the share table and check that the top-level rows of each
/// group, spans measured in the run that tile its end-to-end time, sum
/// to no more than it. Nested rows (isolated per-call time x in-run
/// count) are shown against the same total but not added.
fn share_table(rows: &[Row], timings: &Timings, totals: &[(Group, f64)], ledger: &mut Ledger) {
    println!(
        "{:<22} {:<8} {:>12} {:>14} {:>12} {:>8}  parent",
        "layer", "of", "count", "per call s", "total s", "share"
    );
    for &(group, total) in totals {
        let mut top = 0.0;
        for row in rows.iter().filter(|r| r.group == group) {
            let per = timings.get(row.layer);
            let spent = row.count * per / row.parallel.max(1.0);
            let share = if total > 0.0 { spent / total } else { 0.0 };
            if row.parent.is_none() {
                top += share;
            }
            println!(
                "{:<22} {:<8} {:>12.0} {:>14.3e} {:>12.4} {:>7.1}%  {}",
                row.layer,
                group.name(),
                row.count,
                per,
                spent,
                share * 100.0,
                row.parent.unwrap_or("-")
            );
        }
        println!(
            "{:<22} {:<8} top-level layers cover {:.1}% of {:.4} s",
            "",
            group.name(),
            top * 100.0,
            total
        );
        // Spans are timed inside the total; allow for float rounding.
        ledger.check(
            top <= 1.0 + 1e-9,
            format!(
                "{}: top-level layer shares sum to {:.1}%",
                group.name(),
                top * 100.0
            ),
        );
    }
}

/// Write the traced run's spans to `.perfbench/spans-<workload>.jsonl`.
fn write_spans(workload: &str, rec: &Recorder) -> Result<(), String> {
    let dir = std::path::Path::new(".perfbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}.jsonl"));
    std::fs::write(&path, rec.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn merge(into: &mut Ledger, from: Ledger) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.checks.extend(from.checks);
}

/// Serving-layer spans for the plan workload, which sends no requests:
/// a short loop of the first planned query against a server over the
/// plan session.
fn plan_serving_spans(
    session: &ZeusSession,
    rec: &Recorder,
) -> Result<(Vec<Template>, f64), String> {
    let templates = serve::templates(session, vec![PLAN_QUERIES[0].to_string()])?;
    let server = fixture::start_server(session, 1)?;
    for id in 0..200 {
        serve::request(Mode::Exec, &server, &templates[0], id, rec)?;
    }
    let (hits, misses) = server.cache_stats();
    server.shutdown();
    Ok((templates, hits as f64 / (hits + misses).max(1) as f64))
}

/// Run `workload` untraced and traced, time its layers, print the share
/// table and return the per-layer metrics.
pub fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    ledger: &mut Ledger,
) -> Result<Vec<Metric>, String> {
    let off = Recorder::new(false);
    let on = Recorder::new(true);
    let half = seconds / 2.0;
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut rows = Vec::new();
    let (totals, trace_overhead, accuracy, hit_rate, train);

    match workload {
        "plan" => {
            let base: PlanRun = plan::run(seed, half, &off)?;
            let run: PlanRun = plan::run(seed, half, &on)?;
            trace_overhead =
                median(&run.plan_s).unwrap_or(0.0) / median(&base.plan_s).unwrap_or(1.0);
            merge(ledger, base.ledger);
            let zqls: Vec<String> = PLAN_QUERIES.iter().map(|q| q.to_string()).collect();
            let subjects = subjects(&run.session, &zqls)?;
            let options = PlannerOptions::default();
            let kinds = [DatasetKind::Bdd100k, DatasetKind::Thumos14];
            time_training(&subjects, &kinds, &options, seed, &mut values)?;
            // The plan workload sends no requests; its serving layers are
            // timed on a short request loop over the first planned query.
            let probe = Recorder::new(true);
            let (templates, rate) = plan_serving_spans(&run.session, &probe)?;
            time_execution(&subjects, &templates, &mut values)?;
            hit_rate = rate;
            for name in ["serve.first_video", "serve.submit"] {
                values.push((name, span_mean(&probe, name).1));
            }

            train = train_counts(&run.session, PLAN_QUERIES.len(), &options);
            let setup = median(&pace::raw(&run.setup_s)).unwrap_or(0.0);
            let plan_each = run.plan_s.last().copied().unwrap_or(0.0);
            let (runs, run_mean) = span_mean(&on, "query.run");
            let runs = runs as f64;
            values.extend([
                ("setup", setup),
                ("query.train", plan_each),
                ("query.run", run_mean),
            ]);
            let per_run_videos =
                subjects.iter().map(|s| s.test.len()).sum::<usize>() as f64 / subjects.len() as f64;
            let invocations = subjects
                .iter()
                .map(|s| {
                    ZeusRl::new(
                        s.plan.apfg.clone(),
                        s.plan.policy.clone(),
                        s.plan.space.clone(),
                        s.plan.init_config,
                        CostModel::default(),
                    )
                    .execute(&s.test)
                    .clock
                    .events() as f64
                })
                .sum::<f64>()
                / subjects.len() as f64;
            rows.extend(setup_rows(kinds.len()));
            rows.extend(plan_rows("query.train", PLAN_QUERIES.len() as f64, &train));
            let ops = |layer, count, parent| row(layer, Group::Ops, count, 1.0, parent);
            rows.push(ops("query.run", runs, None));
            rows.push(ops(
                "core.execute_video",
                runs * per_run_videos,
                Some("query.run"),
            ));
            rows.push(ops(
                "apfg.process",
                runs * invocations,
                Some("core.execute_video"),
            ));
            rows.push(ops(
                "rl.policy_act",
                runs * invocations,
                Some("core.execute_video"),
            ));
            rows.push(ops("core.evaluate", runs, Some("query.run")));
            rows.push(ops("serve.refine", runs, Some("query.run")));
            totals = vec![
                (Group::Setup, setup),
                (Group::Plan, plan_each * PLAN_QUERIES.len() as f64),
                (Group::Ops, runs * run_mean),
            ];
            accuracy = run
                .answers
                .iter()
                .map(|a| (a.target, a.f1, a.fps))
                .collect::<Vec<_>>();
            merge(ledger, run.ledger);
        }
        "exec" | "hot" => {
            let mode = if workload == "exec" {
                Mode::Exec
            } else {
                Mode::Hot
            };
            let base: ServeRun = serve::run(mode, seed, half, &off)?;
            let run: ServeRun = serve::run(mode, seed, half, &on)?;
            // One closed-loop client: calibrated time per request is the
            // mean latency.
            let mean = |r: &ServeRun| r.calibrated_s / r.requests.max(1) as f64;
            trace_overhead = mean(&run) / mean(&base);
            base.server.shutdown();
            merge(ledger, base.ledger);
            let zqls: Vec<String> = run.templates.iter().map(|t| t.zql.clone()).collect();
            let subjects = subjects(&run.session, &zqls)?;
            let options = fixture::serving_planner();
            time_training(
                &subjects,
                &[DatasetKind::Bdd100k],
                &options,
                seed,
                &mut values,
            )?;
            time_execution(&subjects, &run.templates, &mut values)?;
            let (hits, misses) = run.measured_cache;
            hit_rate = hits as f64 / (hits + misses).max(1) as f64;

            train = train_counts(&run.session, run.templates.len(), &options);
            let setup = median(&pace::raw(&run.setup_s)).unwrap_or(0.0);
            let templates = run.templates.len() as f64;
            values.extend([("setup", setup), ("query.plan", run.plan_s[0].secs)]);
            let mut span = |name: &'static str| {
                let (count, mean) = span_mean(&on, name);
                values.retain(|(l, _)| *l != name);
                values.push((name, mean));
                (count as f64, mean)
            };
            let (requests, request_mean) = span("request");
            let first_videos = span("serve.first_video").0;
            span("serve.submit");
            span("serve.deliver");
            if mode == Mode::Hot {
                span("core.parse_zql");
            }
            let videos = subjects[0].test.len() as f64;
            let invocations = run
                .templates
                .iter()
                .map(|t| t.result.invocations as f64)
                .sum::<f64>()
                / templates;
            let workers = fixture::workers() as f64;
            rows.extend(setup_rows(1));
            rows.extend(plan_rows("query.plan", templates, &train));
            let ops =
                |layer, count, parallel, parent| row(layer, Group::Ops, count, parallel, parent);
            if mode == Mode::Hot {
                rows.push(ops("core.parse_zql", requests, 1.0, None));
            }
            rows.push(ops("serve.submit", requests, 1.0, None));
            rows.push(ops("serve.deliver", requests, 1.0, None));
            rows.push(ops("serve.first_video", first_videos, 1.0, Some("request")));
            match mode {
                Mode::Exec => {
                    rows.push(ops(
                        "serve.cache_get",
                        2.0 * requests,
                        1.0,
                        Some("serve.submit"),
                    ));
                    rows.push(ops(
                        "core.execute_video",
                        requests * videos,
                        workers,
                        Some("serve.deliver"),
                    ));
                    rows.push(ops(
                        "apfg.process",
                        requests * invocations,
                        workers,
                        Some("core.execute_video"),
                    ));
                    rows.push(ops(
                        "rl.policy_act",
                        requests * invocations,
                        workers,
                        Some("core.execute_video"),
                    ));
                    rows.push(ops("core.evaluate", requests, 1.0, Some("serve.deliver")));
                    rows.push(ops(
                        "serve.cache_insert",
                        requests,
                        1.0,
                        Some("serve.deliver"),
                    ));
                }
                Mode::Hot => {
                    rows.push(ops("serve.cache_get", requests, 1.0, Some("serve.submit")));
                }
            }
            rows.push(ops("serve.refine", requests, 1.0, Some("serve.deliver")));
            totals = vec![
                (Group::Setup, setup),
                (Group::Plan, run.plan_s[0].secs * templates),
                (Group::Ops, requests * request_mean),
            ];
            accuracy = run
                .templates
                .iter()
                .map(|t| {
                    (
                        t.ir.base.target_accuracy,
                        t.result.f1,
                        t.result.throughput_fps,
                    )
                })
                .collect::<Vec<_>>();
            run.server.shutdown();
            merge(ledger, run.ledger);
        }
        other => return Err(format!("unknown workload {other} (plan | exec | hot)")),
    }
    write_spans(workload, &on)?;
    let timings = Timings { values };
    share_table(&rows, &timings, &totals, ledger);

    let t = |layer| timings.get(layer);
    let mut metrics = vec![
        metric("video.generate_s", t("video.generate"), "s"),
        metric("core.profile_s", t("core.profile"), "s"),
        metric("core.train_candidate_s", t("core.train_candidate"), "s"),
        metric("core.train_imbalance", train.imbalance, "ratio"),
        metric("core.validate_s", t("core.validate"), "s"),
        metric("core.env_step_ns", t("core.env_step") * 1e9, "ns"),
        metric("rl.dqn_update_us", t("rl.dqn_update") * 1e6, "us"),
        metric("rl.replay_sample_ns", t("rl.replay_sample") * 1e9, "ns"),
        metric("rl.act_batch_ns", t("rl.act_batch") * 1e9, "ns"),
        metric("rl.steps", train.steps, "count"),
        metric("rl.updates", train.updates, "count"),
        metric(
            "rl.updates_per_step",
            train.updates / train.steps.max(1.0),
            "ratio",
        ),
        metric("nn.matmul_ns", t("nn.matmul") * 1e9, "ns"),
        metric("nn.mlp_forward_us", t("nn.mlp_forward") * 1e6, "us"),
        metric("nn.mlp_backward_us", t("nn.mlp_backward") * 1e6, "us"),
        metric(
            "apfg.feature_cache_hit_rate",
            train.feature_hit_rate,
            "ratio",
        ),
        metric("apfg.process_ns", t("apfg.process") * 1e9, "ns"),
        metric("rl.policy_act_ns", t("rl.policy_act") * 1e9, "ns"),
        metric("core.execute_video_us", t("core.execute_video") * 1e6, "us"),
        metric("core.evaluate_us", t("core.evaluate") * 1e6, "us"),
        metric("serve.first_video_ms", t("serve.first_video") * 1e3, "ms"),
        metric("serve.cache_insert_us", t("serve.cache_insert") * 1e6, "us"),
        metric("serve.submit_us", t("serve.submit") * 1e6, "us"),
        metric("serve.cache_get_ns", t("serve.cache_get") * 1e9, "ns"),
        metric("serve.refine_us", t("serve.refine") * 1e6, "us"),
        metric("core.parse_zql_us", t("core.parse_zql") * 1e6, "us"),
        metric("serve.hit_rate", hit_rate, "ratio"),
        metric("trace_overhead", trace_overhead, "ratio"),
    ];
    metrics.extend(crate::accuracy_metrics(&accuracy).1);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_divides_by_calls() {
        let mut n = 0u64;
        let secs = per_call(10, || {
            for _ in 0..10 {
                n = black_box(n + 1);
            }
        });
        assert!(secs > 0.0 && secs < 1e-3);
        assert!(n >= 20);
    }
}
