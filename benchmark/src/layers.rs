//! The traced run's per-layer accounting.
//!
//! For every job the traced run calls `solve_job` once under
//! `ObsMode::Stages`, then replays the job's layer calls one by one inside
//! the benchmark's own spans: `LatencySpec::resolve` (sched),
//! `WordlengthCompatibilityGraph::rebuild` (wcg), the allocator (core),
//! `Datapath::register_binding` (core storage) and, where asked for,
//! `lower_datapath` and `check_equivalence` (rtl).  A tier's unattributed
//! time is its measured time minus the named layers inside it, so the rows
//! of each tier always add up to the tier.

use std::fmt::Write as _;
use std::time::Instant;

use mwl_core::{run_portfolio_with_scratch, AllocScratch, DpAllocator};
use mwl_driver::{solve_job, BatchJob};
use mwl_model::CostModel;
use mwl_obs::{ObsMode, Stage, StageNanos, TraceEvent};
use mwl_serve::{MetricsReply, StatsSnapshot, WireHistogram};
use mwl_wcg::WordlengthCompatibilityGraph;

use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{log_log_slope, mean, percentile};

/// Per-layer times (ns) and counts of one replayed job.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Operations in the job's graph.
    pub ops: usize,
    /// `solve_job`, the `mwl_driver` tier.
    pub solve_ns: f64,
    /// `LatencySpec::resolve`.
    pub resolve_ns: f64,
    /// `WordlengthCompatibilityGraph::rebuild`.
    pub rebuild_ns: f64,
    /// The allocator call.
    pub alloc_ns: f64,
    /// Allocator stage totals of the replayed call.
    pub stages: StageNanos,
    /// `Datapath::register_binding`.
    pub storage_ns: f64,
    /// `lower_datapath`, when the job ran the RTL tier.
    pub rtl_lower_ns: f64,
    /// `check_equivalence`, when the job ran the RTL tier.
    pub rtl_check_ns: f64,
    /// Stimulus vectors simulated.
    pub rtl_vectors: usize,
    /// Whether `solve_job` itself ran the RTL check.
    pub rtl_in_job: bool,
    /// Refinement iterations.
    pub refinements: usize,
    /// Resource-bound escalations.
    pub escalations: usize,
    /// Accepted instance merges.
    pub merges: usize,
}

/// The service tier, summarised from the server's `metrics` and `stats`
/// replies and the client's own timings.
#[derive(Debug, Clone, Default)]
pub struct ServeLayer {
    /// Requests that got a result.
    pub requests: usize,
    /// Queue wait p50 / p99 (ms), from the server histogram.
    pub queue_wait_ms: (f64, f64),
    /// Largest queue depth seen by the stats poller.
    pub queue_depth_max: u64,
    /// Rejected submissions.
    pub rejected: u64,
    /// Server solve time p99 (ms).
    pub alloc_p99_ms: f64,
    /// Dedup hits / lookups.
    pub dedup_hit_rate: f64,
    /// Mean dedup lookup (µs).
    pub dedup_lookup_us: f64,
    /// Mean client-side request encoding (µs).
    pub client_encode_us: f64,
    /// Mean result serialisation (µs).
    pub serialize_us: f64,
    /// Mean round trip (ms).
    pub round_trip_ms: f64,
    /// Mean per-request queue wait, dedup, solve and serialise (ms).
    pub parts_ms: [f64; 4],
    /// Generator lag p99 (ms).
    pub lag_p99_ms: f64,
}

fn hist<'a>(reply: &'a MetricsReply, name: &str) -> Option<&'a WireHistogram> {
    reply.histograms.iter().find(|h| h.name == name)
}

impl ServeLayer {
    /// Summarises one server run.
    #[must_use]
    pub fn new(
        reply: &MetricsReply,
        stats: &StatsSnapshot,
        round_trips_ms: &[f64],
        encode_ns: &[f64],
        lags_ms: &[f64],
        queue_depth_max: u64,
    ) -> Self {
        let n = round_trips_ms.len().max(1) as f64;
        let per_request_ms = |name: &str| hist(reply, name).map_or(0.0, |h| h.sum as f64 / 1e6 / n);
        let mean_us = |name: &str| {
            hist(reply, name).map_or(0.0, |h| h.sum as f64 / 1e3 / h.count.max(1) as f64)
        };
        let lookups = reply.dedup_hits + reply.dedup_misses;
        ServeLayer {
            requests: round_trips_ms.len(),
            queue_wait_ms: hist(reply, "serve.queue_wait_ns")
                .map_or((0.0, 0.0), |h| (h.p50 as f64 / 1e6, h.p99 as f64 / 1e6)),
            queue_depth_max,
            rejected: stats.rejected,
            alloc_p99_ms: hist(reply, "serve.alloc_ns").map_or(0.0, |h| h.p99 as f64 / 1e6),
            dedup_hit_rate: reply.dedup_hits as f64 / lookups.max(1) as f64,
            dedup_lookup_us: mean_us("serve.dedup_lookup_ns"),
            client_encode_us: mean(encode_ns) / 1e3,
            serialize_us: mean_us("serve.serialize_ns"),
            round_trip_ms: mean(round_trips_ms),
            parts_ms: [
                per_request_ms("serve.queue_wait_ns"),
                per_request_ms("serve.dedup_lookup_ns"),
                per_request_ms("serve.alloc_ns"),
                per_request_ms("serve.serialize_ns"),
            ],
            lag_p99_ms: percentile(lags_ms, 99.0),
        }
    }

    fn unattributed_ms(&self) -> f64 {
        self.round_trip_ms - self.parts_ms.iter().sum::<f64>()
    }
}

/// Accumulates the traced run of one workload.
#[derive(Debug)]
pub struct Layers {
    /// The benchmark's spans.
    pub spans: Spans,
    /// Trace events the program emitted itself (`ObsMode::Trace`).
    pub events: Vec<TraceEvent>,
    scratch: AllocScratch,
    wcg: Option<WordlengthCompatibilityGraph>,
    /// Replayed plain jobs.
    pub jobs: Vec<JobRecord>,
    /// Portfolio replays: (ms, winner differs from variant 0).
    pub portfolio: Vec<(f64, bool)>,
    /// Cost-cache builds (ns).
    pub cache_build_ns: Vec<f64>,
    /// Cost-cache misses that fell through to the cost model.
    pub cache_misses: u64,
    /// Untraced and traced time (ns) of the same work, for the overhead.
    pub overhead_ns: (f64, f64),
    /// Whole-batch calls (sweep only): (run_batch ns, cache ns, Σ solve_job ns).
    pub batches: Vec<(f64, f64, f64)>,
    /// The service tier.
    pub serve: ServeLayer,
    /// Checks that failed during the replays.
    pub errors: Vec<String>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers::new()
    }
}

impl Layers {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        let spans = Spans::new();
        let mut scratch = AllocScratch::new();
        scratch.obs.set_trace_context(0, spans.epoch());
        Layers {
            spans,
            events: Vec::new(),
            scratch,
            wcg: None,
            jobs: Vec::new(),
            portfolio: Vec::new(),
            cache_build_ns: Vec::new(),
            cache_misses: 0,
            overhead_ns: (0.0, 0.0),
            batches: Vec::new(),
            serve: ServeLayer::default(),
            errors: Vec::new(),
        }
    }

    /// Times `solve_job` with the program's own tracing off and then on
    /// (its events join the trace), for the tracing overhead.
    pub fn overhead_pair(
        &mut self,
        index: usize,
        job: &BatchJob,
        cost: &(dyn CostModel + Sync),
        rtl_vectors: usize,
    ) {
        self.scratch.obs.set_mode(ObsMode::Off);
        let start = Instant::now();
        let _ = solve_job(index, job, cost, rtl_vectors, &mut self.scratch);
        self.overhead_ns.0 += start.elapsed().as_nanos() as f64;
        self.scratch.obs.set_mode(ObsMode::Trace);
        let (_, traced) = self
            .spans
            .time("driver.solve_job.traced", None, index as u64, || {
                solve_job(index, job, cost, rtl_vectors, &mut self.scratch)
            });
        self.overhead_ns.1 += traced as f64;
        self.events.extend(self.scratch.obs.drain_events());
        self.scratch.obs.set_mode(ObsMode::Off);
    }

    /// Runs `solve_job` once under `ObsMode::Stages` and replays its layer
    /// calls; `rtl` additionally runs the RTL tier on jobs that did not ask
    /// for it.  Returns the `solve_job` time in nanoseconds.
    pub fn replay_job(
        &mut self,
        index: usize,
        job: &BatchJob,
        cost: &(dyn CostModel + Sync),
        rtl_vectors: usize,
        rtl: bool,
        parent: Option<usize>,
    ) -> f64 {
        let id = index as u64;
        let root = self.spans.open("job", parent, id);
        self.scratch.obs.set_mode(ObsMode::Stages);
        let (outcome, solve_ns) = self.spans.time("driver.solve_job", Some(root), id, || {
            solve_job(index, job, cost, rtl_vectors, &mut self.scratch)
        });
        let stats = match outcome.result {
            Ok(stats) => stats,
            Err(e) => {
                self.errors.push(format!("{}: {e}", job.label));
                self.scratch.obs.set_mode(ObsMode::Off);
                self.spans.close(root);
                return solve_ns as f64;
            }
        };

        let (lambda, resolve_ns) = self.spans.time("sched.lambda_resolve", Some(root), id, || {
            job.latency.resolve(&job.graph, cost)
        });
        let wcg = &mut self.wcg;
        let (_, rebuild_ns) = self
            .spans
            .time("wcg.rebuild", Some(root), id, || match wcg {
                Some(w) => w.rebuild(&job.graph, cost),
                None => *wcg = Some(WordlengthCompatibilityGraph::new(&job.graph, cost)),
            });
        let mut config = job.config.clone();
        config.latency_constraint = lambda;
        let scratch = &mut self.scratch;
        let (allocated, alloc_ns) =
            self.spans
                .time("core.alloc", Some(root), id, || match job.portfolio {
                    Some(spec) => run_portfolio_with_scratch(
                        cost, &job.graph, &config, spec, 1, scratch,
                    )
                    .map(|p| {
                        let improved = p.winner() != 0;
                        (p.best, improved)
                    }),
                    None => DpAllocator::new(cost, config)
                        .allocate_with_scratch(&job.graph, scratch)
                        .map(|o| (o, false)),
                });
        let stages = self.scratch.obs.take_stages();
        self.scratch.obs.set_mode(ObsMode::Off);
        let (allocated, improved) = match allocated {
            Ok(a) => a,
            Err(e) => {
                self.errors
                    .push(format!("{}: replay failed: {e}", job.label));
                self.spans.close(root);
                return solve_ns as f64;
            }
        };
        if job.portfolio.is_some() {
            self.portfolio.push((alloc_ns as f64 / 1e6, improved));
        }
        let datapath = &allocated.datapath;
        if let Err(e) = datapath.validate(&job.graph, cost) {
            self.errors
                .push(format!("{}: invalid datapath: {e}", job.label));
        }
        if (datapath.area(), datapath.latency(), allocated.refinements)
            != (stats.area, stats.latency, stats.refinements)
        {
            self.errors
                .push(format!("{}: replay differs from solve_job", job.label));
        }
        let (_, storage_ns) = self.spans.time("core.storage", Some(root), id, || {
            datapath.register_binding(&job.graph, cost)
        });

        let mut record = JobRecord {
            ops: job.graph.len(),
            solve_ns: solve_ns as f64,
            resolve_ns: resolve_ns as f64,
            rebuild_ns: rebuild_ns as f64,
            alloc_ns: alloc_ns as f64,
            stages,
            storage_ns: storage_ns as f64,
            rtl_in_job: job.verify_rtl,
            refinements: stats.refinements,
            escalations: stats.bound_escalations,
            merges: stats.merges,
            ..JobRecord::default()
        };
        if job.verify_rtl || rtl {
            let vectors = mwl_rtl::random_vectors(&job.graph, id, rtl_vectors.max(1));
            let (lowered, lower_ns) = self.spans.time("rtl.lower", Some(root), id, || {
                mwl_rtl::lower_datapath(&job.graph, datapath, cost, "dut")
            });
            let (checked, check_ns) = self.spans.time("rtl.check", Some(root), id, || {
                mwl_rtl::check_equivalence(&job.graph, datapath, cost, &vectors)
            });
            if let Err(e) = lowered.map(|_| ()).and(checked.map(|_| ())) {
                self.errors
                    .push(format!("{}: RTL check failed: {e}", job.label));
            }
            record.rtl_lower_ns = lower_ns as f64;
            record.rtl_check_ns = check_ns as f64;
            record.rtl_vectors = vectors.len();
        }
        self.spans.close(root);
        if job.portfolio.is_none() {
            self.jobs.push(record);
        }
        solve_ns as f64
    }

    /// Emits every per-layer metric.
    pub fn emit(&self, out: &mut Outcome) {
        let jobs = &self.jobs;
        let n = jobs.len().max(1) as f64;
        let sum = |f: &dyn Fn(&JobRecord) -> f64| jobs.iter().map(f).sum::<f64>();
        let stage = |s: Stage| move |r: &JobRecord| r.stages.get(s) as f64;
        let alloc_total = sum(&|r| r.alloc_ns);
        let staged: f64 = [Stage::Schedule, Stage::Bind, Stage::Refine, Stage::Merge]
            .into_iter()
            .map(|s| sum(&stage(s)))
            .sum();
        let rtl_jobs: Vec<&JobRecord> = jobs.iter().filter(|r| r.rtl_vectors > 0).collect();
        let rtl_n = rtl_jobs.len().max(1) as f64;
        let exponent = |s: Stage| {
            let points: Vec<(f64, f64)> = jobs
                .iter()
                .map(|r| (r.ops as f64, r.stages.get(s) as f64))
                .collect();
            log_log_slope(&points)
        };
        let ops_total = sum(&|r| r.ops as f64).max(1.0);
        let alloc_ms: Vec<f64> = jobs.iter().map(|r| r.alloc_ns / 1e6).collect();
        let solve_us: Vec<f64> = jobs.iter().map(|r| r.solve_ns / 1e3).collect();
        let s = &self.serve;

        out.metric(
            "sched.lambda_resolve_us",
            sum(&|r| r.resolve_ns) / n / 1e3,
            "us",
        );
        out.metric("wcg.rebuild_us", sum(&|r| r.rebuild_ns) / n / 1e3, "us");
        out.metric(
            "core.cost_cache_build_ms",
            mean(&self.cache_build_ns) / 1e6,
            "ms",
        );
        out.metric("core.cost_cache_misses", self.cache_misses as f64, "count");
        out.metric("core.alloc_ms.p50", percentile(&alloc_ms, 50.0), "ms");
        out.metric("core.alloc_ms.p99", percentile(&alloc_ms, 99.0), "ms");
        out.metric(
            "core.alloc_share",
            alloc_total / sum(&|r| r.solve_ns).max(1.0),
            "ratio",
        );
        out.metric("core.schedule_s", sum(&stage(Stage::Schedule)) / 1e9, "s");
        out.metric("core.bind_s", sum(&stage(Stage::Bind)) / 1e9, "s");
        out.metric("core.refine_s", sum(&stage(Stage::Refine)) / 1e9, "s");
        out.metric("core.merge_s", sum(&stage(Stage::Merge)) / 1e9, "s");
        out.metric(
            "core.alloc_unattributed_s",
            (alloc_total - staged) / 1e9,
            "s",
        );
        out.metric(
            "core.stage_exponent.schedule",
            exponent(Stage::Schedule),
            "1",
        );
        out.metric("core.stage_exponent.bind", exponent(Stage::Bind), "1");
        out.metric("core.stage_exponent.refine", exponent(Stage::Refine), "1");
        out.metric("core.refinements", sum(&|r| r.refinements as f64), "count");
        out.metric(
            "core.refinements_per_op",
            sum(&|r| r.refinements as f64) / ops_total,
            "1/op",
        );
        out.metric(
            "core.bound_escalations",
            sum(&|r| r.escalations as f64),
            "count",
        );
        out.metric("core.merges", sum(&|r| r.merges as f64), "count");
        out.metric("core.storage_us", sum(&|r| r.storage_ns) / n / 1e3, "us");
        let portfolio_ms: Vec<f64> = self.portfolio.iter().map(|p| p.0).collect();
        out.metric(
            "core.portfolio_ms.p50",
            percentile(&portfolio_ms, 50.0),
            "ms",
        );
        out.metric(
            "core.portfolio_improved_frac",
            self.portfolio.iter().filter(|p| p.1).count() as f64
                / self.portfolio.len().max(1) as f64,
            "ratio",
        );
        out.metric("driver.solve_job_us.p50", percentile(&solve_us, 50.0), "us");
        out.metric("driver.residual_us", sum(&residual_ns) / n / 1e3, "us");
        out.metric(
            "rtl.lower_us",
            rtl_jobs.iter().map(|r| r.rtl_lower_ns).sum::<f64>() / rtl_n / 1e3,
            "us",
        );
        out.metric(
            "rtl.check_us",
            rtl_jobs.iter().map(|r| r.rtl_check_ns).sum::<f64>() / rtl_n / 1e3,
            "us",
        );
        out.metric(
            "rtl.vectors",
            rtl_jobs.iter().map(|r| r.rtl_vectors as f64).sum(),
            "count",
        );
        out.metric("serve.queue_wait_ms.p50", s.queue_wait_ms.0, "ms");
        out.metric("serve.queue_wait_ms.p99", s.queue_wait_ms.1, "ms");
        out.metric("serve.queue_depth_max", s.queue_depth_max as f64, "count");
        out.metric("serve.rejected", s.rejected as f64, "count");
        out.metric("serve.alloc_ms.p99", s.alloc_p99_ms, "ms");
        out.metric("serve.dedup_hit_rate", s.dedup_hit_rate, "ratio");
        out.metric("serve.dedup_lookup_us", s.dedup_lookup_us, "us");
        out.metric("serve.client_encode_us", s.client_encode_us, "us");
        out.metric("serve.serialize_us", s.serialize_us, "us");
        out.metric("serve.unattributed_ms", s.unattributed_ms(), "ms");
        out.metric("loadgen.lag_ms.p99", s.lag_p99_ms, "ms");
        let (untraced, traced) = self.overhead_ns;
        out.metric(
            "obs.trace_overhead_frac",
            traced / untraced.max(1.0) - 1.0,
            "ratio",
        );
    }

    /// One table per workload: each tier with its named layers and an
    /// `unattributed` row that closes the tier's measured time.
    #[must_use]
    pub fn table(&self, workload: &str) -> String {
        let jobs = &self.jobs;
        let sum = |f: &dyn Fn(&JobRecord) -> f64| jobs.iter().map(f).sum::<f64>();
        let mut t = format!(
            "per-layer table: {workload} ({} replayed jobs)\n",
            jobs.len()
        );
        let tier = |t: &mut String, name: &str, total: f64, rows: &[(&str, f64)]| {
            let _ = writeln!(t, "  tier {name:<28} {:>12.3} ms", total / 1e6);
            let named: f64 = rows.iter().map(|r| r.1).sum();
            for (row, ns) in rows
                .iter()
                .chain(std::iter::once(&("unattributed", total - named)))
            {
                let share = if total > 0.0 { 100.0 * ns / total } else { 0.0 };
                let _ = writeln!(t, "    {row:<30} {:>12.3} ms {share:>6.1}%", ns / 1e6);
            }
        };
        if !self.batches.is_empty() {
            let total: f64 = self.batches.iter().map(|b| b.0).sum();
            let cache: f64 = self.batches.iter().map(|b| b.1).sum();
            let solves: f64 = self.batches.iter().map(|b| b.2).sum();
            tier(
                &mut t,
                "driver.run_batch",
                total,
                &[
                    ("core.cost_cache_build", cache),
                    ("driver.solve_job", solves),
                ],
            );
        }
        let rtl = sum(&|r| if r.rtl_in_job { r.rtl_check_ns } else { 0.0 });
        tier(
            &mut t,
            "driver.solve_job",
            sum(&|r| r.solve_ns),
            &[
                ("sched.lambda_resolve", sum(&|r| r.resolve_ns)),
                ("core.alloc", sum(&|r| r.alloc_ns)),
                ("core.storage", sum(&|r| r.storage_ns)),
                ("rtl.check", rtl),
            ],
        );
        let stage = |s: Stage| sum(&|r| r.stages.get(s) as f64);
        tier(
            &mut t,
            "core.alloc",
            sum(&|r| r.alloc_ns),
            &[
                ("schedule", stage(Stage::Schedule)),
                ("bind", stage(Stage::Bind)),
                ("refine", stage(Stage::Refine)),
                ("merge", stage(Stage::Merge)),
            ],
        );
        let _ = writeln!(
            t,
            "    (wcg.rebuild, inside unattributed: {:.3} ms)",
            sum(&|r| r.rebuild_ns) / 1e6
        );
        tier(
            &mut t,
            "rtl.check",
            sum(&|r| r.rtl_check_ns),
            &[("rtl.lower", sum(&|r| r.rtl_lower_ns))],
        );
        let s = &self.serve;
        if s.requests > 0 {
            let n = s.requests as f64 * 1e6;
            tier(
                &mut t,
                "serve.round_trip",
                s.round_trip_ms * n,
                &[
                    ("serve.queue_wait", s.parts_ms[0] * n),
                    ("serve.dedup_lookup", s.parts_ms[1] * n),
                    ("serve.alloc", s.parts_ms[2] * n),
                    ("serve.serialize", s.parts_ms[3] * n),
                ],
            );
        }
        t
    }

    /// Writes the merged trace through `mwl_obs::chrome_trace_json`.
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut events = self.spans.to_events();
        events.extend(self.events.iter().cloned());
        events.sort_by_key(|e| (e.ts_ns, e.tid));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, mwl_obs::chrome_trace_json(&events))
    }
}

/// `solve_job` time no named layer explains.
fn residual_ns(r: &JobRecord) -> f64 {
    let rtl = if r.rtl_in_job { r.rtl_check_ns } else { 0.0 };
    r.solve_ns - r.resolve_ns - r.alloc_ns - r.storage_ns - rtl
}
