//! `release_query`: the analyst's batch job on Adult6 — dependence
//! estimation on randomized attributes, Algorithm 1 clustering, an
//! RR-Clusters run, RR-Adjustment (Algorithm 2) — then a batch of
//! coverage-σ count queries against the adjusted release.

use crate::checks::Checks;
use crate::machine::CpuTime;
use crate::report::Section;
use crate::stats::Samples;
use crate::trace::{traced, Tracer};
use crate::KEEP;
use mdrr_data::Dataset;
use mdrr_eval::queries::CountQuery;
use mdrr_protocols::{
    cluster_attributes, dependence_via_randomized_attributes, rr_adjustment, AdjustedRelease,
    AdjustmentConfig, Clustering, ClusteringConfig, MdrrError, ProtocolSpec, RandomizationLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Algorithm 1 thresholds: at most `TV` combinations per cluster,
/// dependence at least `TD` to merge.
pub const TV: usize = 300;
pub const TD: f64 = 0.1;
/// Coverage of the count queries (σ of Section 6.5).
pub const SIGMA: f64 = 0.1;
/// Count queries generated at set-up: two over every pair of attributes,
/// so the batch costs the same whatever the seed (a query's cost grows
/// with its pair's number of value combinations).  Each release answers
/// `PER_RELEASE` of them in turn.
pub const QUERIES_PER_PAIR: usize = 2;
pub const PER_RELEASE: usize = 8;
/// Every reported percentile needs ten samples beyond it: at least 100
/// releases for p90 and 1,000 queries for p99.  A run measures for its
/// given time and then until it has these many.
const MIN_RELEASES: usize = 110;
const MIN_QUERIES: usize = 1_100;

/// The data set, its query batch and the batch's true counts.
#[derive(Debug, Clone)]
pub struct ReleaseInput {
    pub dataset: Dataset,
    pub queries: Vec<CountQuery>,
    pub truth: Vec<f64>,
}

impl ReleaseInput {
    pub fn new(dataset: Dataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = dataset.schema().clone();
        let m = schema.len();
        let mut queries = Vec::new();
        for _ in 0..QUERIES_PER_PAIR {
            for a in 0..m {
                for b in a + 1..m {
                    queries.push(
                        CountQuery::random_over(&schema, a, b, SIGMA, &mut rng)
                            .expect("a valid query"),
                    );
                }
            }
        }
        let truth = queries
            .iter()
            .map(|q| q.true_count(&dataset).expect("query inside the schema"))
            .collect();
        ReleaseInput {
            dataset,
            queries,
            truth,
        }
    }
}

/// One release and the time of each of its steps.
pub struct Release {
    pub adjusted: AdjustedRelease,
    pub clustering: Clustering,
    pub steps_ns: [u64; 4],
}

/// Builds one adjusted release from the microdata.
pub fn release(
    dataset: &Dataset,
    rng: &mut StdRng,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    request: u64,
) -> Result<Release, MdrrError> {
    let t0 = Instant::now();
    let estimate = traced(tracer, "protocols.dependence", parent, request, |_| {
        dependence_via_randomized_attributes(dataset, KEEP, rng)
    })?;
    let t1 = Instant::now();
    let clustering = traced(tracer, "protocols.clustering", parent, request, |_| {
        cluster_attributes(
            &estimate.matrix,
            &dataset.schema().cardinalities(),
            ClusteringConfig::new(TV, TD)?,
        )
    })?;
    let t2 = Instant::now();
    let base = traced(tracer, "protocols.clusters_run", parent, request, |_| {
        ProtocolSpec::clusters(
            RandomizationLevel::KeepProbability(KEEP),
            clustering.clone(),
        )
        .build(dataset.schema())?
        .run(dataset, rng)
    })?;
    let t3 = Instant::now();
    let adjusted = traced(tracer, "protocols.adjustment", parent, request, |_| {
        let randomized = base
            .randomized()
            .ok_or_else(|| MdrrError::config("a batch release carries its microdata"))?;
        rr_adjustment(
            randomized,
            &base.adjustment_targets()?,
            AdjustmentConfig::default(),
        )
    })?;
    let t4 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Ok(Release {
        adjusted,
        clustering,
        steps_ns: [ns(t0, t1), ns(t1, t2), ns(t2, t3), ns(t3, t4)],
    })
}

/// Step names, in pipeline order.
pub const STEPS: [&str; 4] = ["dependence", "clustering", "clusters_run", "adjustment"];

pub struct ReleaseSection {
    pub section: Section,
    pub steps_ns: [Samples; 4],
    pub iterations: Samples,
    pub frequency_calls_per_query: f64,
    pub clustering: Option<Clustering>,
}

/// Query-error limits, well above what a correct release shows on this
/// data (median relative error about 0.005; no query off by more than
/// about 0.2% of the records) and well below what a broken one would.
/// Relative errors of queries with tiny true counts are large even for a
/// correct release, so single queries are held to a share of all records.
const MAX_MEDIAN_RELATIVE_ERROR: f64 = 0.05;
const MAX_ERROR_SHARE: f64 = 0.02;

/// Builds releases and answers their queries, one after another on one
/// thread (two in parallel slow each other down by amounts that vary
/// from run to run), for `seconds` and until enough releases and queries
/// were measured.
pub fn run(
    input: &ReleaseInput,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> ReleaseSection {
    let n = input.dataset.n_records();
    let mut out = ReleaseSection {
        section: Section::default(),
        steps_ns: Default::default(),
        iterations: Samples::new(),
        frequency_calls_per_query: 0.0,
        clustering: None,
    };
    let section = &mut out.section;
    let mut relative_errors = Samples::new();
    let mut error_shares = Samples::new();
    let mut calls = 0u64;
    let cpu_before = CpuTime::now();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut k = 0u64;
    while Instant::now() < deadline
        || section.read_ns.len() < MIN_RELEASES
        || section.op_ns.len() < MIN_QUERIES
    {
        let mut rng = StdRng::seed_from_u64(crate::stats::mix64(seed, k));
        section.attempted += 1;
        let t0 = Instant::now();
        let built = match traced(tracer, "release", None, k, |id| {
            release(&input.dataset, &mut rng, tracer, id, k)
        }) {
            Ok(built) => built,
            Err(e) => {
                checks.fail(format!("release {k}: {e}"));
                section.failed += 1;
                break;
            }
        };
        section.read_ns.push(t0.elapsed().as_nanos() as f64);
        section.reports += n as u64;
        for (samples, &ns) in out.steps_ns.iter_mut().zip(&built.steps_ns) {
            samples.push(ns as f64);
        }
        out.iterations.push(built.adjusted.iterations() as f64);
        let weight_sum: f64 = built.adjusted.weights().iter().sum();
        checks.expect(
            (weight_sum - 1.0).abs() <= 1e-6 && built.adjusted.randomized().n_records() == n,
            || format!("release {k}: weights sum to {weight_sum}"),
        );
        for q in 0..PER_RELEASE {
            let index = (k as usize * PER_RELEASE + q) % input.queries.len();
            let query = &input.queries[index];
            section.attempted += 1;
            let t = Instant::now();
            let answer = traced(tracer, "query", None, k, |_| {
                query.estimated_count(&built.adjusted)
            });
            let elapsed = t.elapsed().as_nanos() as f64;
            match answer {
                Ok(estimate) => {
                    section.op_ns.push(elapsed);
                    calls += query.len() as u64;
                    let error = (estimate - input.truth[index]).abs();
                    relative_errors.push(error / input.truth[index].max(1.0));
                    error_shares.push(error / n as f64);
                }
                Err(e) => {
                    checks.fail(format!("query {index}: {e}"));
                    section.failed += 1;
                }
            }
        }
        out.clustering = Some(built.clustering);
        k += 1;
    }
    section.elapsed_ns = start.elapsed().as_nanos() as u64;
    section.cpu = CpuTime::now().since(cpu_before);
    out.frequency_calls_per_query = calls as f64 / section.op_ns.len().max(1) as f64;
    // The adjusted release must track the original Adult6: the median
    // relative query error stays small, and no query misses its true
    // count by more than a small share of all records.
    let median_error = relative_errors.median().unwrap_or(f64::INFINITY);
    checks.expect(median_error <= MAX_MEDIAN_RELATIVE_ERROR, || {
        format!("median relative query error {median_error:.4} exceeds {MAX_MEDIAN_RELATIVE_ERROR}")
    });
    let worst = error_shares.max().unwrap_or(f64::INFINITY);
    checks.expect(worst <= MAX_ERROR_SHARE, || {
        format!(
            "a query missed its true count by {worst:.4} of all records (limit {MAX_ERROR_SHARE})"
        )
    });
    out
}
