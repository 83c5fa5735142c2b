//! `perfbench`: the end-to-end and per-layer benchmark of the served stack.
//!
//! The system under test runs as real `cluster_node` processes, one shard
//! and one event-loop worker each; the load comes from this process, one
//! thread and at most two connections. Each invocation runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated and encoded from `--seed` before any clock starts.
//! A run is a series of segments, repeated until `--seconds` have passed
//! (at least `MIN_SEGMENTS` of them). Each segment starts fresh node
//! processes and acks a fixed warm-up prefix (its set-up time), runs the
//! same fixed amount of work, and checks the served state against an
//! offline reference computed from exactly what the nodes acked. Every
//! end-to-end metric is the median over the segments: fixed work keeps
//! counts, memory and final state the same in every segment, and the
//! median keeps one slow stretch of a shared host from moving the result.
//!
//! With `--trace 0` the result carries the end-to-end metrics. With
//! `--trace 1` every second segment records a span around each call into
//! the program, the gap to the untraced segments is the tracing overhead,
//! and afterwards each layer's public functions are timed on the
//! workload's data; the result carries the per-layer metrics, and the
//! spans are written to `perfbench/traces/`.
//!
//! The last line of standard output is the result as one JSON object. A
//! failed correctness check still prints it, then exits with code 1.

mod cluster;
mod harness;
mod ingest;
mod layers;
mod trace;

use harness::{
    check_generator_threads, cpu_seconds, median, node_pids, peak_rss_mb, resolve_node_bin,
    timed_pass, Args, Check, Host, Phase, MIN_SEGMENTS, UNIVERSE,
};
use robust_sampling_core::bounds;
use std::time::Instant;
use trace::Tracer;

/// One workload: a node topology, its input, and its reference check.
pub trait Workload {
    /// Start the node processes from nothing and ack the warm-up prefix.
    fn setup(&mut self) -> std::io::Result<()>;
    /// One whole unit of timed work (batches and their query, frames and
    /// their view).
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase) -> std::io::Result<()>;
    /// Steps in one cycle: every kind of periodic work runs once in it.
    fn cycle_steps(&self) -> usize;
    /// Cycles in one segment: the same work in every segment, so each
    /// segment ends in the same served state.
    fn segment_cycles(&self) -> usize;
    /// Compare the served state with the offline reference.
    fn check(&mut self) -> std::io::Result<Vec<Check>>;
    /// Stop the node processes.
    fn stop(&mut self);
    /// The workload's data, for the per-layer probes.
    fn probe_input(&self) -> layers::ProbeInput;
}

/// The served workloads; each module's doc says which layers it loads.
/// The paper's adaptive duel (SNAPSHOT → `bisection` → 1-element INGEST)
/// and keyed tenant churn are not among them: over the wire their
/// run-to-run spread on a shared 2-core host exceeded the benchmark's
/// bounds (`perfbench/STEADINESS.md`). Their layers — publish, snapshot
/// encode, `AttackStrategy::next`, the offline `Duel` and `TenantArena` —
/// are timed in-process by the traced run of every workload.
const WORKLOADS: [&str; 2] = ["wire-ingest", "cluster-ingest"];

/// Reservoir size of Theorem 1.2 for prefix ranges over the universe.
const EPS: f64 = 0.15;
const DELTA: f64 = 0.2;

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, String> {
    let args = Args::parse()?;
    let host = Host::probe();
    eprintln!("host: {}", host.json());
    host.check_budget()?;
    resolve_node_bin()?;
    let k = bounds::reservoir_k_robust((UNIVERSE as f64).ln(), EPS, DELTA);
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "wire-ingest" => Box::new(ingest::WireIngest::new(args.seed, k)),
        "cluster-ingest" => Box::new(cluster::ClusterIngest::new(args.seed, k)),
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    };
    let result = drive(workload.as_mut(), &args).map_err(|e| format!("{}: {e}", args.workload));
    workload.stop();
    let result = result?;
    for c in result.checks.iter().filter(|c| !c.ok) {
        eprintln!("check FAILED: {}: {}", c.name, c.detail);
    }
    if let Some(c) = result.checks.last() {
        let ok = result.checks.iter().filter(|c| c.ok).count();
        eprintln!(
            "checks ok {ok}/{}: {}; last: {}",
            result.checks.len(),
            c.name,
            c.detail
        );
    }
    for (name, value, unit) in &result.metrics {
        println!("{:<28} {value:>16.4} {unit}", name);
    }
    let correct = result.failed == 0 && result.checks.iter().all(|c| c.ok);
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{name:?}: {{\"value\": {}, \"unit\": {unit:?}}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// reported as `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    metrics: layers::Metrics,
}

fn drive(w: &mut dyn Workload, args: &Args) -> std::io::Result<Outcome> {
    let mut tracer = Tracer::new(false);
    let mut checks = Vec::new();
    // Per untraced segment: set-up time and the end-to-end figures.
    let mut e2e: Vec<[f64; 6]> = Vec::new();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let start = Instant::now();
    let mut segment = 0;
    while segment < MIN_SEGMENTS || start.elapsed().as_secs_f64() < args.seconds {
        // The traced run alternates untraced and traced segments of the
        // same work; the gap between them is the tracing overhead.
        let traced_segment = args.trace && segment % 2 == 1;
        segment += 1;
        w.stop();
        let t0 = Instant::now();
        w.setup()?;
        let setup_s = t0.elapsed().as_secs_f64();
        check_generator_threads()?;
        let pids = node_pids();
        let cpu0 = cpu_seconds(&pids);
        tracer.set_on(traced_segment);
        let mut pass = timed_pass(
            w.segment_cycles(),
            w.cycle_steps(),
            &mut tracer,
            |tr, ph| w.step(tr, ph),
        )?;
        tracer.set_on(false);
        let cpu_s = cpu_seconds(&pids) - cpu0;
        let rss_mb = peak_rss_mb(&pids);
        checks.extend(w.check()?);
        w.stop();
        if traced_segment {
            traced.absorb(pass);
            continue;
        }
        e2e.push([
            setup_s,
            pass.rate(),
            median(&mut pass.ingest_us),
            median(&mut pass.query_us),
            rss_mb,
            cpu_s * 1e9 / pass.elems as f64,
        ]);
        let seg = e2e.last().expect("just pushed");
        eprintln!(
            "segment {segment}: setup {:.4} s, {:.4e} elem/s at the median cycle \
             ({:.4e} over the whole pass), ingest p50 {:.1} us, query p50 {:.1} us",
            seg[0],
            seg[1],
            pass.elems as f64 / pass.wall_s,
            seg[2],
            seg[3]
        );
        untraced.absorb(pass);
    }
    let attempted = untraced.attempted + traced.attempted + checks.len() as u64;
    let failed = untraced.failed + traced.failed + checks.iter().filter(|c| !c.ok).count() as u64;
    let metrics = if args.trace {
        tracer.set_on(true);
        let metrics = layers::probe(&mut tracer, &w.probe_input(), &mut untraced, &mut traced)?;
        let path = std::path::PathBuf::from(format!(
            "perfbench/traces/{}-seed{}.csv",
            args.workload, args.seed
        ));
        tracer.write_csv(&path)?;
        eprintln!("wrote {} spans to {}", tracer.len(), path.display());
        for (name, t) in tracer.totals() {
            eprintln!(
                "span {name:<32} count {:>9} self {:>12.3} ms total {:>12.3} ms",
                t.count,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6
            );
        }
        metrics
    } else {
        let column = |i: usize| median(&mut e2e.iter().map(|seg| seg[i]).collect::<Vec<_>>());
        vec![
            ("setup_s", column(0), "s"),
            ("ingest_elem_per_s", column(1), "1/s"),
            ("ingest_p50_us", column(2), "us"),
            ("query_p50_us", column(3), "us"),
            ("server_peak_rss_mb", column(4), "MB"),
            ("server_cpu_ns_per_elem", column(5), "ns"),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        checks,
        metrics,
    })
}
