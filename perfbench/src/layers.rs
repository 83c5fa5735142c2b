//! Per-layer costs for the traced run.
//!
//! After the timed passes, each layer's public functions are called from
//! here, in this process, on the data the workload itself sent, under a
//! span per call site. A layer the workload bypasses is still timed, on
//! that workload's data: its figure is the control that a change to the
//! layer should leave unmoved. The serial sum of these costs over the
//! work the traced pass counted, set against that pass's wall time, is
//! `server.explained_share`. Work that overlaps on the two cores (the
//! shard worker's kernel, the asynchronous epoch publish) is counted in
//! full, so the share can exceed 1 where such work is on the blocking path
//! only in part.

use crate::harness::{quantile, start_nodes, us, Phase, Wire, UNIVERSE};
use crate::trace::{Totals, Tracer};
use robust_sampling_core::attack::{self, AttackContext, AttackStrategy, Duel};
use robust_sampling_core::engine::{ShardedSummary, StreamSummary};
use robust_sampling_core::sampler::ReservoirSampler;
use robust_sampling_service::frame::{self, RequestFrame};
use robust_sampling_service::{Request, SummaryService, TenantArena, TenantArenaConfig};
use std::hint::black_box;
use std::time::Instant;

/// Frames the probes replay.
const PROBE_FRAMES: usize = 256;
/// Tenants the arena probe keys the workload's frames by, and how many of
/// them its budget keeps resident.
const PROBE_TENANTS: u64 = 64;
const PROBE_RESIDENT: usize = 16;

/// The workload's own data, as the probes replay it.
pub struct ProbeInput {
    /// Request frames exactly as the workload sends them.
    frames: Vec<Vec<u8>>,
    /// The elements those frames carry, one vector per frame.
    elems: Vec<Vec<u64>>,
    /// The same elements keyed by tenant.
    keyed: Vec<(u64, Vec<u64>)>,
    /// The last sample the workload read back.
    sample: Vec<u64>,
    k: usize,
    epoch_every: usize,
}

fn probe_tenant_config() -> TenantArenaConfig {
    let mut cfg = TenantArenaConfig {
        universe: UNIVERSE,
        eps: 0.15,
        delta: 0.1,
        budget_bytes: 0,
        base_seed: 7,
        robust: true,
    };
    cfg.budget_bytes = PROBE_RESIDENT * TenantArena::new(cfg).slot_bytes();
    cfg
}

impl ProbeInput {
    /// From pre-encoded `INGEST` frames.
    pub fn from_frames(frames: &[Vec<u8>], k: usize, epoch_every: usize, sample: Vec<u64>) -> Self {
        let frames: Vec<Vec<u8>> = frames.iter().take(PROBE_FRAMES).cloned().collect();
        let elems = frames
            .iter()
            .map(|f| match frame::decode_request_frame(f) {
                Ok(Some((RequestFrame::IngestLe(p), _))) => le_words(p),
                _ => panic!("probe frames are INGEST frames"),
            })
            .collect();
        Self::build(frames, elems, k, epoch_every, sample)
    }

    /// From the element vectors of the workload's `INGEST` frames.
    pub fn from_elements(
        elems: Vec<Vec<u64>>,
        k: usize,
        epoch_every: usize,
        sample: Vec<u64>,
    ) -> Self {
        let frames = elems
            .iter()
            .map(|e| {
                let mut out = Vec::new();
                frame::encode_ingest_slice(e, &mut out);
                out
            })
            .collect();
        Self::build(frames, elems, k, epoch_every, sample)
    }

    fn build(
        frames: Vec<Vec<u8>>,
        elems: Vec<Vec<u64>>,
        k: usize,
        epoch_every: usize,
        sample: Vec<u64>,
    ) -> Self {
        let keyed = elems
            .iter()
            .enumerate()
            .map(|(i, e)| (i as u64 % PROBE_TENANTS, e.clone()))
            .collect();
        Self {
            frames,
            elems,
            keyed,
            sample,
            k,
            epoch_every,
        }
    }

    fn total_elems(&self) -> usize {
        self.elems.iter().map(Vec::len).sum()
    }
}

fn le_words(payload: &[u8]) -> Vec<u64> {
    payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

fn le_bytes(xs: &[u64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Time `calls` calls made by `f` under one span; mean ns per call.
fn per_call(tr: &mut Tracer, name: &'static str, calls: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    tr.span(name, f);
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Times each `next` call under an `attack.next` span.
struct Timed<'a, A> {
    inner: A,
    tr: &'a mut Tracer,
}

impl<A: AttackStrategy> AttackStrategy for Timed<'_, A> {
    fn next(&mut self, ctx: &AttackContext<'_>) -> u64 {
        let id = self.tr.begin("attack.next");
        let x = self.inner.next(ctx);
        self.tr.end(id);
        x
    }
}

/// Per-layer metrics as `(name, value, unit)`.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Run every probe; `untraced` and `traced` are the workload's two timed
/// passes, whose spans `tr` already holds.
pub fn probe(
    tr: &mut Tracer,
    input: &ProbeInput,
    untraced: &mut Phase,
    traced: &mut Phase,
) -> std::io::Result<Metrics> {
    let mut m: Metrics = Vec::new();
    let loop_totals = tr.totals();

    // service::frame
    let reps = (20_000 / input.frames.len().max(1)).max(1);
    let decode_ns = per_call(
        tr,
        "frame.decode_request_frame",
        reps * input.frames.len(),
        || {
            for _ in 0..reps {
                for f in &input.frames {
                    black_box(frame::decode_request_frame(black_box(f)).ok());
                }
            }
        },
    );
    m.push(("frame.decode_ns_per_frame", decode_ns, "ns"));
    let frame_bytes: usize = input.frames.iter().map(Vec::len).sum();
    m.push((
        "frame.bytes_per_elem",
        frame_bytes as f64 / input.total_elems().max(1) as f64,
        "B/elem",
    ));
    let sample: Vec<u64> = if input.sample.is_empty() {
        input
            .elems
            .iter()
            .flatten()
            .take(input.k)
            .copied()
            .collect()
    } else {
        input.sample.clone()
    };
    let mut buf = Vec::new();
    let encode_ns = per_call(tr, "frame.encode_snapshot_slice", 2000, || {
        for _ in 0..2000 {
            buf.clear();
            frame::encode_snapshot_slice(1, sample.len(), black_box(&sample), &mut buf);
            black_box(&buf);
        }
    });
    m.push(("frame.encode_snapshot_ns", encode_ns, "ns"));

    // service::service and the snapshot it publishes
    let payloads: Vec<Vec<u8>> = input.elems.iter().map(|e| le_bytes(e)).collect();
    let k = input.k;
    let mut svc = SummaryService::start(1, 7, input.epoch_every, |_, s| {
        ReservoirSampler::<u64>::with_seed(k, s)
    });
    let reps = (2000 / payloads.len().max(1)).max(1);
    let ingest_ns = per_call(tr, "service.ingest_frame_le", reps * payloads.len(), || {
        for _ in 0..reps {
            for p in &payloads {
                black_box(svc.ingest_frame_le(p));
            }
        }
    });
    m.push(("service.ingest_frame_ns", ingest_ns, "ns"));
    let publish_us = per_call(tr, "service.publish", 200, || {
        for _ in 0..200 {
            black_box(svc.publish());
        }
    }) / 1e3;
    m.push(("service.publish_us", publish_us, "us"));
    m.push((
        "service.epochs_per_kelem",
        traced.publishes as f64 * 1e3 / traced.elems.max(1) as f64,
        "count",
    ));
    let snap = svc.snapshot();
    let x = input.elems[0][0];
    let quantile_ns = per_call(tr, "snapshot.quantile", 2000, || {
        for _ in 0..2000 {
            black_box(snap.quantile(black_box(0.5)));
        }
    });
    let count_ns = per_call(tr, "snapshot.count", 2000, || {
        for _ in 0..2000 {
            black_box(snap.count(black_box(x)));
        }
    });
    let ks_ns = per_call(tr, "snapshot.ks_uniform", 2000, || {
        for _ in 0..2000 {
            black_box(snap.ks_uniform(UNIVERSE));
        }
    });
    drop(snap);
    drop(svc);
    m.push(("snapshot.quantile_ns", quantile_ns, "ns"));
    m.push(("snapshot.count_ns", count_ns, "ns"));
    m.push(("snapshot.ks_ns", ks_ns, "ns"));

    // core::sampler: the single-threaded baseline of the ingest kernel.
    let per_rep = input.total_elems().max(1);
    let reps = (4_000_000 / per_rep).max(1);
    let mut sampler = ReservoirSampler::<u64>::with_seed(k, 7);
    let kernel_ns = per_call(tr, "sampler.ingest_batch", reps * per_rep, || {
        for _ in 0..reps {
            for e in &input.elems {
                sampler.ingest_batch(black_box(e));
            }
        }
    });
    black_box(&sampler);
    m.push(("sampler.kernel_ns_per_elem", kernel_ns, "ns"));

    // core::attack: the offline duel, with every choice timed.
    const DUEL_ROUNDS: usize = 8192;
    let mut offline = ShardedSummary::new(1, 7, |_, s| ReservoirSampler::<u64>::with_seed(k, s));
    let strategy = attack::attack("bisection")
        .expect("bisection is registered")
        .build(DUEL_ROUNDS, UNIVERSE, 7);
    let outer = tr.begin("attack.offline_duel");
    let t0 = Instant::now();
    Duel::new(DUEL_ROUNDS, UNIVERSE).run(
        &mut offline,
        &mut Timed {
            inner: strategy,
            tr: &mut *tr,
        },
    );
    let duel_ns = t0.elapsed().as_nanos() as f64;
    tr.end(outer);
    let totals = tr.totals();
    m.push((
        "attack.choose_ns_per_round",
        totals["attack.next"].mean_self_ns(),
        "ns",
    ));
    m.push((
        "attack.offline_round_ns",
        duel_ns / DUEL_ROUNDS as f64,
        "ns",
    ));

    // service::server: an idle node of the workload's shape.
    let (ping_us, node_ack_us) = {
        let router = start_nodes(1, 7, input.epoch_every, k)?;
        let mut wire = Wire::connect(router.node_addr(0))?;
        let ping = crate::harness::encode(&Request::QueryCount(x));
        let mut rtts = Vec::with_capacity(500);
        for _ in 0..500 {
            let t0 = Instant::now();
            let id = tr.begin("server.query_count_idle");
            wire.call(&ping)?;
            tr.end(id);
            rtts.push(us(t0.elapsed()));
        }
        let mut acks = Vec::with_capacity(input.frames.len());
        let ingest_frames: Vec<Vec<u8>> = input
            .elems
            .iter()
            .map(|e| {
                let mut out = Vec::new();
                frame::encode_ingest_slice(e, &mut out);
                out
            })
            .collect();
        for f in ingest_frames.iter().cycle().take(256) {
            let t0 = Instant::now();
            let id = tr.begin("cluster.node_ack");
            wire.call(f)?;
            tr.end(id);
            acks.push(us(t0.elapsed()));
        }
        (quantile(&mut rtts, 0.5), quantile(&mut acks, 0.5))
    };
    m.push(("server.ping_rtt_us", ping_us, "us"));

    // service::tenant
    let mut arena = TenantArena::new(probe_tenant_config());
    let keyed_payloads: Vec<(u64, Vec<u8>)> = input
        .keyed
        .iter()
        .map(|(t, vs)| (*t, le_bytes(vs)))
        .collect();
    let tenant_ingest_ns = per_call(tr, "tenant.ingest_le", keyed_payloads.len(), || {
        for (t, p) in &keyed_payloads {
            black_box(arena.ingest_le(*t, p));
        }
    });
    let mut tenants: Vec<u64> = input.keyed.iter().map(|p| p.0).collect();
    tenants.sort_unstable();
    tenants.dedup();
    let queried: Vec<u64> = tenants.iter().copied().cycle().take(2000).collect();
    let tenant_query_ns = per_call(tr, "tenant.quantile", queried.len(), || {
        for &t in &queried {
            black_box(arena.quantile(t, 0.5));
        }
    });
    let c = arena.counters();
    let touches = (keyed_payloads.len() + queried.len()) as f64;
    m.push(("tenant.ingest_ns_per_frame", tenant_ingest_ns, "ns"));
    m.push(("tenant.query_ns", tenant_query_ns, "ns"));
    m.push(("tenant.revive_share", c.revivals as f64 / touches, "ratio"));
    m.push((
        "tenant.evictions_per_kelem",
        c.evictions as f64 * 1e3 / input.total_elems().max(1) as f64,
        "count",
    ));
    m.push(("tenant.resident_bytes", arena.resident_bytes() as f64, "B"));
    m.push(("tenant.cold_bytes", arena.cold_bytes() as f64, "B"));
    drop(arena);

    // service::cluster: the workload's own router calls when it made any,
    // else a two-node twin fed the workload's frames.
    let frame_skew = {
        let mut router = start_nodes(2, 7, input.epoch_every, k)?;
        let spanned = !loop_totals.contains_key("cluster.ingest");
        let timed =
            |tr: &mut Tracer, name: &'static str, f: &mut dyn FnMut() -> std::io::Result<()>| {
                let id = if spanned {
                    tr.begin(name)
                } else {
                    crate::trace::NONE
                };
                let r = f();
                tr.end(id);
                r
            };
        for (i, e) in input.elems.iter().cycle().take(PROBE_FRAMES).enumerate() {
            timed(tr, "cluster.ingest", &mut || router.ingest(e).map(drop))?;
            if i % 16 == 15 {
                timed(tr, "cluster.global_view", &mut || {
                    router.global_view::<ReservoirSampler<u64>>().map(drop)
                })?;
            }
            if i % 64 == 63 {
                timed(tr, "cluster.checkpoint_all", &mut || {
                    router.checkpoint_all()
                })?;
            }
        }
        let sent: Vec<f64> = (0..2).map(|j| router.frames_sent(j) as f64).collect();
        sent.iter().copied().fold(0.0, f64::max) / (sent.iter().sum::<f64>() / 2.0)
    };
    let totals = tr.totals();
    let mean_us = |name: &str| {
        totals.get(name).map_or(f64::NAN, |t: &Totals| {
            t.total_ns as f64 / t.count.max(1) as f64 / 1e3
        })
    };
    m.push((
        "cluster.route_us_per_frame",
        mean_us("cluster.ingest"),
        "us",
    ));
    m.push(("cluster.node_ack_us", node_ack_us, "us"));
    m.push(("cluster.merge_us", mean_us("cluster.global_view"), "us"));
    m.push((
        "cluster.checkpoint_us",
        mean_us("cluster.checkpoint_all"),
        "us",
    ));
    m.push(("cluster.frame_skew", frame_skew, "ratio"));

    // The serial layer-cost model of the traced pass.
    let query_ns = (quantile_ns + count_ns + ks_ns) / 3.0;
    let explained_ns = traced.frames as f64 * (decode_ns + ingest_ns)
        + traced.elems as f64 * kernel_ns
        + traced.round_trips as f64 * ping_us * 1e3
        + traced.snapshots as f64 * encode_ns
        + traced.publishes as f64 * publish_us * 1e3
        + traced.queries as f64 * query_ns;
    let wall_ns = traced.wall_s * 1e9;
    m.push(("server.explained_share", explained_ns / wall_ns, "ratio"));
    m.push((
        "server.residual_us_per_op",
        (wall_ns - explained_ns) / 1e3 / traced.attempted.max(1) as f64,
        "us",
    ));

    // Tails of the traced pass, and what tracing cost.
    m.push(("ingest.p99_us", quantile(&mut traced.ingest_us, 0.99), "us"));
    m.push(("query.p99_us", quantile(&mut traced.query_us, 0.99), "us"));
    m.push(("round.p99_us", quantile(&mut traced.round_us, 0.99), "us"));
    m.push((
        "trace.overhead_share",
        1.0 - traced.rate() / untraced.rate(),
        "ratio",
    ));
    Ok(m)
}
