//! `wire-ingest`: bulk writes with occasional reads.
//!
//! One binary connection pipelines `INGEST` frames of the registry `zipf`
//! stream into one node; every `QUERY_EVERY`th batch is followed by one
//! read-after-write query, rotating QUANTILE / COUNT / KS / SNAPSHOT.
//!
//! Loads: frame decode, the `SummaryService` ingest path (deal, buffer
//! pool, queue handoff) and the reservoir kernel. Publish runs once per
//! query, every 8 batches, and the attack layer not at all, so both are
//! nearly idle.
//!
//! Shape: 4096-element frames, 8 frames in flight, one node with one shard
//! and one event-loop worker. On a 2-core host this shape ran at
//! 1.85–2.10e8 elem/s across runs; two shards with two workers ran at
//! 1.11–1.68e8, because four busy threads on two cores make the run-to-run
//! spread wider than any change worth measuring.

use crate::harness::{encode, start_nodes, us, Check, Phase, Wire, UNIVERSE};
use crate::layers::ProbeInput;
use crate::trace::Tracer;
use crate::Workload;
use robust_sampling_core::engine::{ShardedSummary, StreamSummary};
use robust_sampling_core::sampler::ReservoirSampler;
use robust_sampling_core::ObservableDefense;
use robust_sampling_service::cluster::ClusterRouter;
use robust_sampling_service::{frame, Request, Response};
use std::time::Instant;

/// Elements per `INGEST` frame.
const FRAME: usize = 4096;
/// Frames written before the acks are read.
const PIPELINE: usize = 8;
/// A read-after-write query follows every this many batches.
const QUERY_EVERY: usize = 8;
/// One epoch per query, so each query reads the batches just written.
const EPOCH: usize = FRAME * PIPELINE * QUERY_EVERY;
/// Generated elements; the run cycles through them.
const INPUT: usize = 1 << 22;
/// Cycles per segment: 2048 × 8 batches, about 5.4e8 elements. A cycle is
/// one step, which holds one query.
const SEGMENT_CYCLES: usize = 2048;

struct Live {
    /// Holds the node process; its own connection stays idle.
    _router: ClusterRouter,
    wire: Wire,
}

pub struct WireIngest {
    seed: u64,
    k: usize,
    input: Vec<u64>,
    /// `input` as pre-encoded `INGEST` frames.
    frames: Vec<Vec<u8>>,
    queries: [Vec<u8>; 4],
    live: Option<Live>,
    /// Frames acked since set-up, warm-up included.
    acked: usize,
    steps: usize,
    final_sample: Vec<u64>,
}

impl WireIngest {
    pub fn new(seed: u64, k: usize) -> Self {
        let input = robust_sampling_streamgen::workload("zipf")
            .expect("zipf is registered")
            .materialize(INPUT, UNIVERSE, seed);
        let frames = input
            .chunks(FRAME)
            .map(|c| {
                let mut out = Vec::with_capacity(frame::HEADER_BYTES + 8 * c.len());
                frame::encode_ingest_slice(c, &mut out);
                out
            })
            .collect();
        let queries = [
            encode(&Request::QueryQuantile(0.5)),
            encode(&Request::QueryCount(input[0])),
            encode(&Request::QueryKs),
            encode(&Request::Snapshot),
        ];
        Self {
            seed,
            k,
            input,
            frames,
            queries,
            live: None,
            acked: 0,
            steps: 0,
            final_sample: Vec::new(),
        }
    }

    /// Pipeline the next `PIPELINE` frames and read their acks.
    fn batch(&mut self, ph: &mut Phase) -> std::io::Result<()> {
        let start = self.acked;
        let live = self.live.as_mut().expect("set up");
        for i in 0..PIPELINE {
            live.wire
                .send(&self.frames[(start + i) % self.frames.len()])?;
        }
        for _ in 0..PIPELINE {
            let resp = live.wire.recv()?;
            ph.expect(matches!(resp, Response::Ingested(_)));
        }
        self.acked += PIPELINE;
        ph.frames += PIPELINE as u64;
        ph.elems += (PIPELINE * FRAME) as u64;
        ph.round_trips += 1;
        Ok(())
    }

    /// The first `frames` frames of the cycled input.
    fn offline(&self, frames: usize) -> ReservoirSampler<u64> {
        let mut offline = ShardedSummary::new(1, self.seed, |_, s| {
            ReservoirSampler::<u64>::with_seed(self.k, s)
        })
        .with_parallel_threshold(usize::MAX);
        let chunks: Vec<&[u64]> = self.input.chunks(FRAME).collect();
        for i in 0..frames {
            offline.ingest_batch(chunks[i % chunks.len()]);
        }
        offline.into_merged()
    }
}

impl Workload for WireIngest {
    fn setup(&mut self) -> std::io::Result<()> {
        let router = start_nodes(1, self.seed, EPOCH, self.k)?;
        let wire = Wire::connect(router.node_addr(0))?;
        self.live = Some(Live {
            _router: router,
            wire,
        });
        self.acked = 0;
        self.steps = 0;
        // Warm-up prefix: the first epoch of the stream.
        let mut warm = Phase::default();
        for _ in 0..QUERY_EVERY {
            self.batch(&mut warm)?;
        }
        if warm.failed > 0 {
            return Err(std::io::Error::other("warm-up batch was refused"));
        }
        Ok(())
    }

    /// `QUERY_EVERY` batches, then one query.
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase) -> std::io::Result<()> {
        let t0 = Instant::now();
        for _ in 0..QUERY_EVERY {
            let b0 = Instant::now();
            let span = tr.begin("client.ingest_batch");
            self.batch(ph)?;
            tr.end(span);
            ph.ingest_us.push(us(b0.elapsed()));
        }
        self.steps += 1;
        let which = self.steps % self.queries.len();
        let q0 = Instant::now();
        let span = tr.begin("client.query");
        let live = self.live.as_mut().expect("set up");
        let resp = live.wire.call(&self.queries[which])?;
        tr.end(span);
        ph.query_us.push(us(q0.elapsed()));
        ph.expect(matches!(
            (which, &resp),
            (0, Response::Quantile(Some(_)))
                | (1, Response::Count(_))
                | (2, Response::Ks(_))
                | (3, Response::Snapshot { .. })
        ));
        ph.round_trips += 1;
        ph.queries += 1;
        ph.snapshots += (which == 3) as u64;
        ph.publishes += 1;
        ph.round_us.push(us(t0.elapsed()));
        Ok(())
    }

    fn cycle_steps(&self) -> usize {
        1
    }

    fn segment_cycles(&self) -> usize {
        SEGMENT_CYCLES
    }

    fn check(&mut self) -> std::io::Result<Vec<Check>> {
        let live = self.live.as_mut().expect("set up");
        let resp = live.wire.call(&self.queries[3])?;
        let Response::Snapshot { items, sample, .. } = resp else {
            return Ok(vec![Check::new(
                "final SNAPSHOT",
                false,
                format!("{resp:?}"),
            )]);
        };
        let acked_items = self.acked * FRAME;
        let offline = self.offline(self.acked);
        let same = items == acked_items && sample == offline.visible();
        self.final_sample = sample;
        Ok(vec![Check::new(
            "final SNAPSHOT equals offline ShardedSummary (K = 1) over the acked prefix",
            same,
            format!("{items} served items, {acked_items} acked"),
        )])
    }

    fn stop(&mut self) {
        self.live = None;
    }

    fn probe_input(&self) -> ProbeInput {
        ProbeInput::from_frames(&self.frames, self.k, EPOCH, self.final_sample.clone())
    }
}
