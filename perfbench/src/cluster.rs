//! `cluster-ingest`: a `ClusterRouter` over two node processes.
//!
//! The router deals each input frame round-robin into one stride per node
//! and waits for each node's ack. Every `VIEW_EVERY`th frame is followed by
//! `global_view`, the coordinator merge of both nodes' published epochs;
//! `checkpoint_all` runs after every `CHECKPOINT_EVERY` views, as a
//! deployment would, which also trims the router's replay window.
//!
//! Loads: the router's deal and fan-out, node acks, the coordinator's
//! state pull and merge, and checkpoints. Bypasses: pipelining (the
//! router sends one stride at a time) and the tenant arena.
//!
//! Shape: two nodes with one shard and one event-loop worker each. At this
//! shape with 4096-element frames a 2-core host ran 2.34–2.98e7 elem/s
//! (2.83–2.98e7 after the first run). Without checkpoints the replay window
//! keeps every routed frame: the generator reached a 660 MB peak within
//! 3 s, so the checkpoint cadence also bounds the generator's memory.

use crate::harness::{start_nodes, us, Check, Phase, UNIVERSE};
use crate::layers::ProbeInput;
use crate::trace::Tracer;
use crate::Workload;
use robust_sampling_core::engine::{ShardedSummary, StreamSummary};
use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling_service::cluster::ClusterRouter;
use std::time::Instant;

const NODES: usize = 2;
/// Input elements per router call; each node receives half.
const FRAME: usize = 4096;
/// A `global_view` follows every this many frames.
const VIEW_EVERY: usize = 16;
/// One epoch per node per view, so each view reads the frames just sent.
const NODE_EPOCH: usize = VIEW_EVERY * FRAME / NODES;
/// `checkpoint_all` runs after every this many views.
const CHECKPOINT_EVERY: usize = 16;
/// Generated elements; the run cycles through them.
const INPUT: usize = 1 << 22;
/// Cycles per segment: 96 × 16 steps × 16 frames, about 1e8 elements; a
/// cycle holds 16 views and one checkpoint.
const SEGMENT_CYCLES: usize = 96;

/// Frame `i` of the cycled input.
fn frame_at(input: &[u64], i: usize) -> &[u64] {
    let start = (i % (input.len() / FRAME)) * FRAME;
    &input[start..start + FRAME]
}

pub struct ClusterIngest {
    seed: u64,
    k: usize,
    input: Vec<u64>,
    router: Option<ClusterRouter>,
    acked_frames: usize,
    steps: usize,
    final_sample: Vec<u64>,
}

impl ClusterIngest {
    pub fn new(seed: u64, k: usize) -> Self {
        let input = robust_sampling_streamgen::workload("zipf")
            .expect("zipf is registered")
            .materialize(INPUT, UNIVERSE, seed);
        Self {
            seed,
            k,
            input,
            router: None,
            acked_frames: 0,
            steps: 0,
            final_sample: Vec::new(),
        }
    }

    fn router(&mut self) -> &mut ClusterRouter {
        self.router.as_mut().expect("set up")
    }
}

impl Workload for ClusterIngest {
    fn setup(&mut self) -> std::io::Result<()> {
        let mut router = start_nodes(NODES, self.seed, NODE_EPOCH, self.k)?;
        // Warm-up prefix: the first epoch of the stream.
        for i in 0..VIEW_EVERY {
            router.ingest(frame_at(&self.input, i))?;
        }
        self.router = Some(router);
        self.acked_frames = VIEW_EVERY;
        self.steps = 0;
        Ok(())
    }

    /// `VIEW_EVERY` frames, then one `global_view`, and on every
    /// `CHECKPOINT_EVERY`th call a checkpoint.
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase) -> std::io::Result<()> {
        let t0 = Instant::now();
        let router = self.router.as_mut().expect("set up");
        for _ in 0..VIEW_EVERY {
            let f0 = Instant::now();
            let span = tr.begin("cluster.ingest");
            router.ingest(frame_at(&self.input, self.acked_frames))?;
            tr.end(span);
            ph.ingest_us.push(us(f0.elapsed()));
            self.acked_frames += 1;
        }
        let n = VIEW_EVERY as u64 * NODES as u64;
        ph.attempted += n;
        ph.elems += (VIEW_EVERY * FRAME) as u64;
        ph.frames += n;
        ph.round_trips += n;
        ph.publishes += NODES as u64;
        let q0 = Instant::now();
        let span = tr.begin("cluster.global_view");
        let view = router.global_view::<ReservoirSampler<u64>>()?;
        tr.end(span);
        ph.query_us.push(us(q0.elapsed()));
        ph.expect(view.items() == self.acked_frames * FRAME);
        ph.attempted += NODES as u64 - 1;
        ph.round_trips += NODES as u64;
        ph.queries += 1;
        self.steps += 1;
        if self.steps.is_multiple_of(CHECKPOINT_EVERY) {
            let span = tr.begin("cluster.checkpoint_all");
            router.checkpoint_all()?;
            tr.end(span);
            ph.attempted += NODES as u64;
            ph.round_trips += NODES as u64;
        }
        ph.round_us.push(us(t0.elapsed()));
        Ok(())
    }

    fn cycle_steps(&self) -> usize {
        CHECKPOINT_EVERY
    }

    fn segment_cycles(&self) -> usize {
        SEGMENT_CYCLES
    }

    fn check(&mut self) -> std::io::Result<Vec<Check>> {
        let view = self.router().global_view::<ReservoirSampler<u64>>()?;
        let mut offline = ShardedSummary::new(NODES, self.seed, |_, s| {
            ReservoirSampler::<u64>::with_seed(self.k, s)
        })
        .with_parallel_threshold(usize::MAX);
        for i in 0..self.acked_frames {
            offline.ingest_batch(frame_at(&self.input, i));
        }
        let merged = offline.into_merged();
        let acked = self.acked_frames * FRAME;
        let same = view.items() == acked && view.summary().sample() == merged.sample();
        self.final_sample = view.visible();
        Ok(vec![Check::new(
            "global_view equals offline ShardedSummary (K = 2) over the acked prefix",
            same,
            format!("{} view items, {acked} acked", view.items()),
        )])
    }

    fn stop(&mut self) {
        self.router = None;
    }

    fn probe_input(&self) -> ProbeInput {
        let strides: Vec<Vec<u64>> = (0..128)
            .flat_map(|i| {
                let f = frame_at(&self.input, i);
                (0..NODES).map(move |j| f.iter().skip(j).step_by(NODES).copied().collect())
            })
            .collect();
        ProbeInput::from_elements(strides, self.k, NODE_EPOCH, self.final_sample.clone())
    }
}
