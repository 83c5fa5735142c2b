//! What every workload shares: arguments, the host fingerprint and thread
//! budget, node processes and their `/proc` counters, a raw binary-frame
//! connection, the timed pass and its statistics.

use crate::trace::Tracer;
use robust_sampling_service::cluster::{ClusterConfig, ClusterRouter};
use robust_sampling_service::frame;
use robust_sampling_service::Response;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Threads the load generator runs: the benchmark is single-threaded.
pub const GENERATOR_THREADS: usize = 1;
/// Connections any workload holds open at once.
pub const MAX_CONNECTIONS: usize = 2;
/// Event-loop workers per node process.
pub const NODE_WORKERS: usize = 1;
// On two cores, extra runnable threads were the largest source of
// run-to-run noise: a node runs exactly one event-loop worker.
const _: () = assert!(NODE_WORKERS == 1);
/// A run repeats fixed-work segments, each on freshly started node
/// processes, until `--seconds` have passed, and at least this many times;
/// every end-to-end metric is the median over the segments.
pub const MIN_SEGMENTS: usize = 3;
/// Universe of every generated stream.
pub const UNIVERSE: u64 = 1 << 20;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("missing value for {flag}"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The host a result was measured on.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
}

impl Host {
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc,
            cpu_model,
            rustc,
        }
    }

    /// Refuse a load shape with more connections than the host has CPUs.
    pub fn check_budget(&self) -> Result<(), String> {
        if MAX_CONNECTIONS > self.nproc {
            return Err(format!(
                "generator needs {MAX_CONNECTIONS} connections, host has {} CPU(s)",
                self.nproc
            ));
        }
        Ok(())
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {:?}, \"rustc\": {:?}}}",
            self.nproc, self.cpu_model, self.rustc
        )
    }
}

/// Refuse to time a pass while this process runs more threads than
/// `GENERATOR_THREADS` (counted in `/proc/self/status`).
pub fn check_generator_threads() -> std::io::Result<()> {
    let threads: usize = std::fs::read_to_string("/proc/self/status")?
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::other("no Threads: line in /proc/self/status"))?;
    if threads > GENERATOR_THREADS {
        return Err(std::io::Error::other(format!(
            "generator runs {threads} threads, the budget is {GENERATOR_THREADS}"
        )));
    }
    Ok(())
}

/// Find the `cluster_node` binary the way `ClusterRouter` does —
/// `CLUSTER_NODE_BIN`, else next to this executable — but fail instead of
/// building it, so no compile time lands inside a timed set-up.
pub fn resolve_node_bin() -> Result<PathBuf, String> {
    let path = match std::env::var_os("CLUSTER_NODE_BIN") {
        Some(p) => PathBuf::from(p),
        None => {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            exe.with_file_name(format!("cluster_node{}", std::env::consts::EXE_SUFFIX))
        }
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "cluster_node not found at {}; build it first (perfbench/run.sh does) or set CLUSTER_NODE_BIN",
            path.display()
        ))
    }
}

/// Node processes this benchmark started: children named `cluster_node`.
pub fn node_pids() -> Vec<u32> {
    let me = std::process::id();
    let mut pids = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // `pid (comm) state ppid …`; comm may hold spaces, so split at ')'.
        let Some((head, rest)) = stat.rsplit_once(')') else {
            continue;
        };
        let ppid = rest
            .split_whitespace()
            .nth(1)
            .and_then(|p| p.parse::<u32>().ok());
        if ppid == Some(me) && head.ends_with("(cluster_node") {
            pids.push(pid);
        }
    }
    pids.sort_unstable();
    pids
}

/// Peak resident set (VmHWM) summed over `pids`, in MB.
pub fn peak_rss_mb(pids: &[u32]) -> f64 {
    let kb: u64 = pids
        .iter()
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter_map(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum();
    kb as f64 / 1024.0
}

/// User plus system CPU time summed over `pids`, in seconds.
pub fn cpu_seconds(pids: &[u32]) -> f64 {
    // Linux reports these fields in USER_HZ, which is 100 on every
    // architecture this runs on.
    const USER_HZ: f64 = 100.0;
    let ticks: u64 = pids
        .iter()
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/stat")).ok())
        .filter_map(|s| {
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            // After `comm`: state is field 3, utime 14, stime 15.
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .sum();
    ticks as f64 / USER_HZ
}

/// Start `nodes` node processes, one shard and `NODE_WORKERS` event-loop
/// workers each; node `j` is seeded as shard `j` of an offline
/// `ShardedSummary` with base seed `seed`.
pub fn start_nodes(
    nodes: usize,
    seed: u64,
    epoch_every: usize,
    cap: usize,
) -> std::io::Result<ClusterRouter> {
    ClusterRouter::start(ClusterConfig {
        nodes,
        base_seed: seed,
        epoch_every,
        cap,
        universe: UNIVERSE,
        workers: NODE_WORKERS,
        tenant_budget_bytes: None,
    })
}

/// A raw binary-frame connection: requests go out as pre-encoded bytes,
/// responses come back through the program's frame decoder.
pub struct Wire {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Start of the bytes in `rbuf` not yet decoded.
    pos: usize,
    scratch: Box<[u8]>,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            pos: 0,
            scratch: vec![0u8; 1 << 16].into_boxed_slice(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    pub fn recv(&mut self) -> std::io::Result<Response> {
        loop {
            match frame::decode_response(&self.rbuf[self.pos..]) {
                Ok(Some((resp, used))) => {
                    self.pos += used;
                    return Ok(resp);
                }
                Ok(None) => {
                    // One read can hold hundreds of pipelined acks: drop
                    // the decoded prefix once per read, not per response.
                    self.rbuf.drain(..self.pos);
                    self.pos = 0;
                    let n = self.stream.read(&mut self.scratch)?;
                    if n == 0 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "node closed the connection",
                        ));
                    }
                    self.rbuf.extend_from_slice(&self.scratch[..n]);
                }
                Err(e) => return Err(std::io::Error::other(format!("frame error: {e}"))),
            }
        }
    }

    /// One request, one response.
    pub fn call(&mut self, bytes: &[u8]) -> std::io::Result<Response> {
        self.send(bytes)?;
        self.recv()
    }
}

/// Encode one request as a binary frame.
pub fn encode(req: &robust_sampling_service::Request) -> Vec<u8> {
    let mut out = Vec::new();
    frame::encode_request(req, &mut out);
    out
}

/// What one timed pass of a workload's loop measured.
#[derive(Default)]
pub struct Phase {
    pub wall_s: f64,
    /// Elements acknowledged by the nodes.
    pub elems: u64,
    /// Ingest latency samples (µs): one per pipelined batch or router call.
    pub ingest_us: Vec<f64>,
    /// Read latency samples (µs).
    pub query_us: Vec<f64>,
    /// One closed-loop iteration of the generator (µs).
    pub round_us: Vec<f64>,
    /// One cycle of the workload's periodic work (µs): every cycle is the
    /// same work, each periodic request (query, checkpoint) included once.
    pub cycle_us: Vec<f64>,
    /// Requests sent and requests answered with `ERR` or a wrong kind.
    pub attempted: u64,
    pub failed: u64,
    /// Work done, by kind, for the layer-cost model of the traced run.
    pub frames: u64,
    pub round_trips: u64,
    pub queries: u64,
    pub snapshots: u64,
    pub publishes: u64,
}

impl Phase {
    /// Add `other`'s work and samples to this pass.
    pub fn absorb(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.elems += other.elems;
        self.ingest_us.extend(other.ingest_us);
        self.query_us.extend(other.query_us);
        self.round_us.extend(other.round_us);
        self.cycle_us.extend(other.cycle_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.frames += other.frames;
        self.round_trips += other.round_trips;
        self.queries += other.queries;
        self.snapshots += other.snapshots;
        self.publishes += other.publishes;
    }

    /// Acked elements per second at the median cycle. Each cycle carries
    /// its share of the periodic work, so a slower checkpoint or query
    /// slows every cycle; a stall of the shared host slows only the cycles
    /// it lands in, which the median leaves out.
    pub fn rate(&mut self) -> f64 {
        let per_cycle = self.elems as f64 / self.cycle_us.len() as f64;
        per_cycle * 1e6 / median(&mut self.cycle_us)
    }

    /// Record one response: anything but the expected kind is a failure.
    pub fn expect(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Run `cycles` × `cycle_steps` calls of `step`, each one whole unit of
/// work (a batch, a view), and time each cycle and the whole pass.
pub fn timed_pass(
    cycles: usize,
    cycle_steps: usize,
    tracer: &mut Tracer,
    mut step: impl FnMut(&mut Tracer, &mut Phase) -> std::io::Result<()>,
) -> std::io::Result<Phase> {
    let mut phase = Phase::default();
    let start = Instant::now();
    for _ in 0..cycles {
        let c0 = Instant::now();
        for _ in 0..cycle_steps {
            step(tracer, &mut phase)?;
        }
        phase.cycle_us.push(us(c0.elapsed()));
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile; NaN for an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// One named correctness check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            ok,
            detail: detail.into(),
        }
    }
}
