//! `perfbench`: the serving benchmark of the fineq workspace.
//!
//! ```text
//! perfbench --workload <decode_large|chat_openloop|remote_closed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a seeded synthetic model, times the set-up from dense weights
//! to a ready scheduler, serves the workload's traffic for `--seconds`,
//! checks the outputs against properties, and prints one JSON object as
//! the last line of stdout: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`, which also writes spans under
//! `.perfbench/`). See README.md for the workloads and the metric map.

mod affinity;
mod check;
mod inputs;
mod serve;
mod stats;
mod trace;
mod workers;

use fineq::core::telemetry::Histogram;
use fineq::core::{FineQuantizer, KernelProfiler, MetricsRegistry};
use fineq::lm::remote::RemoteShardedModel;
use fineq::lm::{ServeModel, Transformer, WeightSite};
use fineq::pipeline::{observe, quantize_model_packed, PipelineConfig};
use fineq::tensor::Rng;
use inputs::{poisson_arrivals, RequestMix, RequestStream, Shape, SplitMix};
use serve::{closed_loop, open_loop, Driver};
use stats::{median, percentile, OpenLoopTimes, Summary};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Spans;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Run artefacts (spans, worker sockets) live here, inside the checkout.
const OUT_DIR: &str = ".perfbench";

/// Kernel threads of every workload: no pool is installed, the serial
/// path runs, on the one CPU the benchmark is pinned to (see `affinity`).
const KERNEL_THREADS: usize = 1;

enum Load {
    /// Callers that each wait for their reply before sending the next.
    Closed { clients: usize },
    /// Poisson arrivals at a fixed rate (requests per second).
    Open { rate: f64 },
}

struct Spec {
    name: &'static str,
    shape: Shape,
    mix: RequestMix,
    load: Load,
    max_batch: usize,
    /// Worker processes, one per row shard (0: served in process).
    shards: usize,
    page_budget: Option<usize>,
    prefix_sharing: bool,
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    /// Finished requests replayed alone through `Transformer::generate`.
    replays: usize,
    /// Positions compared against the f64 reference forward (0: none).
    logit_positions: usize,
}

fn spec(name: &str) -> Option<Spec> {
    let greedy_ish = 0.8;
    match name {
        "decode_large" => Some(Spec {
            name: "decode_large",
            shape: Shape { vocab: 512, d_model: 1024, d_ff: 4096, n_layers: 4, n_heads: 8 },
            mix: RequestMix {
                shared_prefix: 0,
                unique: 8,
                output: (24, 40),
                temperature: greedy_ish,
            },
            load: Load::Closed { clients: 4 },
            max_batch: 4,
            shards: 0,
            page_budget: None,
            prefix_sharing: false,
            setup_reps: 3,
            replays: 1,
            logit_positions: 0,
        }),
        "chat_openloop" => Some(Spec {
            name: "chat_openloop",
            shape: Shape { vocab: 512, d_model: 256, d_ff: 1024, n_layers: 2, n_heads: 4 },
            mix: RequestMix {
                shared_prefix: 64,
                unique: 8,
                output: (16, 64),
                temperature: greedy_ish,
            },
            load: Load::Open { rate: 15.0 },
            max_batch: 16,
            shards: 0,
            page_budget: Some(96),
            prefix_sharing: true,
            setup_reps: 5,
            replays: 4,
            logit_positions: 24,
        }),
        "remote_closed" => Some(Spec {
            name: "remote_closed",
            shape: Shape { vocab: 512, d_model: 512, d_ff: 2048, n_layers: 2, n_heads: 8 },
            mix: RequestMix {
                shared_prefix: 0,
                unique: 8,
                output: (24, 40),
                temperature: greedy_ish,
            },
            load: Load::Closed { clients: 8 },
            max_batch: 8,
            shards: 2,
            page_budget: None,
            prefix_sharing: false,
            setup_reps: 3,
            replays: 2,
            logit_positions: 0,
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 2 && argv[0] == "--worker" {
        return match workers::worker_main(&argv[1]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    // Thread counts are fixed per workload; no library default may read
    // the environment override.
    std::env::remove_var(fineq::core::pool::THREADS_ENV);
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <decode_large|chat_openloop|remote_closed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let cpu = match affinity::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("pinned to cpu {cpu}");
    println!("host_speed before: {:.1} Mloop/s", reference_rate());
    let outcome = run(&spec, &args);
    println!("host_speed after: {:.1} Mloop/s", reference_rate());
    match outcome {
        Ok(result) => {
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rate of a fixed dependent integer/float loop (million iterations per
/// second): the host's own speed, printed before and after each workload
/// so a slow run can be told apart from a slow program.
fn reference_rate() -> f64 {
    const N: u64 = 20_000_000;
    let t0 = Instant::now();
    let (mut x, mut acc) = (1u64, 0.0f64);
    for _ in 0..N {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        acc += (x >> 40) as f64;
    }
    std::hint::black_box(acc);
    N as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A ready-to-serve deployment and what building it cost.
struct Deployment<M> {
    driver: Driver<M>,
    /// The packed model (replay and property checks run on it).
    packed: Option<Transformer>,
    setup_s: Vec<f64>,
    quantize_s: Vec<f64>,
    connect_s: Vec<f64>,
}

fn quantize(
    dense: &Transformer,
    spans: &mut Spans,
    parent: Option<usize>,
    origin: Instant,
) -> (Transformer, f64) {
    let t0 = origin.elapsed().as_secs_f64();
    let (packed, _) =
        quantize_model_packed(dense, &FineQuantizer::paper(), &PipelineConfig::default());
    let t1 = origin.elapsed().as_secs_f64();
    spans.record("pipeline.quantize_model_packed", (t0, t1), parent, None);
    (packed, t1 - t0)
}

/// Set-up in process: quantize, build and configure the scheduler —
/// `setup_reps` times; the last one serves.
fn deploy_local(
    spec: &Spec,
    dense: &Transformer,
    origin: Instant,
    spans: &mut Spans,
) -> Deployment<Transformer> {
    let (mut setup_s, mut quantize_s) = (Vec::new(), Vec::new());
    let mut driver = None;
    for _ in 0..spec.setup_reps {
        drop(driver.take());
        let t0 = origin.elapsed().as_secs_f64();
        let setup = spans.record("setup", (t0, t0), None, None);
        let (packed, q) = quantize(dense, spans, setup, origin);
        let mut d = Driver::new(packed, spec.max_batch, spec.mix.prompt_len(), origin);
        configure(spec, &mut d);
        let t1 = origin.elapsed().as_secs_f64();
        spans.close(setup, t1);
        setup_s.push(t1 - t0);
        quantize_s.push(q);
        driver = Some(d);
    }
    let driver = driver.expect("at least one set-up");
    Deployment { driver, packed: None, setup_s, quantize_s, connect_s: Vec::new() }
}

/// Set-up across worker processes: quantize, connect to every shard's
/// worker and ship its slices (LOAD), build the scheduler.
fn deploy_remote(
    spec: &Spec,
    dense: &Transformer,
    addrs: &[String],
    origin: Instant,
    spans: &mut Spans,
) -> Result<Deployment<RemoteShardedModel>, String> {
    let replica_addrs: Vec<Vec<String>> = addrs.iter().map(|a| vec![a.clone()]).collect();
    let (mut setup_s, mut quantize_s, mut connect_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..spec.setup_reps {
        // A worker serves one coordinator at a time: drop the previous
        // connection before opening the next.
        drop(last.take());
        let t0 = origin.elapsed().as_secs_f64();
        let setup = spans.record("setup", (t0, t0), None, None);
        let (packed, q) = quantize(dense, spans, setup, origin);
        let tc = origin.elapsed().as_secs_f64();
        let remote = RemoteShardedModel::connect(&packed, &replica_addrs)
            .map_err(|e| format!("connect to workers: {e}"))?;
        let tl = origin.elapsed().as_secs_f64();
        spans.record("remote.connect", (tc, tl), setup, None);
        let mut d = Driver::new(remote, spec.max_batch, spec.mix.prompt_len(), origin);
        configure(spec, &mut d);
        let t1 = origin.elapsed().as_secs_f64();
        spans.close(setup, t1);
        setup_s.push(t1 - t0);
        quantize_s.push(q);
        connect_s.push(tl - tc);
        last = Some((d, packed));
    }
    let (driver, packed) = last.expect("at least one set-up");
    Ok(Deployment { driver, packed: Some(packed), setup_s, quantize_s, connect_s })
}

fn configure<M: ServeModel>(spec: &Spec, d: &mut Driver<M>) {
    if let Some(pages) = spec.page_budget {
        d.sched.set_page_budget(pages).expect("the page budget holds every workload request");
    }
    d.sched.enable_prefix_sharing(spec.prefix_sharing);
}

fn run(spec: &Spec, args: &Args) -> Result<RunResult, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let origin = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} kernel_threads {KERNEL_THREADS}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    // Input generation: not part of set-up.
    let dense = inputs::dense_model(spec.shape, args.seed);
    println!("inputs built in {:.2} s", origin.elapsed().as_secs_f64());
    let mut spans = Spans::new(args.trace);
    if spec.shards == 0 {
        let dep = deploy_local(spec, &dense, origin, &mut spans);
        if args.trace {
            KernelProfiler::reset();
            KernelProfiler::enable(1);
        }
        let result = serve_and_check(spec, args, &dense, dep, spans);
        KernelProfiler::disable();
        result
    } else {
        let (workers, addrs) = workers::Workers::spawn(spec.shards, OUT_DIR)?;
        let dep = deploy_remote(spec, &dense, &addrs, origin, &mut spans)?;
        // On success the coordinator has sent SHUTDOWN and `finish` fails
        // the run if a worker does not exit; on an error `workers` drops,
        // killing and reaping them.
        let result = serve_and_check(spec, args, &dense, dep, spans)?;
        workers.finish()?;
        Ok(result)
    }
}

/// What differs between the in-process and the distributed engine.
trait Engine: ServeModel {
    fn remote(&self) -> Option<&RemoteShardedModel> {
        None
    }

    /// The served model, when its kernels run in this process.
    fn local(&self) -> Option<&Transformer> {
        None
    }
}

impl Engine for Transformer {
    fn local(&self) -> Option<&Transformer> {
        Some(self)
    }
}

impl Engine for RemoteShardedModel {
    fn remote(&self) -> Option<&RemoteShardedModel> {
        Some(self)
    }
}

/// Cumulative µs of every profiled packed-kernel call so far.
fn kernel_us() -> f64 {
    KernelProfiler::snapshot().histograms.values().map(|h| h.sum as f64).sum()
}

/// The coordinator's per-site gather latency histograms.
fn gather_histograms(registry: &MetricsRegistry) -> Vec<Arc<Histogram>> {
    WeightSite::ALL
        .iter()
        .map(|s| registry.histogram(&format!("fineq_gather_us_{}", s.metric_label())))
        .collect()
}

fn serve_and_check<M: Engine>(
    spec: &Spec,
    args: &Args,
    dense: &Transformer,
    dep: Deployment<M>,
    spans: Spans,
) -> Result<RunResult, String> {
    let Deployment { mut driver, packed, setup_s, quantize_s, connect_s } = dep;
    let d = &mut driver;
    d.spans = spans;
    let registry = args.trace.then(|| {
        let registry = observe(&mut d.sched);
        // Distributed kernels run in the workers, and pipelined gathers
        // overlap, so only the in-process engine splits out GEMM time.
        if d.sched.model().inner().local().is_some() {
            d.set_gemm_clock(kernel_us);
        }
        registry
    });
    let stream = RequestStream::new(spec.mix, spec.shape.vocab, args.seed);
    let allocs0 = trace::allocations();
    let begin = d.now();
    let end = begin + args.seconds;
    match spec.load {
        Load::Closed { clients } => closed_loop(d, &stream, clients, end),
        Load::Open { rate } => {
            let mut rng = SplitMix::new(args.seed ^ 0x4152_5249_5645);
            let arrivals: Vec<f64> = poisson_arrivals(rate, args.seconds, &mut rng)
                .into_iter()
                .map(|t| begin + t)
                .collect();
            open_loop(d, &stream, &arrivals);
        }
    }
    let allocs = trace::allocations() - allocs0;
    let checks_began = d.now();
    println!("served {} requests in {:.2} s", d.records.len(), checks_began - begin);

    // ---- output checks ----
    let mut problems = Vec::new();
    let vocab = spec.shape.vocab;
    for r in &d.records {
        let want = r.req.max_new_tokens;
        match &r.generated {
            None => problems.push(format!("request {} never finished", r.req.id)),
            Some(g) if g.len() != want || g.iter().any(|&t| t >= vocab) => problems.push(format!(
                "request {}: {} tokens (want {want} in-vocabulary tokens)",
                r.req.id,
                g.len()
            )),
            Some(_) if r.tokens.len() != want => problems.push(format!(
                "request {}: observed {} token steps, want {want}",
                r.req.id,
                r.tokens.len()
            )),
            Some(_) => {}
        }
    }
    let model: &Transformer = packed
        .as_ref()
        .or_else(|| d.sched.model().inner().local())
        .expect("a deployment keeps its packed model");
    let mut rng = SplitMix::new(args.seed ^ 0x5245_504c_4159);
    for _ in 0..spec.replays {
        let r = &d.records[rng.below(d.records.len())];
        let alone = model.generate(
            &r.req.prompt,
            r.req.max_new_tokens,
            r.req.temperature,
            &mut Rng::seed_from(r.req.seed),
        );
        if r.generated.as_ref() != Some(&alone) {
            problems.push(format!("request {} differs when replayed alone", r.req.id));
        }
    }
    let body_bytes = check::check_packed_sites(model)?;
    if body_bytes != model.body_weight_bytes() {
        problems.push(format!(
            "body bytes {} differ from the format's {body_bytes}",
            model.body_weight_bytes()
        ));
    }
    if spec.logit_positions > 0 {
        let r = &d.records[0];
        let mut tokens = r.req.prompt.clone();
        tokens.extend(r.generated.iter().flatten());
        tokens.truncate(spec.logit_positions);
        match check::check_logits(model, &tokens) {
            Ok(worst) => println!(
                "logits at {} positions within {:.3} of the tolerance",
                tokens.len(),
                worst
            ),
            Err(e) => problems.push(e),
        }
    }
    let times: Vec<OpenLoopTimes> = d.records.iter().filter_map(|r| r.times()).collect();
    let ttft: Vec<f64> = times.iter().map(|t| t.ttft() * 1e3).collect();
    let itl: Vec<f64> = d
        .records
        .iter()
        .flat_map(|r| stats::inter_token_gaps(&r.tokens))
        .map(|g| g * 1e3)
        .collect();
    if let Some(reg) = &registry {
        let snap = reg.snapshot();
        let count = |name: &str| snap.histograms.get(name).map_or(0, |h| h.count) as usize;
        if count("fineq_ttft_us") != ttft.len() || count("fineq_inter_token_us") != itl.len() {
            problems.push(format!(
                "scheduler recorded {} TTFT / {} inter-token samples, observed {} / {}",
                count("fineq_ttft_us"),
                count("fineq_inter_token_us"),
                ttft.len(),
                itl.len()
            ));
        }
    }
    println!("output checks took {:.2} s", d.now() - checks_began);
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }

    // ---- end-to-end metrics ----
    let latency: Vec<f64> = times.iter().map(|t| t.latency() * 1e3).collect();
    // Tokens up to the end of the measured phase, over the time to the
    // last of them.
    let in_window: Vec<f64> =
        d.records.iter().flat_map(|r| r.tokens.iter().copied().filter(|&t| t <= end)).collect();
    let last_in_window = in_window.iter().copied().fold(begin, f64::max);
    let generated: usize = d.records.iter().map(|r| r.tokens.len()).sum();
    for (name, v) in [("ttft_ms", &ttft), ("itl_ms", &itl), ("req_latency_ms", &latency)] {
        if let Some(s) = Summary::of(v) {
            println!("{}", s.line(name));
        }
    }
    let need = |v: &[f64], what: &str| -> Result<(), String> {
        if v.is_empty() {
            Err(format!("no {what} samples: the run is too short"))
        } else {
            Ok(())
        }
    };
    need(&ttft, "TTFT")?;
    need(&itl, "inter-token")?;
    let e2e = vec![
        ("setup_s", median(&setup_s), "s"),
        ("gen_tok_s", in_window.len() as f64 / (last_in_window - begin), "tok/s"),
        ("ttft_p50_ms", median(&ttft), "ms"),
        ("itl_p50_ms", median(&itl), "ms"),
        ("itl_p90_ms", percentile(&itl, 90.0), "ms"),
        ("req_latency_p50_ms", median(&latency), "ms"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("weight_mb", model.weight_footprint_bytes() as f64 / 1e6, "MB"),
    ];
    for (name, v, unit) in &e2e {
        println!("{name} = {v:.4} {unit}");
    }

    // ---- per-layer metrics (traced runs) ----
    let metrics = match &registry {
        None => e2e,
        Some(reg) => {
            let lag: Vec<f64> = times.iter().map(|t| t.lag() * 1e3).collect();
            let queue: Vec<f64> = d
                .records
                .iter()
                .filter_map(|r| r.admitted.map(|a| (a - r.submitted) * 1e3))
                .collect();
            let mut spans = std::mem::take(&mut d.spans);
            let mut layers = per_layer(d, &mut spans, model, dense, reg, &queue, &lag);
            layers.extend([
                ("pipeline.quantize_s", median(&quantize_s), "s"),
                (
                    "remote.connect_s",
                    if connect_s.is_empty() { 0.0 } else { median(&connect_s) },
                    "s",
                ),
                ("alloc.per_token", allocs as f64 / generated.max(1) as f64, "count"),
            ]);
            d.record_request_spans(&mut spans);
            let path = std::path::PathBuf::from(format!(
                "{OUT_DIR}/spans-{}-{}.jsonl",
                spec.name, args.seed
            ));
            spans.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("wrote {} spans to {}", spans.len(), path.display());
            layers
        }
    };
    if let Some(remote) = d.sched.model().inner().remote() {
        remote.shutdown_workers();
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: d.records.len(),
        failed: d.failed,
        metrics,
    })
}

/// Frame header bytes, and the fixed GATHER / PARTIAL payload prefixes
/// (nonce, site id, shape) of protocol v2.
const FRAME_HEADER: usize = 13;
const GATHER_PREFIX: usize = 20;
const PARTIAL_PREFIX: usize = 24;

/// Wire bytes of one distributed step at batch `t`, from frame sizes:
/// every site sends each shard the batch's activations (`t x cols` f32)
/// and receives the shard's rows of the output (`t x rows` f32).
fn wire_bytes_per_step(remote: &RemoteShardedModel, t: usize) -> usize {
    let plan = remote.plan();
    let mut bytes = 0;
    for site in plan.sites() {
        for shard in 0..plan.n_shards() {
            let (start, end) = site.range(shard);
            if start < end {
                bytes += FRAME_HEADER + GATHER_PREFIX + 4 * t * site.cols;
                bytes += FRAME_HEADER + PARTIAL_PREFIX + 4 * t * (end - start);
            }
        }
    }
    bytes
}

/// Mean of a histogram in ms (`sum / count`, not its 2x buckets).
fn mean_ms(sum_us: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_us as f64 / count as f64 / 1e3
    }
}

/// The per-layer metrics of a traced run. A metric of a layer the
/// workload does not exercise reads 0.
fn per_layer<M: Engine>(
    d: &Driver<M>,
    spans: &mut Spans,
    model: &Transformer,
    dense: &Transformer,
    registry: &MetricsRegistry,
    queue_ms: &[f64],
    lag_ms: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let st = &d.steps;
    let n_steps = st.step_ms.len().max(1) as f64;
    let self_ms: Vec<f64> = st.step_ms.iter().zip(&st.model_ms).map(|(s, m)| s - m).collect();
    let non_gemm: Vec<f64> = match d.sched.model().inner().local() {
        Some(_) => st.model_ms.iter().zip(&st.gemm_ms).map(|(m, g)| m - g).collect(),
        None => Vec::new(),
    };
    let p = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { percentile(v, q) };
    let stats = d.sched.stats();
    let page_mb = d.sched.cache().page_fp16_bytes() as f64 / 1e6;
    let mut out = vec![
        ("serving.step_ms_p50", p(&st.step_ms, 50.0), "ms"),
        ("serving.step_ms_p90", p(&st.step_ms, 90.0), "ms"),
        ("serving.self_ms_p50", p(&self_ms, 50.0), "ms"),
        ("serving.batch_mean", st.batch.iter().sum::<usize>() as f64 / n_steps, "seqs"),
        ("serving.steps", st.step_ms.len() as f64, "count"),
        ("serving.queue_wait_ms_p50", p(queue_ms, 50.0), "ms"),
        ("serving.preemptions", d.sched.preemptions() as f64, "count"),
        ("serving.shared_prefix_tokens", stats.shared_prefix_tokens as f64, "count"),
        ("model.step_ms_p50", p(&st.model_ms, 50.0), "ms"),
        ("model.non_gemm_ms_p50", p(&non_gemm, 50.0), "ms"),
        ("kv.pages_peak", d.pages_peak as f64, "count"),
        ("kv.cow_copies", stats.cow_copies as f64, "count"),
        ("kv.peak_mb", d.pages_peak as f64 * page_mb, "MB"),
        ("loadgen.lag_ms_p50", p(lag_ms, 50.0), "ms"),
        ("loadgen.lag_ms_max", p(lag_ms, 100.0), "ms"),
    ];

    // Kernels: the profiler's per-site sums (every call sampled).
    let kernels = KernelProfiler::snapshot();
    let (mut weights, mut kernel_us, mut packed_bytes) = (0.0, 0.0, 0.0);
    for (name, site) in [
        ("kernels.attn_q.us_per_call", WeightSite::AttnQ),
        ("kernels.attn_k.us_per_call", WeightSite::AttnK),
        ("kernels.attn_v.us_per_call", WeightSite::AttnV),
        ("kernels.attn_o.us_per_call", WeightSite::AttnO),
        ("kernels.ffn_up.us_per_call", WeightSite::FfnUp),
        ("kernels.ffn_down.us_per_call", WeightSite::FfnDown),
    ] {
        let label = site.metric_label();
        let h = kernels.histograms.get(&format!("fineq_kernel_{label}_decode_us"));
        let (sum, count) = h.map_or((0, 0), |h| (h.sum, h.count));
        out.push((name, mean_ms(sum, count) * 1e3, "us"));
        let w = model.weight(0, site);
        weights += (count * (w.rows() * w.cols()) as u64) as f64;
        kernel_us += sum as f64;
        packed_bytes += kernels
            .counters
            .get(&format!("fineq_kernel_{label}_packed_bytes_total"))
            .copied()
            .unwrap_or(0) as f64;
    }
    let gweights = if kernel_us > 0.0 { weights / kernel_us / 1e3 } else { 0.0 };
    out.push(("kernels.gweights_s", gweights, "Gweights/s"));
    out.push(("kernels.packed_mb_per_step", packed_bytes / n_steps / 1e6, "MB"));

    // The quantizer core, timed per site outside the pipeline.
    let (mut q_weights, mut q_s) = (0usize, 0.0f64);
    let quantizer = FineQuantizer::paper();
    for layer in 0..dense.n_layers() {
        for site in WeightSite::ALL {
            let w = dense.weight(layer, site).dense();
            let t0 = d.now();
            std::hint::black_box(quantizer.quantize_packed(w));
            let t1 = d.now();
            spans.record("core.quantize_packed", (t0, t1), None, None);
            q_weights += w.len();
            q_s += t1 - t0;
        }
    }
    out.push(("core.quantize_mweights_s", q_weights as f64 / q_s / 1e6, "Mweights/s"));

    // The transport: coordinator gathers, worker compute, frame bytes.
    let mut remote_metrics = [0.0; 6];
    if let Some(remote) = d.sched.model().inner().remote() {
        remote.scrape_worker_stats();
        let (mut sum, mut count) = (0, 0);
        for h in gather_histograms(registry) {
            sum += h.sum();
            count += h.count();
        }
        let cluster = registry.cluster_snapshot();
        let worker = cluster.histograms.get("fineq_worker_gather_us");
        let gather_ms = mean_ms(sum, count);
        let worker_ms = worker.map_or(0.0, |h| mean_ms(h.sum, h.count));
        let wire: usize = d.steps.batch.iter().map(|&t| wire_bytes_per_step(remote, t)).sum();
        remote_metrics = [
            gather_ms,
            worker_ms,
            gather_ms - worker_ms,
            count as f64 / n_steps,
            wire as f64 / n_steps / 1024.0,
            remote.transport_health().retry_attempts as f64,
        ];
    }
    let names = [
        ("remote.gather_ms_mean", "ms"),
        ("remote.worker_ms_mean", "ms"),
        ("remote.wire_ms_mean", "ms"),
        ("remote.gathers_per_step", "count"),
        ("remote.wire_kb_per_step", "KB"),
        ("remote.retry_attempts", "count"),
    ];
    out.extend(names.iter().zip(remote_metrics).map(|(&(n, u), v)| (n, v, u)));
    out
}
