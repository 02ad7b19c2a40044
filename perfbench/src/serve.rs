//! Drives a `Scheduler` from outside and timestamps every token.
//!
//! `Scheduler` hands tokens out only when a request finishes, so the
//! benchmark serves an [`Observed`] model: it delegates every
//! `ServeModel` method and, after each batched forward, reads each
//! stepped slot's cached tokens (`BatchKvCache::slot_tokens`) to learn
//! which request the slot holds and whether the step sampled a new token
//! for it. The driver stamps those tokens when `Scheduler::step` returns,
//! the moment a caller could see them.

use crate::inputs::RequestStream;
use crate::stats::OpenLoopTimes;
use crate::trace::Spans;
use fineq::core::KernelScratch;
use fineq::lm::remote::TransportHealth;
use fineq::lm::{
    BatchKvCache, MetricsRegistry, ModelConfig, Scheduler, ServeModel, ServeRequest, StepError,
    ThreadPool,
};
use fineq::tensor::Matrix;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cumulative time (µs) spent in the layer below the model step: packed
/// GEMM kernels in process, site gathers over the wire when distributed.
pub type GemmClock = fn() -> f64;

/// What the observed model learned during the last forward.
struct Probe {
    origin: Instant,
    prompt_len: usize,
    /// Prompt → request id. Every prompt of a run is distinct.
    index: HashMap<Vec<usize>, usize>,
    /// Tokens seen so far per request id.
    produced: Vec<usize>,
    /// Requests that received a token in the last forward.
    new_tokens: Vec<usize>,
    /// The last forward's interval and GEMM time (seconds).
    forward: (f64, f64),
    gemm: f64,
    gemm_clock: Option<GemmClock>,
}

impl Probe {
    fn after_forward(&mut self, slots: &[usize], cache: &BatchKvCache) {
        for &slot in slots {
            let tokens = cache.slot_tokens(slot);
            if tokens.len() < self.prompt_len {
                continue;
            }
            let id = *self
                .index
                .get(&tokens[..self.prompt_len])
                .expect("every cached prompt belongs to a submitted request");
            // A slot holding the whole prompt plus g generated tokens has
            // just sampled token g + 1. Replays after preemption re-feed
            // tokens already seen and produce nothing new.
            let nth = tokens.len() - self.prompt_len + 1;
            if nth > self.produced[id] {
                debug_assert_eq!(nth, self.produced[id] + 1);
                self.produced[id] = nth;
                self.new_tokens.push(id);
            }
        }
    }
}

/// A served model whose batched steps the benchmark observes.
pub struct Observed<M> {
    inner: M,
    probe: Rc<RefCell<Probe>>,
}

impl<M> Observed<M> {
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: ServeModel> ServeModel for Observed<M> {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Matrix {
        self.try_forward_step_batch_with(tokens, slots, cache, scratch)
            .expect("in-process forward cannot fail")
    }

    fn try_forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Result<Matrix, StepError> {
        let (origin, g0) = {
            let p = self.probe.borrow();
            (p.origin, p.gemm_clock.as_ref().map_or(0.0, |c| c()))
        };
        let t0 = origin.elapsed().as_secs_f64();
        let out = self.inner.try_forward_step_batch_with(tokens, slots, cache, scratch);
        let t1 = origin.elapsed().as_secs_f64();
        let mut p = self.probe.borrow_mut();
        p.forward = (t0, t1);
        p.gemm = p.gemm_clock.as_ref().map_or(0.0, |c| (c() - g0) / 1e6);
        if out.is_ok() {
            p.after_forward(slots, cache);
        }
        out
    }

    fn transport_health(&self) -> Option<TransportHealth> {
        self.inner.transport_health()
    }

    fn install_telemetry(&self, registry: &Arc<MetricsRegistry>) {
        self.inner.install_telemetry(registry);
    }

    fn thread_pool(&self) -> Option<&Arc<ThreadPool>> {
        self.inner.thread_pool()
    }
}

/// One request's life, in seconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Record {
    pub req: ServeRequest,
    /// Due time (open loop) or submit time (closed loop): latencies
    /// count from here.
    pub start: f64,
    pub submitted: f64,
    pub admitted: Option<f64>,
    pub tokens: Vec<f64>,
    pub generated: Option<Vec<usize>>,
}

impl Record {
    /// The request's timeline, once it has produced a token; in a closed
    /// loop the due time is the submit time.
    pub fn times(&self) -> Option<OpenLoopTimes> {
        Some(OpenLoopTimes {
            due: self.start,
            submitted: self.submitted,
            first_token: *self.tokens.first()?,
            last_token: *self.tokens.last()?,
        })
    }
}

/// Per-step measurements, one entry per batched step.
#[derive(Debug, Default)]
pub struct Steps {
    pub step_ms: Vec<f64>,
    pub model_ms: Vec<f64>,
    pub gemm_ms: Vec<f64>,
    pub batch: Vec<usize>,
}

/// A scheduler over an observed model plus everything seen from outside.
pub struct Driver<M> {
    pub sched: Scheduler<Observed<M>>,
    probe: Rc<RefCell<Probe>>,
    pub records: Vec<Record>,
    admitted: usize,
    pub steps: Steps,
    pub pages_peak: usize,
    pub failed: usize,
    pub spans: Spans,
}

impl<M: ServeModel> Driver<M> {
    /// Wraps `model` in a scheduler with `max_batch` slots; `origin` is
    /// time zero of every recorded time.
    pub fn new(model: M, max_batch: usize, prompt_len: usize, origin: Instant) -> Self {
        let probe = Rc::new(RefCell::new(Probe {
            origin,
            prompt_len,
            index: HashMap::new(),
            produced: Vec::new(),
            new_tokens: Vec::new(),
            forward: (0.0, 0.0),
            gemm: 0.0,
            gemm_clock: None,
        }));
        let model = Observed { inner: model, probe: Rc::clone(&probe) };
        Driver {
            sched: Scheduler::new(model, max_batch),
            probe,
            records: Vec::new(),
            admitted: 0,
            steps: Steps::default(),
            pages_peak: 0,
            failed: 0,
            spans: Spans::default(),
        }
    }

    /// Installs the reader of cumulative GEMM time (traced runs).
    pub fn set_gemm_clock(&mut self, clock: GemmClock) {
        self.probe.borrow_mut().gemm_clock = Some(clock);
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.probe.borrow().origin.elapsed().as_secs_f64()
    }

    /// Submits `req`, whose id must be the number of requests submitted
    /// before it; latencies will count from `start`.
    pub fn submit(&mut self, req: ServeRequest, start: f64) {
        let id = req.id as usize;
        assert_eq!(id, self.records.len(), "request ids are dense and in order");
        {
            let mut p = self.probe.borrow_mut();
            assert_eq!(req.prompt.len(), p.prompt_len, "one prompt length per workload");
            let fresh = p.index.insert(req.prompt.clone(), id).is_none();
            assert!(fresh, "prompts of one run are distinct");
            p.produced.push(0);
        }
        let submitted = self.now();
        self.sched.submit(req.clone()).expect("no admission budget rejects a workload request");
        self.records.push(Record {
            req,
            start,
            submitted,
            admitted: None,
            tokens: Vec::new(),
            generated: None,
        });
    }

    /// One batched step. Returns the ids of requests that finished.
    pub fn step(&mut self) -> Vec<usize> {
        let t0 = self.now();
        let stepped = self.sched.step();
        let t1 = self.now();
        if stepped == 0 {
            return Vec::new();
        }
        let (forward, gemm, new_tokens) = {
            let mut p = self.probe.borrow_mut();
            (p.forward, p.gemm, std::mem::take(&mut p.new_tokens))
        };
        self.steps.step_ms.push((t1 - t0) * 1e3);
        self.steps.model_ms.push((forward.1 - forward.0) * 1e3);
        self.steps.gemm_ms.push(gemm * 1e3);
        self.steps.batch.push(stepped);
        let step_span = self.spans.record("serving.step", (t0, t1), None, None);
        self.spans.record("model.forward_step_batch", forward, step_span, None);
        // The queue is FIFO: everything submitted and no longer queued
        // was admitted by this step at the latest.
        let admitted_through = self.records.len() - self.sched.queued();
        for r in &mut self.records[self.admitted..admitted_through] {
            r.admitted = Some(t0);
        }
        self.admitted = admitted_through;
        for id in new_tokens {
            self.records[id].tokens.push(t1);
        }
        self.pages_peak = self.pages_peak.max(self.sched.cache().allocated_pages());
        self.failed += self.sched.take_failed().len();
        self.sched
            .take_finished()
            .into_iter()
            .map(|f| {
                let id = f.id as usize;
                self.records[id].generated = Some(f.generated);
                id
            })
            .collect()
    }

    /// Whether nothing is queued or in flight.
    pub fn idle(&self) -> bool {
        self.sched.is_idle()
    }

    /// Records each finished request's span and its queue-wait child.
    pub fn record_request_spans(&self, spans: &mut Spans) {
        for r in &self.records {
            let (Some(&last), Some(admitted)) = (r.tokens.last(), r.admitted) else {
                continue;
            };
            let span = spans.record("request", (r.start, last), None, Some(r.req.id));
            spans.record("serving.queue_wait", (r.start, admitted), span, Some(r.req.id));
        }
    }
}

/// A closed loop: `clients` callers each submit their next request when
/// the previous one completes, until `seconds` have passed; in-flight
/// requests then run to completion.
pub fn closed_loop<M: ServeModel>(
    d: &mut Driver<M>,
    stream: &RequestStream,
    clients: usize,
    seconds: f64,
) {
    let mut busy = 0;
    loop {
        let now = d.now();
        while now < seconds && busy < clients {
            d.submit(stream.request(d.records.len()), now);
            busy += 1;
        }
        if d.idle() {
            return;
        }
        busy -= d.step().len();
    }
}

/// An open loop: request `k` is due at `arrivals[k]`, submitted as soon
/// as the generator gets to it (after the step in progress), and timed
/// from its due time.
pub fn open_loop<M: ServeModel>(d: &mut Driver<M>, stream: &RequestStream, arrivals: &[f64]) {
    loop {
        let now = d.now();
        while let Some(&due) = arrivals.get(d.records.len()).filter(|&&due| due <= now) {
            d.submit(stream.request(d.records.len()), due);
        }
        if d.idle() {
            match arrivals.get(d.records.len()) {
                Some(&due) => std::thread::sleep(Duration::from_secs_f64((due - now).max(0.0))),
                None => return,
            }
            continue;
        }
        d.step();
    }
}
