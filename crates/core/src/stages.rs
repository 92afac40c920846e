//! The request lifecycle around the orderer — intake, batch cutting and
//! delivery — and the compartmentalized pipeline stages that can host it.
//!
//! One implementation serves both deployments:
//!
//! * `Intake` — the bucket queues of a replica (or of one batcher's share
//!   of its buckets): admits validated client requests, records commits,
//!   resurrects undelivered requests and cuts size-capped batches from the
//!   led buckets (Algorithm 2);
//! * `Delivery` — delivers one committed request: end-to-end span, sink
//!   notification and, when enabled, the client response.
//!
//! A monolithic [`crate::IssNode`] calls both in-process. A
//! compartmentalized deployment splits them off into first-class simnet
//! processes co-located with the orderer, each with its own CPU budget:
//!
//! * [`BatcherProcess`] — intake for the buckets `b` with
//!   [`batcher_for`]`(b) == index`, cutting on the node's proposal cadence
//!   and handing batches to the orderer as [`StageMsg::BatchReady`];
//! * [`ExecutorProcess`] — delivery of the committed `(request, seq-nr)`
//!   pairs fanned out to it by `request_seq_nr mod E`.
//!
//! Work distribution is a deterministic bucket hash on the batcher side and a
//! deterministic seq-nr hash on the executor side, so a run is
//! bit-reproducible for a fixed stage count. Client requests are delivered
//! *to the batcher*, so their per-request verification cost lands on the
//! batcher's CPU rather than the orderer's. That relocation is the lever that
//! moves the saturation plateau (see `docs/architecture.md` for the modelled
//! curve).
//!
//! The request-id → bucket → batcher mapping is stable across epochs, so all
//! state about one request (queued copy, delivered mark) lives at exactly one
//! batcher and the [`StageMsg::Committed`] / [`StageMsg::Resurrect`] fan-outs
//! from the orderer always reach the stage that holds it.

use crate::buckets::BucketQueues;
use crate::log::DeliveredRequest;
use crate::node::{telemetry_batch_key, telemetry_request_key, DeliverySink, NodeOptions};
use crate::validation::{EpochBuckets, RequestValidation};
use iss_crypto::SignatureRegistry;
use iss_messages::{ClientMsg, NetMsg, StageMsg};
use iss_runtime::process::{Addr, Context, Process, StageRole};
use iss_telemetry::{Recorder, TelemetryHandle};
use iss_types::{
    Batch, BucketId, Duration, Error, IssConfig, NodeId, Request, RequestId, Time, TimerId,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Timer kind of the batcher's periodic cut tick.
const KIND_CUT: u64 = 1;

/// The batcher stage owning `bucket` among `num_batchers` stages on an
/// `num_nodes`-replica deployment.
///
/// A plain `bucket % num_batchers` would correlate with the bucket → leader
/// assignment (a node's led buckets form one residue class mod `n`):
/// whenever `gcd(B, n) > 1`, every bucket a node leads falls into the same
/// batcher and a single stage ends up doing all of the node's intake.
/// Round-robin on the *quotient* `bucket / n` instead walks each residue
/// class `{c, c+n, c+2n, …}` through the batchers in turn, so every node's
/// led set splits evenly (±1) across its stages. Clients, the orderer's
/// commit/resurrect fan-out and the batcher's ownership check all route
/// through this one function, so the mapping can never drift apart.
pub fn batcher_for(bucket: BucketId, num_nodes: usize, num_batchers: u32) -> u32 {
    ((bucket.index() / num_nodes.max(1)) % num_batchers as usize) as u32
}

/// Live counters of one pipeline stage (or of the orderer's ready-batch
/// queue), shared with the deployment for the per-stage `Report` columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCounters {
    /// Handoff messages this stage produced (batcher: batches cut) or
    /// consumed (executor: `Execute` messages; orderer: ready batches).
    pub handoffs: u64,
    /// Peak backlog observed: queued requests at a batcher, queued ready
    /// batches at the orderer, deliveries per handoff at an executor.
    pub max_queue_depth: usize,
}

/// Shared handle to a stage's counters, held by the stage and the deployment.
pub type StageCountersHandle = Rc<RefCell<StageCounters>>;

/// Creates a fresh counter handle.
pub fn stage_counters() -> StageCountersHandle {
    Rc::new(RefCell::new(StageCounters::default()))
}

/// Records the cut span of a non-empty `batch` and returns its telemetry
/// key (the orderer pairs it with the proposal that carries the batch).
fn record_cut(telemetry: &TelemetryHandle, now: Time, batch: &Batch) -> u64 {
    let key = telemetry_batch_key(batch);
    let requests = batch.requests().iter();
    telemetry.on_cut(now, key, requests.map(|r| telemetry_request_key(&r.id)));
    key
}

/// Request intake: the bucket queues of a replica, or of one batcher stage's
/// share of its buckets. Not a process — its hosts (the monolithic node, a
/// [`BatcherProcess`]) feed it and own the [`RequestValidation`] it consults.
pub(crate) struct Intake {
    queues: BucketQueues,
}

impl Intake {
    /// Empty queues for `num_buckets` buckets.
    pub fn new(num_buckets: usize) -> Self {
        Intake {
            queues: BucketQueues::new(num_buckets),
        }
    }

    /// Number of queued requests.
    pub fn queued(&self) -> usize {
        self.queues.len()
    }

    /// Admits `request` if it passes `validation` (Section 3.7): records its
    /// arrival and queues it in its bucket. An invalid request is handed to
    /// `on_reject` with the reason and dropped.
    pub fn admit(
        &mut self,
        validation: &RequestValidation,
        telemetry: &TelemetryHandle,
        now: Time,
        request: Request,
        on_reject: impl FnOnce(&Request, &Error),
    ) {
        match validation.validate_request(&request) {
            Ok(()) => {
                telemetry.on_arrival(now, telemetry_request_key(&request.id));
                self.queues.add(request);
            }
            Err(e) => on_reject(&request, &e),
        }
    }

    /// Records a committed request: drops its queued copy and marks it
    /// delivered, so re-submissions are rejected and it is never resurrected.
    pub fn commit(&mut self, validation: &mut RequestValidation, id: &RequestId) {
        self.queues.remove(id);
        validation.mark_delivered(id);
    }

    /// Puts a request back at the front of its bucket (an unsuccessful
    /// proposal, Algorithm 2 `resurrectRequests`) unless it was delivered.
    pub fn resurrect(&mut self, validation: &RequestValidation, request: &Request) {
        if !validation.is_delivered(&request.id) {
            self.queues.resurrect(request.clone());
        }
    }

    /// Cuts up to `cap` of the oldest requests queued in `led` (Algorithm 2,
    /// `cutBatch`) once a cut is due: a full batch is queued, or some
    /// requests are and `min_wait` has passed since the last cut
    /// (`since_last`). `None` while no cut is due; a cut is never empty.
    pub fn cut(
        &mut self,
        led: &[BucketId],
        cap: usize,
        since_last: Duration,
        min_wait: Duration,
    ) -> Option<Batch> {
        let available = self.queues.available_in(led);
        let due = available >= cap || (available > 0 && since_last >= min_wait);
        due.then(|| self.queues.cut_batch(led, cap))
    }
}

/// Request delivery: end-to-end span, sink notification and, when enabled,
/// the client response — for the replica `node`, wherever it runs.
pub(crate) struct Delivery {
    node: NodeId,
    respond_to_clients: bool,
    sink: Rc<RefCell<dyn DeliverySink>>,
    /// The replica machine's telemetry: delivery closes the arrival span
    /// recorded at intake.
    telemetry: TelemetryHandle,
}

impl Delivery {
    /// Delivery on behalf of `node`, reporting to `sink`.
    pub fn new(
        node: NodeId,
        respond_to_clients: bool,
        sink: Rc<RefCell<dyn DeliverySink>>,
        telemetry: TelemetryHandle,
    ) -> Self {
        Delivery {
            node,
            respond_to_clients,
            sink,
            telemetry,
        }
    }

    /// Delivers `request` with its global request sequence number.
    pub fn deliver(&self, request: &Request, request_seq_nr: u64, ctx: &mut Context<'_, NetMsg>) {
        let now = ctx.now();
        self.telemetry
            .on_end_to_end(now, telemetry_request_key(&request.id));
        self.sink
            .borrow_mut()
            .on_request_delivered(self.node, request, request_seq_nr, now);
        if self.respond_to_clients {
            ctx.send(
                Addr::Client(request.id.client),
                NetMsg::Client(ClientMsg::Response {
                    request: request.id,
                    seq_nr: request_seq_nr,
                }),
            );
        }
    }
}

/// Where an orderer's intake and delivery run: in-process, or at co-located
/// stage processes reached through [`StageMsg`]s.
pub(crate) enum Stages {
    /// Monolithic node: intake and delivery are called directly.
    Local { intake: Intake, delivery: Delivery },
    /// Compartmentalized pipeline.
    Remote(RemoteStages),
}

/// The orderer's side of the compartmentalized pipeline.
pub(crate) struct RemoteStages {
    node: NodeId,
    num_nodes: usize,
    num_buckets: usize,
    batchers: u32,
    executors: u32,
    /// Batches cut by the batcher stages, waiting for a free slot in this
    /// node's segment.
    ready: VecDeque<Batch>,
    /// Peak ready-queue backlog (the orderer's queue-depth column).
    counters: Option<StageCountersHandle>,
}

impl Stages {
    /// The stages of replica `node`: remote iff `opts.pipeline` is set.
    pub(crate) fn new(
        node: NodeId,
        opts: &NodeOptions,
        sink: Rc<RefCell<dyn DeliverySink>>,
    ) -> Self {
        let config = &opts.config;
        match &opts.pipeline {
            None => Stages::Local {
                intake: Intake::new(config.num_buckets()),
                delivery: Delivery::new(
                    node,
                    opts.respond_to_clients,
                    sink,
                    opts.telemetry.clone(),
                ),
            },
            Some(p) => Stages::Remote(RemoteStages {
                node,
                num_nodes: config.num_nodes,
                num_buckets: config.num_buckets(),
                batchers: p.batchers.max(1),
                executors: p.executors.max(1),
                ready: VecDeque::new(),
                counters: p.counters.clone(),
            }),
        }
    }

    /// Requests queued at the orderer itself (none when batchers hold them).
    pub(crate) fn queued(&self) -> usize {
        match self {
            Stages::Local { intake, .. } => intake.queued(),
            Stages::Remote(_) => 0,
        }
    }

    /// A client request reached the orderer: admitted into the local intake.
    /// A pipelined orderer queues nothing — its clients address the batcher
    /// stages directly.
    pub(crate) fn admit(
        &mut self,
        validation: &RequestValidation,
        telemetry: &TelemetryHandle,
        request: Request,
        ctx: &mut Context<'_, NetMsg>,
        on_reject: impl FnOnce(&Request, &Error),
    ) {
        if let Stages::Local { intake, .. } = self {
            intake.admit(validation, telemetry, ctx.now(), request, on_reject);
        }
    }

    /// Records the requests of a committed batch as delivered — in
    /// `validation` and wherever their queued copies live.
    pub(crate) fn commit(
        &mut self,
        validation: &mut RequestValidation,
        batch: &Batch,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        match self {
            Stages::Local { intake, .. } => {
                for req in batch.requests() {
                    intake.commit(validation, &req.id);
                }
            }
            Stages::Remote(r) => {
                for req in batch.requests() {
                    validation.mark_delivered(&req.id);
                }
                let ids = batch.requests().iter().map(|req| (req.id, req.id));
                r.to_batchers(ids, |requests| StageMsg::Committed { requests }, ctx);
            }
        }
    }

    /// Re-queues the not-yet-delivered `requests` of an unsuccessful
    /// proposal for a future cut.
    pub(crate) fn resurrect(
        &mut self,
        validation: &RequestValidation,
        requests: &[Request],
        ctx: &mut Context<'_, NetMsg>,
    ) {
        match self {
            Stages::Local { intake, .. } => {
                for req in requests {
                    intake.resurrect(validation, req);
                }
            }
            Stages::Remote(r) => r.resurrect(validation, requests, ctx),
        }
    }

    /// Epoch start with this node leading `led` (empty when not leading).
    /// Batches still queued for proposal were cut against the previous
    /// epoch's bucket-leader alignment: their requests go back to the owning
    /// batchers, which then learn the new epoch's led buckets so they cut
    /// only from buckets this orderer may propose.
    pub(crate) fn begin_epoch(
        &mut self,
        epoch: u64,
        led: &[BucketId],
        validation: &RequestValidation,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let Stages::Remote(r) = self else { return };
        let stale = std::mem::take(&mut r.ready);
        for batch in &stale {
            r.resurrect(validation, batch.requests(), ctx);
        }
        for index in 0..r.batchers {
            ctx.send(
                r.addr(StageRole::Batcher, index),
                NetMsg::Stage(StageMsg::EpochLeading {
                    epoch,
                    buckets: led.to_vec(),
                }),
            );
        }
    }

    /// The batch this leader proposes next from its segment's `buckets`, or
    /// `None` while no proposal is due. Locally, a batch is cut once a full
    /// one is queued or `min_batch_timeout` passed with some requests
    /// queued; remotely, the batches the batcher stages cut are merged up to
    /// the size cap. Either way an empty proposal after `max_batch_timeout`
    /// keeps the segment live. Telemetry keys of the cut batches the
    /// proposal carries are appended to `sources` (telemetry on only).
    pub(crate) fn next_batch(
        &mut self,
        buckets: &[BucketId],
        config: &IssConfig,
        since_last: Duration,
        telemetry: &TelemetryHandle,
        now: Time,
        sources: &mut Vec<u64>,
    ) -> Option<Batch> {
        let max_size = config.max_batch_size;
        let max_wait = config.max_batch_timeout;
        let timed_out = max_wait > Duration::ZERO && since_last >= max_wait;
        let telemetry_on = telemetry.is_enabled();
        let batch = match self {
            Stages::Local { intake, .. } => {
                let batch = intake.cut(buckets, max_size, since_last, config.min_batch_timeout);
                if let (Some(b), true) = (&batch, telemetry_on) {
                    // Cut and proposed in the same tick: cut→propose ≈ 0.
                    sources.push(record_cut(telemetry, now, b));
                }
                batch
            }
            // B batchers each cut ~1/B-sized batches on the same cadence, so
            // queued batches are merged — one ready batch per tick would
            // divide throughput by B instead of scaling it.
            Stages::Remote(r) => r.ready.pop_front().map(|first| {
                if telemetry_on {
                    sources.push(telemetry_batch_key(&first));
                }
                let mut requests = first.requests().to_vec();
                while let Some(next) = r.ready.front() {
                    if requests.len() + next.len() > max_size {
                        break;
                    }
                    if telemetry_on {
                        sources.push(telemetry_batch_key(next));
                    }
                    requests.extend_from_slice(next.requests());
                    r.ready.pop_front();
                }
                Batch::new(requests)
            }),
        };
        batch.or_else(|| timed_out.then(Batch::empty))
    }

    /// A batcher stage cut a batch; it waits for the next free proposal slot
    /// (the pacing tick enforces the batch rate).
    pub(crate) fn on_batch_ready(&mut self, batch: Batch, telemetry: &TelemetryHandle) {
        let Stages::Remote(r) = self else { return };
        r.ready.push_back(batch);
        if let Some(c) = &r.counters {
            let mut c = c.borrow_mut();
            c.handoffs += 1;
            c.max_queue_depth = c.max_queue_depth.max(r.ready.len());
        }
        telemetry.gauge_set("orderer.ready_queue", r.ready.len() as u64);
    }

    /// Delivers what the log just made deliverable: in-process, or fanned
    /// out to the executor stages by the deterministic seq-nr hash.
    pub(crate) fn deliver(
        &mut self,
        delivered: Vec<DeliveredRequest>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        match self {
            Stages::Local { delivery, .. } => {
                for d in &delivered {
                    delivery.deliver(&d.request, d.request_seq_nr, ctx);
                }
            }
            Stages::Remote(r) => {
                let e = r.executors as usize;
                let mut per_executor = vec![Vec::new(); e];
                for d in delivered {
                    per_executor[(d.request_seq_nr % e as u64) as usize]
                        .push((d.request, d.request_seq_nr));
                }
                for (index, deliveries) in per_executor.into_iter().enumerate() {
                    if !deliveries.is_empty() {
                        ctx.send(
                            r.addr(StageRole::Executor, index as u32),
                            NetMsg::Stage(StageMsg::Execute { deliveries }),
                        );
                    }
                }
            }
        }
    }
}

impl RemoteStages {
    fn addr(&self, role: StageRole, index: u32) -> Addr {
        Addr::Stage {
            node: self.node,
            role,
            index,
        }
    }

    fn resurrect(
        &self,
        validation: &RequestValidation,
        requests: &[Request],
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let undelivered = requests
            .iter()
            .filter(|req| !validation.is_delivered(&req.id))
            .map(|req| (req.id, req.clone()));
        self.to_batchers(
            undelivered,
            |requests| StageMsg::Resurrect { requests },
            ctx,
        );
    }

    /// Fans `(request id, item)` pairs out to the batchers owning the
    /// requests, one `wrap`ped message per batcher with anything to send.
    fn to_batchers<T>(
        &self,
        items: impl Iterator<Item = (RequestId, T)>,
        wrap: impl Fn(Vec<T>) -> StageMsg,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let mut per_batcher: Vec<Vec<T>> = (0..self.batchers).map(|_| Vec::new()).collect();
        for (id, item) in items {
            let bucket = id.bucket(self.num_buckets);
            per_batcher[batcher_for(bucket, self.num_nodes, self.batchers) as usize].push(item);
        }
        for (index, items) in per_batcher.into_iter().enumerate() {
            if !items.is_empty() {
                ctx.send(
                    self.addr(StageRole::Batcher, index as u32),
                    NetMsg::Stage(wrap(items)),
                );
            }
        }
    }
}

/// The intake stage in front of one orderer: hosts an `Intake` for its
/// share of the buckets and cuts on the orderer's proposal cadence.
pub struct BatcherProcess {
    parent: NodeId,
    index: u32,
    num_batchers: u32,
    config: IssConfig,
    intake: Intake,
    validation: RequestValidation,
    /// Intersection of the parent's currently led buckets with the buckets
    /// this batcher owns (empty while the parent is not leading).
    led: Vec<BucketId>,
    last_cut_at: Time,
    counters: Option<StageCountersHandle>,
    /// The parent machine's telemetry (shared with the orderer, so a cut
    /// recorded here pairs with the orderer's proposal).
    telemetry: TelemetryHandle,
}

impl BatcherProcess {
    /// Creates batcher `index` of `num_batchers` for the replica `parent`.
    pub fn new(
        parent: NodeId,
        index: u32,
        num_batchers: u32,
        config: IssConfig,
        registry: Arc<SignatureRegistry>,
        counters: Option<StageCountersHandle>,
        telemetry: TelemetryHandle,
    ) -> Self {
        assert!(index < num_batchers, "batcher index out of range");
        let validation = RequestValidation::new(
            registry,
            config.client_signatures,
            config.num_buckets(),
            config.client_watermark_window,
            config.max_batch_size,
        );
        BatcherProcess {
            parent,
            index,
            num_batchers,
            intake: Intake::new(config.num_buckets()),
            config,
            validation,
            led: Vec::new(),
            last_cut_at: Time::ZERO,
            counters,
            telemetry,
        }
    }

    /// Whether this batcher owns `bucket` (deterministic bucket hash).
    fn owns(&self, bucket: BucketId) -> bool {
        batcher_for(bucket, self.config.num_nodes, self.num_batchers) == self.index
    }

    /// The cut cadence. The orderer proposes every `leaders / batch_rate`
    /// seconds; compartment deployments are fault-free, so every node leads
    /// and the batcher can derive the same interval from the node count
    /// without tracking the live leaderset.
    fn cut_interval(&self) -> Duration {
        match self.config.batch_rate {
            Some(rate) => Duration::from_secs_f64(self.config.num_nodes as f64 / rate),
            None => Duration::from_millis(100),
        }
    }

    /// Per-cut size cap. The orderer consumes at most `max_batch_size`
    /// requests per proposal tick and all `B` batchers cut on that same
    /// cadence, so each cut is capped at a `1/B` share: the merged proposal
    /// exactly fills and the ready queue never builds a backlog that would be
    /// flushed (and stranded at a no-longer-leading node) at the next epoch
    /// transition.
    fn cut_size(&self) -> usize {
        (self.config.max_batch_size / self.num_batchers.max(1) as usize).max(1)
    }

    fn note_depth(&self) {
        if let Some(c) = &self.counters {
            let mut c = c.borrow_mut();
            c.max_queue_depth = c.max_queue_depth.max(self.intake.queued());
        }
    }
}

impl Process<NetMsg> for BatcherProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.last_cut_at = ctx.now();
        ctx.set_timer(self.cut_interval(), KIND_CUT);
    }

    fn on_message(&mut self, _from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        match msg {
            // This stage pays the per-request verification cost (charged by
            // the runtime on delivery); invalid requests are dropped.
            NetMsg::Client(ClientMsg::Request(req)) => {
                let now = ctx.now();
                self.intake
                    .admit(&self.validation, &self.telemetry, now, req, |_, _| {});
                self.note_depth();
            }
            NetMsg::Stage(StageMsg::Committed { requests }) => {
                for id in &requests {
                    self.intake.commit(&mut self.validation, id);
                }
            }
            NetMsg::Stage(StageMsg::Resurrect { requests }) => {
                for req in &requests {
                    self.intake.resurrect(&self.validation, req);
                }
                self.note_depth();
            }
            NetMsg::Stage(StageMsg::EpochLeading { buckets, .. }) => {
                self.led = buckets.into_iter().filter(|b| self.owns(*b)).collect();
                // Advance the client watermark windows at the epoch boundary
                // the same way the orderer's validation does. The bucket
                // restriction stays empty: batchers never validate proposals.
                self.validation.on_epoch_start(EpochBuckets::default());
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<'_, NetMsg>) {
        if kind != KIND_CUT {
            return;
        }
        // Re-arm first so the tick keeps running across epochs.
        ctx.set_timer(self.cut_interval(), KIND_CUT);
        let now = ctx.now();
        let since_last = now.saturating_since(self.last_cut_at);
        // Empty and timed-out proposals stay the orderer's concern: a
        // batcher never hands over an empty batch.
        let Some(batch) = self.intake.cut(
            &self.led,
            self.cut_size(),
            since_last,
            self.config.min_batch_timeout,
        ) else {
            return;
        };
        self.last_cut_at = now;
        if let Some(c) = &self.counters {
            c.borrow_mut().handoffs += 1;
        }
        if self.telemetry.is_enabled() {
            record_cut(&self.telemetry, now, &batch);
        }
        ctx.send(
            Addr::Node(self.parent),
            NetMsg::Stage(StageMsg::BatchReady { batch }),
        );
    }
}

/// The delivery stage behind one orderer: hosts a `Delivery` for its share
/// of the committed requests.
pub struct ExecutorProcess {
    delivery: Delivery,
    counters: Option<StageCountersHandle>,
}

impl ExecutorProcess {
    /// Creates an executor for the replica `parent`, reporting deliveries to
    /// `sink` under the parent's node id.
    pub fn new(
        parent: NodeId,
        respond_to_clients: bool,
        sink: Rc<RefCell<dyn DeliverySink>>,
        counters: Option<StageCountersHandle>,
        telemetry: TelemetryHandle,
    ) -> Self {
        ExecutorProcess {
            delivery: Delivery::new(parent, respond_to_clients, sink, telemetry),
            counters,
        }
    }
}

impl Process<NetMsg> for ExecutorProcess {
    fn on_start(&mut self, _ctx: &mut Context<'_, NetMsg>) {}

    fn on_message(&mut self, _from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let NetMsg::Stage(StageMsg::Execute { deliveries }) = msg else {
            return;
        };
        if let Some(c) = &self.counters {
            let mut c = c.borrow_mut();
            c.handoffs += 1;
            c.max_queue_depth = c.max_queue_depth.max(deliveries.len());
        }
        for (request, request_seq_nr) in &deliveries {
            self.delivery.deliver(request, *request_seq_nr, ctx);
        }
    }

    fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Context<'_, NetMsg>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_runtime::driver::{Driver, Event, SansIo};
    use iss_runtime::process::Action;
    use iss_types::ClientId;

    /// Small batches, so a handful of requests spans several cuts.
    fn config() -> IssConfig {
        let mut config = IssConfig::pbft(4);
        config.client_signatures = false;
        config.max_batch_size = 16;
        config
    }

    fn validation(config: &IssConfig) -> RequestValidation {
        RequestValidation::new(
            Arc::new(SignatureRegistry::with_processes(4, 4)),
            config.client_signatures,
            config.num_buckets(),
            config.client_watermark_window,
            config.max_batch_size,
        )
    }

    fn batcher(index: u32, num_batchers: u32) -> BatcherProcess {
        BatcherProcess::new(
            NodeId(0),
            index,
            num_batchers,
            config(),
            Arc::new(SignatureRegistry::with_processes(4, 4)),
            Some(stage_counters()),
            TelemetryHandle::disabled(),
        )
    }

    #[test]
    fn bucket_ownership_partitions_across_batchers() {
        let b0 = batcher(0, 3);
        let b1 = batcher(1, 3);
        let b2 = batcher(2, 3);
        for i in 0..64u32 {
            let owners = [&b0, &b1, &b2]
                .iter()
                .filter(|b| b.owns(BucketId(i)))
                .count();
            assert_eq!(owners, 1, "bucket {i} owned by exactly one batcher");
        }
    }

    #[test]
    fn batcher_hash_balances_every_leader_residue_class() {
        // The buckets one node of n leads are those ≡ node (mod n). For every
        // (n, B) with gcd > 1, a plain `bucket % B` would dump all of them on
        // one batcher; the quotient round-robin must split each node's led
        // set evenly (±1) instead.
        for n in [4usize, 8] {
            for b in [2u32, 3] {
                for node in 0..n as u32 {
                    let led: Vec<u32> = (0..64).filter(|i| i % n as u32 == node).collect();
                    let mut per_batcher = vec![0usize; b as usize];
                    for i in led {
                        per_batcher[batcher_for(BucketId(i), n, b) as usize] += 1;
                    }
                    let max = per_batcher.iter().max().unwrap();
                    let min = per_batcher.iter().min().unwrap();
                    assert!(
                        max - min <= 1,
                        "n={n} B={b} node={node}: unbalanced {per_batcher:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cut_interval_matches_the_orderer_proposal_cadence() {
        // pbft(4): 32 batches/s system-wide, 4 leaders → 125 ms per leader.
        let b = batcher(0, 2);
        assert_eq!(b.cut_interval(), Duration::from_millis(125));
    }

    #[test]
    fn committed_and_resurrect_keep_dedup_state_consistent() {
        let config = config();
        let mut v = validation(&config);
        let mut intake = Intake::new(config.num_buckets());
        let req = Request::synthetic(ClientId(1), 1, 100);
        let off = TelemetryHandle::disabled();
        intake.admit(&v, &off, Time::ZERO, req.clone(), |_, e| panic!("{e}"));
        assert_eq!(intake.queued(), 1);
        // Commit drops the queued copy and blocks resurrection afterwards.
        intake.commit(&mut v, &req.id);
        assert!(v.validate_request(&req).is_err());
        intake.resurrect(&v, &req);
        assert_eq!(intake.queued(), 0);
        let mut rejected = false;
        intake.admit(&v, &off, Time::ZERO, req, |_, _| rejected = true);
        assert!(rejected, "a delivered request is rejected at intake");
    }

    /// Records a batcher's re-armed cut tick and the batches it hands over.
    fn absorb(actions: Vec<Action<NetMsg>>, timer: &mut Option<TimerId>, out: &mut Vec<Batch>) {
        for action in actions {
            match action {
                Action::SetTimer { id, .. } => *timer = Some(id),
                Action::Send {
                    msg: NetMsg::Stage(StageMsg::BatchReady { batch }),
                    ..
                } => out.push(batch),
                other => panic!("unexpected batcher action {other:?}"),
            }
        }
    }

    /// One step of the intake lifecycle, applied both in-process and as the
    /// message or timer a [`BatcherProcess`] receives.
    enum Step {
        Admit(Request),
        Commit(RequestId),
        Resurrect(Request),
        Cut,
    }

    #[test]
    fn in_process_intake_and_batcher_process_cut_identical_batches() {
        let config = config();
        let all: Vec<BucketId> = (0..config.num_buckets() as u32).map(BucketId).collect();
        let req = |c: u32, t: u64| Request::synthetic(ClientId(c), t, 64);
        let mut steps: Vec<Step> = (0..40)
            .map(|i| Step::Admit(req(i % 4, (i / 4) as u64)))
            .collect();
        steps.extend([
            Step::Commit(req(1, 0).id),
            Step::Commit(req(2, 3).id),
            Step::Cut,
            // Resurrecting a committed request is a no-op; an uncommitted
            // one goes back to the front of its bucket.
            Step::Commit(req(0, 1).id),
            Step::Resurrect(req(0, 1)),
            Step::Resurrect(req(3, 0)),
            Step::Admit(req(2, 3)),
            Step::Admit(req(0, 10)),
            Step::Cut,
            Step::Cut,
        ]);

        // In-process: the intake the monolithic node hosts.
        let mut v = validation(&config);
        let mut intake = Intake::new(config.num_buckets());
        let off = TelemetryHandle::disabled();
        let mut local = Vec::new();
        // Batcher cuts are spaced by its cut interval, which exceeds the
        // min-batch timeout: every cut with anything queued is due.
        let interval = batcher(0, 1).cut_interval();
        for step in &steps {
            match step {
                Step::Admit(r) => intake.admit(&v, &off, Time::ZERO, r.clone(), |_, _| {}),
                Step::Commit(id) => intake.commit(&mut v, id),
                Step::Resurrect(r) => intake.resurrect(&v, r),
                Step::Cut => local.extend(intake.cut(
                    &all,
                    config.max_batch_size,
                    interval,
                    config.min_batch_timeout,
                )),
            }
        }

        // Hosted: the same steps as messages and cut ticks of one batcher.
        let mut driver = SansIo::new(1);
        driver.mount(
            Addr::Stage {
                node: NodeId(0),
                role: StageRole::Batcher,
                index: 0,
            },
            Box::new(batcher(0, 1)),
        );
        let message = |msg: NetMsg| Event::Message {
            from: Addr::Node(NodeId(0)),
            msg,
        };
        let leading = message(NetMsg::Stage(StageMsg::EpochLeading {
            epoch: 0,
            buckets: all.clone(),
        }));
        let (mut now, mut timer, mut hosted) = (Time::ZERO, None, Vec::new());
        absorb(driver.handle(now, Event::Start), &mut timer, &mut hosted);
        absorb(driver.handle(now, leading), &mut timer, &mut hosted);
        for step in steps {
            let event = match step {
                Step::Admit(r) => message(NetMsg::Client(ClientMsg::Request(r))),
                Step::Commit(id) => {
                    message(NetMsg::Stage(StageMsg::Committed { requests: vec![id] }))
                }
                Step::Resurrect(r) => {
                    message(NetMsg::Stage(StageMsg::Resurrect { requests: vec![r] }))
                }
                Step::Cut => {
                    now += interval;
                    let id = timer.take().expect("cut tick armed");
                    Event::Timer { id, kind: KIND_CUT }
                }
            };
            absorb(driver.handle(now, event), &mut timer, &mut hosted);
        }
        assert_eq!(local.len(), 3, "three cuts with requests queued");
        assert_eq!(local, hosted);
    }
}
