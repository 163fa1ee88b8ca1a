//! Work-conserving micro-batching over the bounded request queue.
//!
//! Every worker shares one [`MicroBatcher`] behind a mutex and pulls from
//! the queue only when it is free: it blocks for the first request, then
//! takes — without waiting — whatever else is already queued, up to
//! `max_batch`. A lone request therefore runs the moment a worker is idle,
//! and requests accumulate only while every worker is busy, so batch size
//! tracks load with no timer. The one knob is `QSNC_SERVE_MAX_BATCH`.
//! Because workers pull only when free, overload leaves requests in the
//! bounded queue, where a full queue answers `Busy` at admission.

use crate::event_loop::LoopShared;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

/// One admitted inference request travelling from an event loop to a
/// worker, and back: the worker hands the result to `shared` (the owning
/// loop's completion queue, which wakes the loop).
pub(crate) struct Request {
    /// Decoded input example.
    pub(crate) input: Vec<f32>,
    /// The model entry + engine version this request was admitted against.
    /// Resolved by the event loop **at admission**, so a hot swap mid-queue
    /// never changes which engine serves it. `None` only in batcher unit
    /// tests, which exercise windowing without a compiled network.
    pub(crate) lease: Option<crate::registry::Lease>,
    /// The owning loop's shared half.
    pub(crate) shared: Arc<LoopShared>,
    /// Connection slot index in that loop.
    pub(crate) conn: u32,
    /// Slot generation — a stale completion (connection since closed and
    /// slot reused) is dropped instead of misdelivered.
    pub(crate) generation: u32,
    /// The client's request tag (`None` for a v1 frame).
    pub(crate) tag: Option<u32>,
    /// When the request was admitted to the queue (serve.latency_us start).
    pub(crate) enqueued: Instant,
    /// Microseconds the event loop spent decoding the frame (for the slow
    /// trace; zero when telemetry is off).
    pub(crate) decode_us: u64,
    /// Process-wide request id (for the slow trace; zero when telemetry is
    /// off).
    pub(crate) id: u64,
}

/// A finished inference result, carrying the worker-side stage timings the
/// event loop needs to assemble a complete slow-request trace.
pub(crate) struct WorkerReply {
    /// Index of the largest logit.
    pub(crate) argmax: u32,
    /// The class logits, bit-identical to `infer_reference`.
    pub(crate) logits: Vec<f32>,
    /// Microseconds the request spent queued before a worker took it
    /// (zero when telemetry is off).
    pub(crate) queue_us: u64,
    /// Microseconds the batched `infer_batch_into` call took; shared by
    /// every request in the batch (zero when telemetry is off).
    pub(crate) infer_us: u64,
    /// How many requests shared the batch this one rode in.
    pub(crate) batch: u32,
}

/// Histogram bucket edges for `serve.batch.size`.
pub(crate) const BATCH_SIZE_EDGES: &[f64] = &[2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Histogram bucket edges for `serve.queue.depth`.
pub(crate) const QUEUE_DEPTH_EDGES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// The consuming half of the request queue plus the batching policy,
/// shared by every worker.
pub(crate) struct MicroBatcher {
    rx: Receiver<Request>,
    max_batch: usize,
    /// Shared queue-occupancy gauge, decremented as requests are popped.
    depth: Arc<AtomicUsize>,
    /// A request popped from the queue but held back because it targets a
    /// different engine version than the batch being assembled — it opens
    /// the next batch instead. Already depth-decremented.
    carry: Option<Request>,
}

impl MicroBatcher {
    pub(crate) fn new(rx: Receiver<Request>, max_batch: usize, depth: Arc<AtomicUsize>) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        MicroBatcher { rx, max_batch, depth, carry: None }
    }

    /// Whether `req` can run in the same `infer_batch_into` call as the
    /// batch opener: a batch is **version-homogeneous** — one engine
    /// snapshot per batch — so a request for a different model (or a
    /// just-swapped version of the same model) ends the batch and opens
    /// the next one.
    fn joins(batch: &[Request], req: &Request) -> bool {
        match (batch.first().and_then(|r| r.lease.as_ref()), req.lease.as_ref()) {
            (Some(a), Some(b)) => a.same_version(b),
            // Lease-less requests only exist in unit tests; batch freely.
            _ => true,
        }
    }

    /// Blocks for the next request, then returns it together with every
    /// request already queued behind it, up to `max_batch` and up to the
    /// first engine-version change. Returns `None` once every producer has
    /// disconnected and the queue is drained — buffered requests are still
    /// delivered first, which is what makes shutdown drain rather than
    /// drop.
    pub(crate) fn next_batch(&mut self) -> Option<Vec<Request>> {
        let mut batch = Vec::with_capacity(self.max_batch);
        match self.carry.take() {
            // A carried request was depth-decremented when first popped.
            Some(req) => batch.push(req),
            None => {
                batch.push(self.rx.recv().ok()?);
                self.depth.fetch_sub(1, Ordering::Relaxed);
            }
        }
        #[cfg(test)]
        batch[0].shared.hooks.gate.pass();
        while batch.len() < self.max_batch {
            let Ok(req) = self.rx.try_recv() else { break };
            self.depth.fetch_sub(1, Ordering::Relaxed);
            if !Self::joins(&batch, &req) {
                self.carry = Some(req);
                break;
            }
            batch.push(req);
        }
        if qsnc_telemetry::enabled() {
            qsnc_telemetry::counter_add("serve.batches", 1);
            qsnc_telemetry::observe("serve.batch.size", batch.len() as f64, BATCH_SIZE_EDGES);
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Lease, ModelRegistry, ModelSpec};
    use std::sync::mpsc::{self, SyncSender};
    use std::time::Duration;

    /// A lease-less request routed to a loop that never runs: the batcher
    /// only groups requests, it never completes them.
    fn request(v: f32) -> Request {
        Request {
            input: vec![v],
            lease: None,
            shared: LoopShared::detached(),
            conn: 0,
            generation: 0,
            tag: None,
            enqueued: Instant::now(),
            decode_us: 0,
            id: 0,
        }
    }

    /// Admits `req` the way the event loop does: gauge first, then queue.
    fn admit(tx: &SyncSender<Request>, depth: &AtomicUsize, req: Request) {
        depth.fetch_add(1, Ordering::Relaxed);
        tx.send(req).unwrap();
    }

    #[test]
    fn lone_request_is_returned_without_waiting() {
        let (tx, rx) = mpsc::sync_channel(16);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut batcher = MicroBatcher::new(rx, 8, Arc::clone(&depth));
        admit(&tx, &depth, request(7.0));
        // The sender stays alive: only a timer could delay the return.
        let batch = batcher.next_batch().expect("batch");
        assert_eq!(batch.len(), 1);
        assert_eq!(depth.load(Ordering::Relaxed), 0);
        drop(tx);
    }

    #[test]
    fn drain_takes_everything_queued_up_to_max_batch() {
        let (tx, rx) = mpsc::sync_channel(16);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut batcher = MicroBatcher::new(rx, 3, Arc::clone(&depth));
        for i in 0..5 {
            admit(&tx, &depth, request(i as f32));
        }
        let batch = batcher.next_batch().expect("batch");
        let inputs: Vec<f32> = batch.iter().map(|r| r.input[0]).collect();
        assert_eq!(inputs, vec![0.0, 1.0, 2.0], "a full batch, in arrival order");
        assert_eq!(depth.load(Ordering::Relaxed), 2);
        let batch = batcher.next_batch().expect("remainder");
        assert_eq!(batch.len(), 2, "the drain takes what is queued, not max_batch");
        assert_eq!(depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn version_change_ends_the_batch_and_opens_the_next() {
        let snn = crate::inflight_tests::served_network(3);
        let registry = ModelRegistry::new(
            vec![
                ModelSpec::new("a", Arc::clone(&snn), vec![1, 28, 28]),
                ModelSpec::new("b", snn, vec![1, 28, 28]),
            ],
            None,
            Duration::from_secs(1),
        )
        .unwrap();
        let leased = |model: u32, v: f32| {
            let (entry, version) = registry.resolve(Some(model)).expect("registered model");
            Request { lease: Some(Lease::acquire(&entry, &version).unwrap()), ..request(v) }
        };

        let (tx, rx) = mpsc::sync_channel(16);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut batcher = MicroBatcher::new(rx, 8, Arc::clone(&depth));
        admit(&tx, &depth, leased(0, 0.0));
        admit(&tx, &depth, leased(0, 1.0));
        admit(&tx, &depth, leased(1, 2.0));
        admit(&tx, &depth, leased(1, 3.0));
        admit(&tx, &depth, leased(0, 4.0));

        let inputs = |batch: Vec<Request>| batch.iter().map(|r| r.input[0]).collect::<Vec<_>>();
        assert_eq!(inputs(batcher.next_batch().unwrap()), vec![0.0, 1.0]);
        // The mismatched request was popped and carried: the gauge counts
        // only what is still in the queue.
        assert_eq!(depth.load(Ordering::Relaxed), 2);
        assert_eq!(inputs(batcher.next_batch().unwrap()), vec![2.0, 3.0], "the carry opens");
        assert_eq!(depth.load(Ordering::Relaxed), 0);
        drop(tx);
        assert_eq!(inputs(batcher.next_batch().unwrap()), vec![4.0]);
        assert!(batcher.next_batch().is_none());
        assert_eq!(depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drains_queue_after_disconnect_then_stops() {
        let (tx, rx) = mpsc::sync_channel(16);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut batcher = MicroBatcher::new(rx, 2, Arc::clone(&depth));
        for i in 0..3 {
            admit(&tx, &depth, request(i as f32));
        }
        drop(tx);
        assert_eq!(batcher.next_batch().expect("first").len(), 2);
        assert_eq!(batcher.next_batch().expect("drained remainder").len(), 1);
        assert!(batcher.next_batch().is_none(), "drained queue must end the loop");
        assert_eq!(depth.load(Ordering::Relaxed), 0);
    }
}
