//! Socket-level tests that need requests to stay in flight.
//!
//! An event loop runs what it admits at the end of the same epoll round,
//! so nothing on the wire keeps a request pending. These tests close the
//! loop's hold instead: the loop keeps admitting and doing I/O, but every
//! admitted request stays pending (lease held, reply owed) until the test
//! opens the hold, which wakes the loop. Each test then checks a behaviour
//! that only exists while replies are pending: duplicate live tags, the
//! in-flight budget, a fatal frame mid-pipeline, a half-close, the drain,
//! the per-model quota and batching across connections. Every server here
//! runs one loop.

use crate::event_loop::LoopShared;
use crate::protocol::{self, Reply, Status, MAGIC, OP_INFER, VERSION_V2};
use crate::{ModelSpec, ServeConfig, Server};
use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{Tensor, TensorRng};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const INPUT_DIMS: [usize; 3] = [1, 28, 28];

/// Test-only state every event loop's shared half carries.
#[derive(Default)]
pub(crate) struct Hooks {
    /// While set, the loop keeps admitted requests pending instead of
    /// running them; it still reads, parses, admits and flushes.
    pub(crate) hold: AtomicBool,
    /// Peer EOFs the loop has read, so a test can tell a half-close landed.
    pub(crate) eofs: AtomicUsize,
    /// The size of every batch the loop has run, in order.
    pub(crate) batches: Mutex<Vec<usize>>,
}

/// Keeps loop 0 from running what it admits; dropping it (also on a
/// failed assertion) opens the hold and wakes the loop.
struct Hold(Arc<LoopShared>);

impl Drop for Hold {
    fn drop(&mut self) {
        self.0.hooks.hold.store(false, Ordering::SeqCst);
        self.0.wake();
    }
}

impl Server {
    fn hold_loop(&self) -> Hold {
        let shared = Arc::clone(&self.shareds[0]);
        shared.hooks.hold.store(true, Ordering::SeqCst);
        Hold(shared)
    }

    /// The size of every batch loop 0 has run, in order.
    fn batches(&self) -> Vec<usize> {
        self.shareds[0].hooks.batches.lock().unwrap().clone()
    }

    /// Requests admitted and not yet answered, across every model.
    fn inflight(&self) -> usize {
        self.models().iter().map(|m| m.inflight).sum()
    }
}

/// A compiled 4/4-bit LeNet with the integer fast path available.
pub(crate) fn served_network(seed: u64) -> Arc<SpikingNetwork> {
    let mut rng = TensorRng::seed(seed);
    let mut net = qsnc_nn::models::lenet(0.25, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    let snn = SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None).expect("compile");
    assert!(snn.has_fast_path(), "4/4-bit LeNet must take the integer engine");
    Arc::new(snn)
}

fn example(seed: u64) -> Vec<f32> {
    let mut rng = TensorRng::seed(seed);
    qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng)
        .as_slice()
        .to_vec()
}

fn reference_bits(snn: &SpikingNetwork, input: &[f32]) -> Vec<u32> {
    let x = Tensor::from_vec(input.to_vec(), [1, 1, 28, 28]);
    bits(snn.infer_reference(&x).as_slice())
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream
}

/// One loop, so the hold and the batch log cover every connection.
fn one_loop() -> ServeConfig {
    ServeConfig { loops: 1, ..ServeConfig::default() }
}

fn spawn(seed: u64, config: ServeConfig) -> (Arc<SpikingNetwork>, Server) {
    let snn = served_network(seed);
    let server =
        Server::spawn(Arc::clone(&snn), &INPUT_DIMS, "127.0.0.1:0", config).expect("spawn");
    (snn, server)
}

/// Reads replies until the server closes the connection.
fn read_until_eof(stream: &mut TcpStream) -> Vec<Reply> {
    let mut replies = Vec::new();
    while let Ok(reply) = protocol::read_reply(stream) {
        replies.push(reply);
    }
    replies
}

/// Polls `cond` until it holds; panics after 30 s.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every reply must be Ok and bit-identical to its request's reference;
/// returns the sorted tags.
fn ok_tags(snn: &SpikingNetwork, inputs: &[Vec<f32>], replies: &[Reply]) -> Vec<u32> {
    let mut tags: Vec<u32> = replies
        .iter()
        .map(|reply| {
            assert_eq!(reply.status, Status::Ok, "{}", reply.message);
            let tag = reply.tag.expect("tagged");
            let want = reference_bits(snn, &inputs[tag as usize]);
            assert_eq!(bits(&reply.logits), want, "tag {tag}");
            tag
        })
        .collect();
    tags.sort_unstable();
    tags
}

/// A tag may not be live twice on one connection: the second use is
/// answered [`Status::BadRequest`] (carrying the tag), the first still
/// completes, and once it has replied the tag is free for reuse.
#[test]
fn duplicate_live_tag_is_rejected_then_reusable() {
    let (snn, server) = spawn(43, one_loop());
    let hold = server.hold_loop();
    let input = example(4300);
    let mut stream = connect(&server);
    protocol::write_request_tagged(&mut stream, 9, &input).expect("first");
    // Sent only once the original is admitted, so nothing but the hold
    // keeps the original in flight when the duplicate arrives.
    wait_until("the original is admitted", || server.inflight() == 1);
    protocol::write_request_tagged(&mut stream, 9, &input).expect("duplicate");

    // The duplicate bounces while the original is held in flight.
    let first = protocol::read_reply(&mut stream).expect("reply 1");
    assert_eq!(first.status, Status::BadRequest, "{}", first.message);
    assert_eq!(first.tag, Some(9));
    assert!(first.message.contains("tag"), "got {:?}", first.message);
    drop(hold);
    let second = protocol::read_reply(&mut stream).expect("reply 2");
    assert_eq!(second.status, Status::Ok, "{}", second.message);
    assert_eq!(second.tag, Some(9));
    assert_eq!(bits(&second.logits), reference_bits(&snn, &input));

    // The tag is dead now — reusing it is fine.
    protocol::write_request_tagged(&mut stream, 9, &input).expect("reuse");
    let third = protocol::read_reply(&mut stream).expect("reply 3");
    assert_eq!(third.status, Status::Ok, "{}", third.message);
    assert_eq!(third.tag, Some(9));
    drop(stream);
    server.shutdown();
}

/// The per-connection in-flight budget sheds load with tagged
/// [`Status::Busy`] replies — and those bounce back *before* the earlier
/// admitted requests complete, which is exactly the out-of-order delivery
/// the tag field exists for.
#[test]
fn inflight_budget_answers_busy_with_the_offending_tag() {
    let config = ServeConfig { max_inflight_per_conn: 2, ..one_loop() };
    let (_, server) = spawn(61, config);
    let hold = server.hold_loop();
    let input = example(6100);
    let mut stream = connect(&server);
    for tag in 0..8u32 {
        protocol::write_request_tagged(&mut stream, tag, &input).expect("write");
        if tag == 1 {
            wait_until("the budget is full", || server.inflight() == 2);
        }
    }

    // Tags 0 and 1 fill the budget and are held; the rest bounce first.
    for want in 2..8u32 {
        let reply = protocol::read_reply(&mut stream).expect("busy reply");
        assert_eq!((reply.tag, reply.status), (Some(want), Status::Busy), "{}", reply.message);
    }
    drop(hold);
    let mut ok: Vec<u32> = (0..2)
        .map(|_| {
            let reply = protocol::read_reply(&mut stream).expect("ok reply");
            assert_eq!(reply.status, Status::Ok, "{}", reply.message);
            reply.tag.expect("tagged")
        })
        .collect();
    ok.sort_unstable();
    assert_eq!(ok, vec![0, 1], "the first two requests fill the budget");

    // Load shedding, not failure: the same connection still works.
    protocol::write_request_tagged(&mut stream, 99, &input).expect("after shed");
    let reply = protocol::read_reply(&mut stream).expect("reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    assert_eq!(reply.tag, Some(99));
    drop(stream);
    server.shutdown();
}

/// An oversized declared payload arriving mid-pipeline is unframeable: the
/// server must still answer every request admitted before it, send one
/// [`Status::BadRequest`] **tagged with the offending request's tag** (a
/// bare drop would leave the client unable to tell which pipelined request
/// died), and close — without panicking a loop.
#[test]
fn oversized_tagged_frame_mid_pipeline_errors_and_closes() {
    let (snn, server) = spawn(53, one_loop());
    let hold = server.hold_loop();
    let mut stream = connect(&server);
    let inputs: Vec<Vec<f32>> = (0..3).map(|i| example(5300 + i)).collect();
    for (tag, input) in inputs.iter().enumerate() {
        protocol::write_request_tagged(&mut stream, tag as u32, input).expect("write");
    }
    wait_until("all three are admitted", || server.inflight() == 3);
    // A v2 header declaring a payload over the frame cap.
    let mut poison = Vec::new();
    poison.extend_from_slice(&MAGIC.to_le_bytes());
    poison.push(VERSION_V2);
    poison.push(OP_INFER);
    poison.extend_from_slice(&77u32.to_le_bytes()); // tag
    poison.extend_from_slice(&u32::MAX.to_le_bytes()); // declared length
    stream.write_all(&poison).expect("poison frame");

    // The three admitted requests are held, so the fatal reply is first.
    let fatal = protocol::read_reply(&mut stream).expect("fatal reply");
    assert_eq!(fatal.status, Status::BadRequest, "{}", fatal.message);
    assert!(fatal.message.contains("cap"), "got {:?}", fatal.message);
    assert_eq!(fatal.tag, Some(77), "the rejection must carry the oversized frame's tag");
    drop(hold);
    let replies = read_until_eof(&mut stream);
    let tags = ok_tags(&snn, &inputs, &replies);
    assert_eq!(tags, vec![0, 1, 2], "every admitted request must still be answered");
    drop(stream);
    server.shutdown();
}

/// A client that half-closes (shutdown-for-write) with replies pending
/// must still receive all of them before the server closes its side.
#[test]
fn half_close_with_replies_pending_still_answers_all() {
    let (snn, server) = spawn(59, one_loop());
    let hold = server.hold_loop();
    let mut stream = connect(&server);
    let inputs: Vec<Vec<f32>> = (0..5).map(|i| example(5900 + i)).collect();
    for (tag, input) in inputs.iter().enumerate() {
        protocol::write_request_tagged(&mut stream, tag as u32, input).expect("write");
    }
    stream.shutdown(std::net::Shutdown::Write).expect("half close");
    wait_until("the loop admitted all five and read the EOF", || {
        server.inflight() == 5 && server.shareds[0].hooks.eofs.load(Ordering::Relaxed) == 1
    });
    drop(hold);

    let replies = read_until_eof(&mut stream);
    assert_eq!(ok_tags(&snn, &inputs, &replies), vec![0, 1, 2, 3, 4]);
    drop(stream);
    server.shutdown();
}

/// Graceful drain answers every tagged request admitted before shutdown,
/// then closes the connection.
#[test]
fn drain_answers_every_admitted_tagged_request() {
    let (snn, server) = spawn(67, one_loop());
    let hold = server.hold_loop();
    let inputs: Vec<Vec<f32>> = (0..6).map(|i| example(6700 + i)).collect();
    let mut stream = connect(&server);
    for (tag, input) in inputs.iter().enumerate() {
        protocol::write_request_tagged(&mut stream, tag as u32, input).expect("write");
    }
    wait_until("all six are admitted", || server.inflight() == 6);

    let addr = server.local_addr();
    let shutdown = std::thread::spawn(move || server.shutdown());
    // Loop 0 closes its listener when the drain begins.
    wait_until("the drain has begun", || TcpStream::connect(addr).is_err());
    drop(hold);

    let replies = read_until_eof(&mut stream);
    let tags = ok_tags(&snn, &inputs, &replies);
    assert_eq!(tags, vec![0, 1, 2, 3, 4, 5], "drain must answer every admitted request");
    shutdown.join().expect("shutdown");
}

#[test]
fn per_model_quota_answers_busy_and_recovers() {
    let snn = served_network(17);
    let server = Server::spawn_models(
        vec![ModelSpec::new("prod", Arc::clone(&snn), INPUT_DIMS.to_vec()).with_quota(1)],
        "127.0.0.1:0",
        one_loop(),
    )
    .expect("spawn");
    // Quota 1: the held request keeps its lease, so a second one bounces.
    let hold = server.hold_loop();
    let input = example(42);
    let mut holder = connect(&server);
    protocol::write_request(&mut holder, &input).expect("holder write");
    wait_until("the holder is admitted", || server.inflight() == 1);

    let mut probe = connect(&server);
    protocol::write_request_tagged(&mut probe, 11, &input).expect("probe write");
    let reply = protocol::read_reply(&mut probe).expect("probe reply");
    assert_eq!(reply.status, Status::Busy, "quota 1 must shed the second request");
    assert_eq!(reply.tag, Some(11));
    assert!(reply.message.contains("quota"), "got {:?}", reply.message);

    // The held request completes normally...
    drop(hold);
    let reply = protocol::read_reply(&mut holder).expect("holder reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    assert_eq!(bits(&reply.logits), reference_bits(&snn, &input));
    // ...and once its lease is back the probe gets through.
    protocol::write_request_tagged(&mut probe, 12, &input).expect("probe retry");
    let reply = protocol::read_reply(&mut probe).expect("probe retry reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    drop(holder);
    drop(probe);
    server.shutdown();
}

/// Requests admitted together on different connections of one loop run
/// as one batch, each reply bit-identical to the reference; a lone
/// request then runs at once as a batch of one.
#[test]
fn requests_on_separate_connections_run_as_one_batch() {
    let (snn, server) = spawn(71, one_loop());
    let hold = server.hold_loop();
    let inputs: Vec<Vec<f32>> = (0..3).map(|i| example(7100 + i)).collect();
    let mut streams: Vec<TcpStream> = (0..3).map(|_| connect(&server)).collect();
    for (tag, (stream, input)) in streams.iter_mut().zip(&inputs).enumerate() {
        protocol::write_request_tagged(stream, tag as u32, input).expect("write");
    }
    wait_until("all three are admitted", || server.inflight() == 3);
    assert!(server.batches().is_empty(), "the hold keeps every request pending");
    drop(hold);

    let replies: Vec<Reply> =
        streams.iter_mut().map(|s| protocol::read_reply(s).expect("reply")).collect();
    assert_eq!(ok_tags(&snn, &inputs, &replies), vec![0, 1, 2]);
    assert_eq!(server.batches(), vec![3], "three connections, one engine call");

    // Alone on an idle loop, a request runs the round it arrives in.
    protocol::write_request_tagged(&mut streams[1], 1, &inputs[1]).expect("lone write");
    let lone = protocol::read_reply(&mut streams[1]).expect("lone reply");
    assert_eq!(ok_tags(&snn, &inputs, &[lone]), vec![1]);
    assert_eq!(server.batches(), vec![3, 1]);
    drop(streams);
    server.shutdown();
}
