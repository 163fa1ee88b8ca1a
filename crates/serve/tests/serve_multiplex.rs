//! Protocol-v2 multiplexing tests against the epoll event loops.
//!
//! Every test drives real `TcpStream` clients that pipeline **tagged**
//! requests — many in flight on one connection — and checks that each
//! reply, matched to its request by tag regardless of arrival order,
//! carries logits bit-identical to the float oracle
//! [`SpikingNetwork::infer_reference`], and that interleaved v1 frames keep
//! their lockstep order.
//!
//! The tests that need replies held pending — duplicate live tags, the
//! in-flight budget, oversized frames mid pipeline, half-closed peers and
//! the drain — live in the crate's `inflight_tests` module, where they can
//! hold the event loop.

use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_serve::protocol::{self, Status};
use qsnc_serve::{ServeConfig, Server};
use qsnc_tensor::{Tensor, TensorRng};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const INPUT_DIMS: [usize; 3] = [1, 28, 28];

/// A compiled 4/4-bit LeNet with the integer fast path available.
fn served_network(seed: u64) -> Arc<SpikingNetwork> {
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
    let config = DeployConfig::paper(4, 4);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path(), "4/4-bit LeNet must take the integer engine");
    Arc::new(snn)
}

fn example(seed: u64) -> Vec<f32> {
    let mut rng = TensorRng::seed(seed);
    qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng)
        .as_slice()
        .to_vec()
}

fn reference_logits(snn: &SpikingNetwork, input: &[f32]) -> Vec<f32> {
    let x = Tensor::from_vec(input.to_vec(), [1, 1, 28, 28]);
    snn.infer_reference(&x).as_slice().to_vec()
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

/// The core multiplexing proof: two connections, one on each of two
/// event loops, pipeline many tagged requests with distinct inputs while
/// both loops run the engine at once, and every reply — matched purely by
/// tag — must be bit-identical to the reference.
#[test]
fn pipelined_tagged_replies_are_bit_identical_in_any_order() {
    let snn = served_network(41);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { loops: 2, max_batch: 1, max_inflight_per_conn: 64, ..ServeConfig::default() },
    )
    .expect("spawn");

    const SHOTS: u32 = 24;
    let inputs: Vec<Vec<f32>> = (0..SHOTS).map(|i| example(4100 + i as u64)).collect();
    // Connections are dealt round-robin, so these two land on both loops.
    let mut streams = [connect(&server), connect(&server)];
    for (c, stream) in streams.iter_mut().enumerate() {
        for tag in (c as u32..SHOTS).step_by(2) {
            protocol::write_request_tagged(stream, tag, &inputs[tag as usize]).expect("write");
        }
    }

    let mut seen: HashMap<u32, protocol::Reply> = HashMap::new();
    for (c, stream) in streams.iter_mut().enumerate() {
        for _ in 0..SHOTS / 2 {
            let reply = protocol::read_reply(stream).expect("reply");
            assert_eq!(reply.status, Status::Ok, "tag {:?}: {}", reply.tag, reply.message);
            let tag = reply.tag.expect("v2 requests must get tagged replies");
            assert_eq!(tag as usize % 2, c, "tag {tag} answered on the wrong connection");
            assert!(seen.insert(tag, reply).is_none(), "tag {tag} answered twice");
        }
    }
    for (tag, input) in inputs.iter().enumerate() {
        let reply = &seen[&(tag as u32)];
        let expected = reference_logits(&snn, input);
        assert_eq!(bits(&reply.logits), bits(&expected), "tag {tag}");
        let want_argmax = expected
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv { (i, v) } else { (bi, bv) }
            })
            .0;
        assert_eq!(reply.argmax as usize, want_argmax, "tag {tag}");
    }
    drop(streams);
    server.shutdown();
}

/// v1 and v2 frames interleave on one connection: untagged frames keep
/// their lockstep FIFO identity (replies arrive in request order) while a
/// tagged frame between them pipelines freely.
#[test]
fn v1_and_v2_frames_interleave_on_one_connection() {
    let snn = served_network(47);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");

    let a = example(4701);
    let b = example(4702);
    let c = example(4703);
    let mut stream = connect(&server);
    protocol::write_request(&mut stream, &a).expect("v1 a");
    protocol::write_request_tagged(&mut stream, 3, &b).expect("v2 b");
    protocol::write_request(&mut stream, &c).expect("v1 c");

    let mut untagged = Vec::new();
    let mut tagged = Vec::new();
    for _ in 0..3 {
        let reply = protocol::read_reply(&mut stream).expect("reply");
        assert_eq!(reply.status, Status::Ok, "{}", reply.message);
        match reply.tag {
            None => untagged.push(reply),
            Some(tag) => {
                assert_eq!(tag, 3);
                tagged.push(reply);
            }
        }
    }
    // Untagged replies are the only way a v1 client can match answers to
    // requests, so their order is the request order: a before c.
    assert_eq!(untagged.len(), 2);
    assert_eq!(tagged.len(), 1);
    assert_eq!(bits(&untagged[0].logits), bits(&reference_logits(&snn, &a)));
    assert_eq!(bits(&untagged[1].logits), bits(&reference_logits(&snn, &c)));
    assert_eq!(bits(&tagged[0].logits), bits(&reference_logits(&snn, &b)));
    drop(stream);
    server.shutdown();
}

