//! Fault injection against the network server: hostile framing, slow
//! clients, connection storms, and swaps/shutdowns racing in-flight
//! requests. The invariant under every fault is the same — a typed
//! error or a clean close, never a panic, never a hung thread, never a
//! reply mixing model generations — and every test ends in a drain
//! whose `worker_panics == 0` is the no-panic witness.

mod common;

use common::{fast_config, marker, snapshot, start};
use gmlfm_net::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use gmlfm_net::wire::{self, code};
use gmlfm_net::{ClientConfig, ClientError, NetClient, NetReply, NetRequest, NetServer, ServerConfig};
use gmlfm_par::Parallelism;
use gmlfm_service::{
    BatchRequest, FeedAck, FeedSink, Interaction, ModelServer, Request, RequestError, Response, ScoreRequest,
    TopNRequest,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn score_payload() -> String {
    wire::encode_request(&NetRequest::Score(ScoreRequest::pair(0, 0)))
}

/// The server still answers a healthy client — the liveness probe run
/// after each injected fault.
fn assert_still_serving(server: &gmlfm_net::NetServer) {
    let mut client = NetClient::connect(server.local_addr()).expect("resolve");
    let resp = client
        .request(&NetRequest::Score(ScoreRequest::pair(1, 1)))
        .expect("healthy request");
    assert_eq!(resp.reply, NetReply::Score(marker(resp.generation)));
}

#[test]
fn truncated_frames_close_cleanly_and_leave_the_server_healthy() {
    let server = start(fast_config());

    // Half a header, then disconnect.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&[0u8, 0]).expect("partial header");
    drop(stream);

    // Full header promising 64 bytes, 5 delivered, then disconnect.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&64u32.to_be_bytes()).expect("header");
    stream.write_all(b"hello").expect("partial payload");
    drop(stream);

    assert_still_serving(&server);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn oversized_frames_get_a_typed_reply_then_a_close() {
    let server = start(fast_config());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&u32::MAX.to_be_bytes()).expect("hostile header");

    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("typed reply before close");
    let err = wire::decode_response(&reply).expect("envelope").expect_err("error envelope");
    assert_eq!(err.code, code::OVERSIZED_FRAME);
    assert!(err.message.contains(&u32::MAX.to_string()), "names the length: {}", err.message);

    // The stream cannot be re-synchronised, so the server closes it.
    let mut rest = Vec::new();
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    assert_eq!(stream.read_to_end(&mut rest).expect("clean close"), 0);

    assert_still_serving(&server);
    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn garbage_byte_streams_never_panic_the_server() {
    let server = start(fast_config());
    // A deterministic xorshift spray of hostile byte blobs, each its
    // own connection: some look like huge frames, some like tiny ones,
    // none are valid. Every connection must end in a clean close or a
    // typed reply, and the server must stay healthy throughout.
    let mut state = 0x5eed_cafe_u64 | 1;
    for len in [1usize, 3, 4, 5, 17, 64, 257] {
        let mut blob = vec![0u8; len];
        for b in &mut blob {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            *b = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
        }
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&blob).expect("spray");
        drop(stream);
    }
    assert_still_serving(&server);
    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn a_megabyte_of_open_brackets_is_answered_typed_on_a_live_connection() {
    use gmlfm_net::frame::write_frame;
    let server = start(fast_config());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // 1 MB of `[` inside a well-formed frame, an eighth of the frame cap.
    // The parser recursed once per bracket: a stack overflow aborts the
    // process, every connection with it, and is not a panic a drain
    // could count.
    write_frame(&mut stream, &vec![b'['; 1_000_000], DEFAULT_MAX_FRAME_BYTES).expect("send nesting");
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("typed reply");
    let err = wire::decode_response(&reply).expect("envelope").expect_err("error envelope");
    assert_eq!(err.code, code::BAD_REQUEST);
    assert!(err.message.contains("nesting"), "names the fault: {}", err.message);

    // The frame was well-formed, so the same connection keeps serving.
    write_frame(&mut stream, score_payload().as_bytes(), DEFAULT_MAX_FRAME_BYTES).expect("send valid");
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("reply");
    let resp = wire::decode_response(&reply).expect("envelope").expect("success");
    assert_eq!(resp.reply, NetReply::Score(marker(resp.generation)));

    let report = server.shutdown();
    assert_eq!(report.served, 2, "both frames were answered: {report:?}");
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn byte_at_a_time_writes_within_the_deadline_still_succeed() {
    let config = ServerConfig { frame_timeout: Duration::from_secs(5), ..fast_config() };
    let server = start(config);
    let payload = score_payload();

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(payload.as_bytes());
    for &b in &framed {
        stream.write_all(&[b]).expect("one byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("reply to trickled request");
    let resp = wire::decode_response(&reply).expect("envelope").expect("success");
    assert_eq!(resp.reply, NetReply::Score(marker(resp.generation)));

    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn slow_loris_clients_are_reaped_at_the_frame_deadline() {
    let server = start(fast_config()); // frame budget: 400 ms
    let started = Instant::now();

    // Start a frame, then stall forever.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&16u32.to_be_bytes()).expect("header");
    stream.write_all(b"{").expect("one byte, then silence");

    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).expect("server closes the connection");
    assert_eq!(n, 0, "no unsolicited reply on a desynchronised stream");
    assert!(started.elapsed() < Duration::from_secs(5), "reaped by the deadline, not by luck");

    assert_still_serving(&server);
    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn idle_connections_are_closed_at_the_idle_deadline() {
    let server = start(fast_config()); // idle budget: 500 ms
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let started = Instant::now();
    let mut buf = Vec::new();
    let n = (&stream).read_to_end(&mut buf).expect("clean close");
    assert_eq!(n, 0);
    assert!(started.elapsed() >= Duration::from_millis(400), "not closed before the budget");
    assert!(started.elapsed() < Duration::from_secs(5), "closed promptly after it");
    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn connection_storms_shed_typed_overloaded_replies() {
    let server = start(ServerConfig { max_connections: 2, ..fast_config() });

    // Two parked connections fill the budget.
    let parked: Vec<TcpStream> =
        (0..2).map(|_| TcpStream::connect(server.local_addr()).expect("park")).collect();
    std::thread::sleep(Duration::from_millis(100)); // handlers claim their slots

    // A storm of further connections: each must read a typed
    // `overloaded` envelope followed by a clean close — never a silent
    // drop, never a hang.
    for _ in 0..8 {
        let mut stream = TcpStream::connect(server.local_addr()).expect("storm connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("typed shed reply");
        let err = wire::decode_response(&reply).expect("envelope").expect_err("error envelope");
        assert_eq!(err.code, code::OVERLOADED);
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).expect("clean close"), 0);
    }

    drop(parked);
    std::thread::sleep(Duration::from_millis(50));
    assert_still_serving(&server);

    let report = server.shutdown();
    assert!(report.shed >= 8, "all storm connections were shed: {report:?}");
    assert_eq!(report.worker_panics, 0);
}

/// A top-n reply as ids + score bits.
fn top_bits(client: &mut NetClient, req: TopNRequest) -> Vec<(u32, u64)> {
    match client.request(&NetRequest::TopN(req)).expect("answered").reply {
        NetReply::TopN(items) => items.into_iter().map(|(id, score)| (id, score.to_bits())).collect(),
        other => panic!("topn answered with {other:?}"),
    }
}

#[test]
fn a_hostile_par_is_answered_like_the_request_without_it() {
    let server = start(fast_config());
    let mut client = NetClient::connect(server.local_addr()).expect("resolve");
    // `"par":4294967295` on the wire: one shard per catalogue item if
    // the server took the client's word for it.
    let hostile =
        top_bits(&mut client, TopNRequest::new(0, 10).parallelism(Parallelism::threads(u32::MAX as usize)));
    let plain = top_bits(&mut client, TopNRequest::new(0, 10));
    assert_eq!(hostile.len(), 10);
    assert_eq!(hostile, plain);

    let batch = BatchRequest::new(vec![Request::TopN(TopNRequest::new(1, 3)); 4])
        .parallelism(Parallelism::threads(u32::MAX as usize));
    let NetReply::Batch(slots) = client.request(&NetRequest::Batch(batch)).expect("answered").reply else {
        panic!("batch answered with another kind");
    };
    assert_eq!(slots.len(), 4);
    assert!(slots.iter().all(|slot| slot == &slots[0] && slot.is_ok()), "slots: {slots:?}");

    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn hot_swaps_racing_requests_never_mix_generations_on_the_wire() {
    let server = start(ServerConfig { max_connections: 32, ..fast_config() });
    let addr = server.local_addr();
    let model = std::sync::Arc::clone(server.model());

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // A writer swapping as fast as it can.
        let stop = &stop;
        let swapper = s.spawn(move || {
            let mut g = 1u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                g += 1;
                model.swap(snapshot(g)).expect("compatible snapshot");
            }
            g
        });

        // Clients hammering every request shape; each reply's values
        // must be fully explained by its stamped generation.
        let mut clients = Vec::new();
        for t in 0..3u32 {
            clients.push(s.spawn(move || {
                let mut client = NetClient::connect(addr).expect("resolve");
                let mut checked = 0u64;
                let deadline = Instant::now() + Duration::from_millis(500);
                while Instant::now() < deadline {
                    let reqs = [
                        NetRequest::Score(ScoreRequest::pair(t, 3)),
                        NetRequest::TopN(TopNRequest::new(t, 3)),
                        NetRequest::Batch(BatchRequest::new(vec![
                            Request::Score(ScoreRequest::pair(t, 0)),
                            Request::TopN(TopNRequest::new(t, 2)),
                        ])),
                    ];
                    for req in &reqs {
                        let resp = client.request(req).expect("request under swap storm");
                        let expect = marker(resp.generation);
                        match &resp.reply {
                            NetReply::Score(x) => assert_eq!(*x, expect, "torn score"),
                            NetReply::TopN(items) => {
                                for &(_, score) in items {
                                    assert_eq!(score, expect, "torn top-n");
                                }
                            }
                            NetReply::Batch(slots) => {
                                for slot in slots {
                                    match slot.as_ref().expect("valid sub-request") {
                                        NetReply::Score(x) => assert_eq!(*x, expect, "torn batch score"),
                                        NetReply::TopN(items) => {
                                            for &(_, score) in items {
                                                assert_eq!(score, expect, "torn batch top-n");
                                            }
                                        }
                                        NetReply::Batch(_) => unreachable!("batches cannot nest"),
                                        NetReply::Feed(_) => unreachable!("no feed in this batch"),
                                    }
                                }
                            }
                            NetReply::Feed(_) => unreachable!("no feed requests sent"),
                        }
                        checked += 1;
                    }
                }
                checked
            }));
        }
        let total: u64 = clients.into_iter().map(|c| c.join().expect("client thread")).sum();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let swaps = swapper.join().expect("swapper thread");
        assert!(total > 0, "clients made progress");
        assert!(swaps > 1, "swapper made progress");
    });

    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn shutdown_mid_traffic_drains_without_panics_or_hangs() {
    let server = start(ServerConfig { max_connections: 32, ..fast_config() });
    let addr = server.local_addr();

    let clients: Vec<_> = (0..4u32)
        .map(|t| {
            std::thread::spawn(move || {
                // No retries: a shutdown-raced request may fail exactly
                // once, and this thread must observe it as a typed
                // error or clean close, not a hang.
                let config = ClientConfig { max_attempts: 1, ..ClientConfig::default() };
                let mut client = NetClient::with_config(addr, config).expect("resolve");
                let mut ok = 0u64;
                loop {
                    match client.request(&NetRequest::Score(ScoreRequest::pair(t, 1))) {
                        Ok(resp) => {
                            assert_eq!(resp.reply, NetReply::Score(marker(resp.generation)), "torn reply");
                            ok += 1;
                        }
                        // Any typed failure ends the loop: the server
                        // is gone (or going), which is the point.
                        Err(_) => return ok,
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    let started = Instant::now();
    let report = server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(10), "drain is bounded");
    assert_eq!(report.worker_panics, 0, "no handler died to a panic: {report:?}");

    let total: u64 = clients.into_iter().map(|c| c.join().expect("client thread")).sum();
    assert!(total > 0, "traffic flowed before the shutdown");
    assert!(report.served >= total, "every acknowledged reply was counted: {report:?} vs {total}");
}

/// A feed sink that accepts every interaction and counts them.
struct CountingSink {
    model: Arc<ModelServer>,
    feeds: AtomicUsize,
}

impl CountingSink {
    fn feeds(&self) -> usize {
        // ORDERING: Relaxed — read after the client's request returned,
        // which the reply-less close orders after the sink's increment.
        self.feeds.load(Ordering::Relaxed)
    }
}

impl FeedSink for CountingSink {
    fn feed(&self, _event: &Interaction) -> Result<Response<FeedAck>, RequestError> {
        // ORDERING: Relaxed — test counter only.
        let pending = self.feeds.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(Response { generation: self.model.generation(), value: FeedAck { accepted: true, pending } })
    }
}

/// A front that passes each connection's first frame to `upstream`,
/// waits for the server's reply and drops it with the connection: the
/// server has acted on the request, and the client sees a transport
/// failure. Runs until a connection arrives after `stop` is set.
fn lossy_front(upstream: SocketAddr, stop: Arc<AtomicBool>) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let front = std::thread::spawn(move || {
        for conn in listener.incoming() {
            // ORDERING: SeqCst, paired with the store the test makes
            // before its waking connect, which this accept returns after.
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(mut conn) = conn else { continue };
            let Ok(payload) = read_frame(&mut conn, DEFAULT_MAX_FRAME_BYTES) else { continue };
            let mut server = TcpStream::connect(upstream).expect("upstream accepts");
            write_frame(&mut server, &payload, DEFAULT_MAX_FRAME_BYTES).expect("upstream reads");
            read_frame(&mut server, DEFAULT_MAX_FRAME_BYTES).expect("upstream replies");
        }
    });
    (addr, front)
}

#[test]
fn a_lost_reply_is_not_retried_for_an_id_less_feed() {
    let model = Arc::new(ModelServer::new(snapshot(1)).expect("consistent snapshot"));
    let sink = Arc::new(CountingSink { model: Arc::clone(&model), feeds: AtomicUsize::new(0) });
    let server = NetServer::bind_with_feed(
        model,
        Arc::clone(&sink) as Arc<dyn FeedSink>,
        "127.0.0.1:0",
        fast_config(),
    )
    .expect("bind loopback");
    let stop = Arc::new(AtomicBool::new(false));
    let (front, handle) = lossy_front(server.local_addr(), Arc::clone(&stop));
    let config =
        ClientConfig { max_attempts: 3, base_backoff: Duration::from_millis(1), ..ClientConfig::default() };
    let mut client = NetClient::with_config(front, config).expect("resolve");

    // The server enqueued it and the reply was lost: a retry would
    // enqueue it again, and nothing downstream could tell the copies
    // apart.
    let err = client
        .request(&NetRequest::Feed(Interaction::new(0, 1)))
        .expect_err("every reply is lost");
    assert!(matches!(err, ClientError::Transport(_)), "{err}");
    assert_eq!(sink.feeds(), 1, "an id-less feed is sent once");

    // With an id the log deduplicates, so the feed is idempotent and
    // retried like a read.
    client
        .request(&NetRequest::Feed(Interaction::new(0, 2).id(7)))
        .expect_err("every reply is lost");
    assert_eq!(sink.feeds(), 1 + 3, "a feed with an id is retried");

    // ORDERING: SeqCst — the connect below wakes the front after it.
    stop.store(true, Ordering::SeqCst);
    drop(TcpStream::connect(front));
    handle.join().expect("front thread");
    assert_eq!(server.shutdown().worker_panics, 0);
}
