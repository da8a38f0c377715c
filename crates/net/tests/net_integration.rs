//! End-to-end tests over loopback: every protocol shape travels the
//! wire correctly, validation errors arrive as typed codes, generation
//! stamps follow hot swaps, and a drained server accounts for every
//! request it answered.

mod common;

use common::{fast_config, marker, start, N_USERS};
use gmlfm_net::wire::code;
use gmlfm_net::{ClientConfig, ClientError, NetClient, NetReply, NetRequest, NetServer};
use gmlfm_service::{
    BatchRequest, FeedAck, FeedSink, Interaction, ModelServer, Request, RequestError, Response, ScoreRequest,
    TopNRequest,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn client(server: &gmlfm_net::NetServer) -> NetClient {
    NetClient::connect(server.local_addr()).expect("resolve loopback")
}

#[test]
fn every_request_shape_round_trips_over_loopback() {
    let server = start(fast_config());
    let mut client = client(&server);

    // Score, in all three wire modes.
    let resp = client
        .request(&NetRequest::Score(ScoreRequest::pair(2, 5)))
        .expect("pair scores");
    assert_eq!(resp.generation, 1);
    assert_eq!(resp.reply, NetReply::Score(marker(1)));
    let feats = NetRequest::Score(ScoreRequest::feats(vec![2u32, N_USERS as u32 + 5]));
    assert_eq!(client.request(&feats).expect("feats score").reply, NetReply::Score(marker(1)));
    let cold = NetRequest::Score(ScoreRequest::cold(3, &[("user", 1)]));
    assert_eq!(client.request(&cold).expect("cold score").reply, NetReply::Score(marker(1)));

    // Top-n: every score from the stamped generation, ties by item id.
    let resp = client.request(&NetRequest::TopN(TopNRequest::new(0, 4))).expect("top-n");
    match &resp.reply {
        NetReply::TopN(items) => {
            assert_eq!(items.len(), 4);
            for (rank, &(item, score)) in items.iter().enumerate() {
                assert_eq!(item, rank as u32, "equal scores must sort by item id");
                assert_eq!(score, marker(resp.generation));
            }
        }
        other => panic!("expected top-n reply, got {other:?}"),
    }

    // Batch: valid slots answered, the invalid slot a typed error.
    let batch = NetRequest::Batch(BatchRequest::new(vec![
        Request::Score(ScoreRequest::pair(0, 0)),
        Request::Score(ScoreRequest::pair(99, 0)), // unknown user
        Request::TopN(TopNRequest::new(1, 2)),
    ]));
    let resp = client.request(&batch).expect("batch answers");
    match &resp.reply {
        NetReply::Batch(slots) => {
            assert_eq!(slots.len(), 3);
            assert_eq!(slots[0], Ok(NetReply::Score(marker(resp.generation))));
            let err = slots[1].as_ref().expect_err("unknown user must fail its slot");
            assert_eq!(err.code, "unknown_user");
            assert!(slots[2].is_ok());
        }
        other => panic!("expected batch reply, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.served, 5, "one count per answered request: {report:?}");
}

/// A minimal ingest sink: validates through the shared server's live
/// seen overlay and counts accepted events — the transport-level half
/// of what `gmlfm-online`'s handle does in production.
struct OverlaySink {
    server: Arc<ModelServer>,
    accepted: AtomicUsize,
}

impl FeedSink for OverlaySink {
    fn feed(&self, event: &Interaction) -> Result<Response<FeedAck>, RequestError> {
        let resp = self.server.record_seen(event.user, event.item)?;
        // ORDERING: Relaxed — test statistics counter only.
        let pending = self.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(Response { generation: resp.generation, value: FeedAck { accepted: resp.value, pending } })
    }
}

#[test]
fn feed_requests_fold_exclusions_before_any_retrain() {
    let model = Arc::new(ModelServer::new(common::snapshot(1)).expect("consistent snapshot"));
    let sink = Arc::new(OverlaySink { server: Arc::clone(&model), accepted: AtomicUsize::new(0) });
    let server = NetServer::bind_with_feed(model, sink, "127.0.0.1:0", fast_config()).expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr()).expect("resolve loopback");

    // Before the feed: item 2 ranks for user 0 (nothing is seen).
    let topn = NetRequest::TopN(TopNRequest::new(0, common::N_ITEMS));
    let before = client.request(&topn).expect("top-n");
    let items = |reply: &NetReply| match reply {
        NetReply::TopN(items) => items.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        other => panic!("expected top-n reply, got {other:?}"),
    };
    assert!(items(&before.reply).contains(&2), "item 2 starts recommendable");

    // Feed (user 0, item 2): acknowledged against the current generation.
    let ack = client.request(&NetRequest::Feed(Interaction::new(0, 2))).expect("feed");
    assert_eq!(ack.reply, NetReply::Feed(FeedAck { accepted: true, pending: 1 }));

    // The very next ranking request excludes it — freshness does not
    // wait for a retrain.
    let after = client.request(&topn).expect("top-n after feed");
    assert!(!items(&after.reply).contains(&2), "fed item must leave the top-n immediately");
    assert_eq!(after.generation, 1, "no retrain happened; same generation");

    // Validation still runs before anything is recorded.
    let err = client
        .request(&NetRequest::Feed(Interaction::new(0, 10_000)))
        .expect_err("unknown item");
    match err {
        ClientError::Server(e) => assert_eq!(e.code, "unknown_item"),
        other => panic!("expected a typed server error, got {other:?}"),
    }

    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn feed_without_a_sink_is_a_typed_final_error() {
    let server = start(fast_config());
    let mut client = client(&server);
    let err = client
        .request(&NetRequest::Feed(Interaction::new(0, 0)))
        .expect_err("no sink bound");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, code::FEED_UNAVAILABLE);
            assert!(!ClientError::Server(e).is_retryable(), "a sink never appears mid-flight");
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn validation_errors_arrive_as_typed_codes_and_are_not_retried() {
    let server = start(fast_config());
    let mut client = client(&server);

    let err = client
        .request(&NetRequest::Score(ScoreRequest::pair(99, 0)))
        .expect_err("unknown user");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, "unknown_user");
            assert!(e.message.contains("99"), "message names the offender: {}", e.message);
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }

    let report = server.shutdown();
    // A deterministic validation error must consume exactly one request
    // on the server — retrying it would be pointless.
    assert_eq!(report.served, 1);
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn generation_stamps_follow_hot_swaps() {
    let server = start(fast_config());
    let mut client = client(&server);

    let resp = client.request(&NetRequest::Score(ScoreRequest::pair(0, 0))).expect("scores");
    assert_eq!((resp.generation, resp.reply), (1, NetReply::Score(marker(1))));

    let swapped = server.model().swap(common::snapshot(2)).expect("compatible snapshot");
    assert_eq!(swapped, 2);

    let resp = client
        .request(&NetRequest::Score(ScoreRequest::pair(0, 0)))
        .expect("scores after swap");
    assert_eq!((resp.generation, resp.reply), (2, NetReply::Score(marker(2))));
    assert_eq!(server.generation(), 2);

    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn connecting_to_a_dead_server_fails_typed_after_retries() {
    // Bind-and-drop to get a port that refuses connections.
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").port()
    };
    let config = ClientConfig {
        connect_timeout: Duration::from_millis(200),
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..ClientConfig::default()
    };
    let mut client = NetClient::with_config(("127.0.0.1", port), config).expect("resolve");
    let err = client
        .request(&NetRequest::Score(ScoreRequest::pair(0, 0)))
        .expect_err("nothing listening");
    assert!(matches!(err, ClientError::Connect(_)), "got {err:?}");
    assert!(err.is_retryable());
}

#[test]
fn overloaded_replies_are_retried_until_capacity_frees() {
    // Budget of 1: a parked raw connection occupies the only slot, so
    // the client's first attempt is shed with a typed `overloaded`
    // reply; the slot frees while it backs off, and the retry lands.
    let server = start(gmlfm_net::ServerConfig { max_connections: 1, ..fast_config() });
    let parked = std::net::TcpStream::connect(server.local_addr()).expect("park a connection");
    std::thread::sleep(Duration::from_millis(100)); // let its handler claim the slot

    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        drop(parked);
    });
    let config = ClientConfig {
        max_attempts: 8,
        base_backoff: Duration::from_millis(80),
        max_backoff: Duration::from_millis(200),
        ..ClientConfig::default()
    };
    let mut client = NetClient::with_config(server.local_addr(), config).expect("resolve");
    let resp = client
        .request(&NetRequest::Score(ScoreRequest::pair(0, 0)))
        .expect("retry succeeds");
    assert_eq!(resp.reply, NetReply::Score(marker(1)));
    release.join().expect("release thread");

    let report = server.shutdown();
    assert!(report.shed >= 1, "at least one attempt was shed: {report:?}");
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn malformed_json_in_a_valid_frame_keeps_the_connection_alive() {
    use gmlfm_net::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
    let server = start(fast_config());
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");

    // Garbage payload inside a well-formed frame: typed reply, same
    // connection still serves the next (valid) request.
    write_frame(&mut stream, b"{\"op\": nope", DEFAULT_MAX_FRAME_BYTES).expect("send garbage");
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("typed reply");
    let err = gmlfm_net::wire::decode_response(&reply)
        .expect("envelope")
        .expect_err("error envelope");
    assert_eq!(err.code, code::BAD_REQUEST);

    let valid = gmlfm_net::wire::encode_request(&NetRequest::Score(ScoreRequest::pair(0, 0)));
    write_frame(&mut stream, valid.as_bytes(), DEFAULT_MAX_FRAME_BYTES).expect("send valid");
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("reply");
    let resp = gmlfm_net::wire::decode_response(&reply).expect("envelope").expect("success");
    assert_eq!(resp.reply, NetReply::Score(marker(1)));

    let report = server.shutdown();
    assert_eq!(report.served, 2, "both frames were answered");
    assert_eq!(report.worker_panics, 0);
}

/// `rounds` request/reply exchanges on ONE kept-alive connection;
/// returns the wall time of all of them and the size of a reply.
fn exchanges_on_one_connection(server: &NetServer, req: &NetRequest, rounds: usize) -> (Duration, usize) {
    use gmlfm_net::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let payload = gmlfm_net::wire::encode_request(req);
    let mut reply_bytes = 0;
    let started = std::time::Instant::now();
    for _ in 0..rounds {
        write_frame(&mut stream, payload.as_bytes(), DEFAULT_MAX_FRAME_BYTES).expect("send");
        reply_bytes = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("reply").len();
    }
    (started.elapsed(), reply_bytes)
}

/// The one test here that reads a clock, because a socket option has no
/// counter. A reply written as two segments, or a tail segment held back
/// by Nagle's algorithm, waits for the client's delayed ACK — 40 ms, a
/// kernel timer — so 50 exchanges take ≈ 2 s with the defect and tens of
/// milliseconds without: the bound has a ≥ 10× margin on both sides.
#[test]
fn replies_never_wait_for_a_delayed_ack() {
    const ROUNDS: usize = 50;
    const BUDGET: Duration = Duration::from_millis(500);

    // ≈ 1 KB replies: header and payload must leave as one segment.
    let server = start(fast_config());
    let batch = BatchRequest::new(vec![Request::Score(ScoreRequest::pair(1, 2)); 24]);
    let (took, reply_bytes) = exchanges_on_one_connection(&server, &NetRequest::Batch(batch), ROUNDS);
    assert!((512..4096).contains(&reply_bytes), "a small reply: {reply_bytes} bytes");
    assert!(took < BUDGET, "{ROUNDS} small exchanges took {took:?}");
    let report = server.shutdown();
    assert_eq!((report.served, report.worker_panics), (ROUNDS as u64, 0));

    // A whole-catalogue top-n of 17-digit scores: a reply of several
    // loopback segments (64 KB each), whose tail must not wait either.
    let n_items = 5_000;
    let big = common::constant_snapshot(n_items, 0.123_456_789_012_345_67);
    let model = Arc::new(ModelServer::new(big).expect("consistent snapshot"));
    let whole = TopNRequest::new(0, n_items);
    // Scanning and encoding 5 000 items is ≈ 6 ms a reply in a debug
    // build — not the socket's doing, so the same work is timed
    // in-process and taken off.
    let started = std::time::Instant::now();
    for _ in 0..ROUNDS {
        let resp = model.top_n(&whole).expect("valid request");
        std::hint::black_box(gmlfm_net::wire::encode_response(&gmlfm_net::NetResponse {
            generation: resp.generation,
            reply: NetReply::TopN(resp.value),
        }));
    }
    let in_process = started.elapsed();
    let server = NetServer::bind(model, "127.0.0.1:0", fast_config()).expect("bind loopback");
    let (took, reply_bytes) = exchanges_on_one_connection(&server, &NetRequest::TopN(whole), ROUNDS);
    assert!(reply_bytes > 128 * 1024, "a reply of several segments: {reply_bytes} bytes");
    assert!(
        took.saturating_sub(in_process) < BUDGET,
        "{ROUNDS} large exchanges took {took:?}, the same answers in-process {in_process:?}"
    );
    let report = server.shutdown();
    assert_eq!((report.served, report.worker_panics), (ROUNDS as u64, 0));
}
