//! `wire_batch`: the one socket workload. A real `NetServer` on
//! loopback, **one kept-alive connection**, one client thread using the
//! public `frame`/`wire` functions; an op is one `Batch` frame of 128
//! scores (64 catalog pairs + 64 cold-start users) against the
//! 100k-item fixture.
//!
//! `net::{frame,wire,server}` and `service::exec` do > 98 % of an op and
//! `serve` < 2 %: this is where transport and codec work shows and where
//! kernel work must not. Today every reply waits out the client's 40 ms
//! delayed-ACK timer, because the server writes the frame header and the
//! payload as two segments without `TCP_NODELAY`; behind that stall the
//! op is ≈ 1 ms of JSON codec whose decoders grow quadratically with the
//! batch size (`net.wire.decode_growth`).

use crate::fixture::{self, subseed, Scale, Serving, SERVING_USERS};
use crate::oracle::{self, Verdict};
use crate::panel::{quiet_call_us, settle, timed, Layers, Workload};
use crate::stats;
use crate::trace::Tracer;
use gmlfm_net::frame::{self, DEFAULT_MAX_FRAME_BYTES};
use gmlfm_net::{wire, NetClient, NetReply, NetRequest, NetResponse, NetServer, ServerConfig};
use gmlfm_service::{BatchRequest, ModelServer, Request, ScoreRequest};
use rand::Rng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

/// Scores per `Batch` frame: half catalog pairs, half cold-start.
const BATCH: usize = 128;

/// Replies of one batch frame, slot by slot (`None`: an error slot).
type Scores = Vec<Option<f64>>;

/// The socket workload.
pub struct WireBatch {
    serving: Serving,
    net: Option<NetServer>,
    stream: TcpStream,
    seed: u64,
    frames: Vec<NetRequest>,
    /// The first pass's reply to each panel frame.
    replies: Vec<Option<Scores>>,
    request_bytes: usize,
    reply_bytes: usize,
}

/// `wire_batch`: 100k items, 8 distinct frames per pass.
pub fn build(tracer: &mut Tracer, seed: u64, scale: Scale) -> Box<dyn Workload> {
    let n_items = scale.pick(100_000, 10_000);
    let serving = fixture::serving(tracer, n_items, false);
    let frames = batch_frames(seed, n_items, scale.pick(8, 2), BATCH);
    let (net, stream) = tracer.span("net.server.bind", |_| {
        let net = NetServer::bind(Arc::new(serving.server.clone()), "127.0.0.1:0", ServerConfig::default())
            .expect("loopback bind");
        let stream = TcpStream::connect(net.local_addr()).expect("loopback connect");
        // The client sends each frame as one segment and never delays
        // it; what remains is the server's write pattern.
        stream.set_nodelay(true).expect("TCP_NODELAY on the client socket");
        (net, stream)
    });
    let replies = vec![None; frames.len()];
    Box::new(WireBatch {
        serving,
        net: Some(net),
        stream,
        seed,
        frames,
        replies,
        request_bytes: 0,
        reply_bytes: 0,
    })
}

/// `count` distinct `Batch` frames of `size` score requests each,
/// alternating catalog pairs and cold-start users.
fn batch_frames(seed: u64, n_items: usize, count: usize, size: usize) -> Vec<NetRequest> {
    let mut rng = gmlfm_tensor::seeded_rng(subseed(seed, 4));
    (0..count)
        .map(|_| {
            let requests = (0..size)
                .map(|slot| {
                    let item = rng.gen_range(0..n_items as u32);
                    Request::Score(if slot % 2 == 0 {
                        ScoreRequest::pair(rng.gen_range(0..SERVING_USERS as u32), item)
                    } else {
                        ScoreRequest::cold(item, &[("segment", rng.gen_range(0..8))])
                    })
                })
                .collect();
            NetRequest::Batch(BatchRequest::new(requests))
        })
        .collect()
}

fn scores_of(response: NetResponse) -> Option<Scores> {
    let NetReply::Batch(slots) = response.reply else { return None };
    Some(
        slots
            .into_iter()
            .map(|slot| match slot {
                Ok(NetReply::Score(score)) => Some(score),
                _ => None,
            })
            .collect(),
    )
}

/// What the server does with one decoded batch, stage by stage, without
/// the socket: the in-program equivalent of `server::answer`.
fn answer_in_program(server: &ModelServer, batch: &BatchRequest) -> String {
    let resp = server.batch(batch);
    let slots = resp
        .value
        .iter()
        .map(|slot| match slot {
            Ok(reply) => Ok(NetReply::from_reply(reply)),
            Err(e) => Err(wire::NetError::from_request_error(e)),
        })
        .collect();
    wire::encode_response(&NetResponse { generation: resp.generation, reply: NetReply::Batch(slots) })
}

impl Workload for WireBatch {
    fn pass(&mut self, tracer: &mut Tracer, times: &mut Vec<f64>) -> u64 {
        let max = DEFAULT_MAX_FRAME_BYTES;
        let mut failed = 0;
        for (req, first) in self.frames.iter().zip(&mut self.replies) {
            tracer.next_request();
            let stream = &mut self.stream;
            let (request_bytes, reply_bytes) = (&mut self.request_bytes, &mut self.reply_bytes);
            let got = timed(times, || {
                tracer.span("op", |t| {
                    let payload = t.span("net.wire.encode_request", |_| wire::encode_request(req));
                    let arrived = t.span("net.socket.exchange", |_| {
                        let mut framed = Vec::with_capacity(payload.len() + frame::HEADER_BYTES);
                        frame::write_frame(&mut framed, payload.as_bytes(), max).ok()?;
                        *request_bytes = framed.len();
                        stream.write_all(&framed).ok()?;
                        frame::read_frame(stream, max).ok()
                    })?;
                    *reply_bytes = arrived.len() + frame::HEADER_BYTES;
                    let decoded = t.span("net.wire.decode_response", |_| wire::decode_response(&arrived));
                    scores_of(decoded.ok()?.ok()?)
                })
            });
            failed += settle(first, got);
        }
        failed
    }

    fn units_per_pass(&self) -> f64 {
        (self.frames.len() * BATCH) as f64
    }

    fn verify(&mut self, layers: &mut Layers) -> Verdict {
        let mut verdict = Verdict::default();
        let (_, snap) = self.serving.server.snapshot();
        let catalog = snap.catalog.as_ref().expect("fixture has a catalog");
        let (mut equal, mut total) = (0usize, 0usize);
        for (frame_no, (req, reply)) in self.frames.iter().zip(&self.replies).enumerate() {
            let NetRequest::Batch(batch) = req else { continue };
            total += batch.requests.len();
            let Some(scores) = reply else {
                verdict.mismatch(format!("frame {frame_no}: no reply to verify"));
                continue;
            };
            verdict.check(scores.len() == batch.requests.len(), || {
                format!("frame {frame_no}: {} slots for {} requests", scores.len(), batch.requests.len())
            });
            for (slot, (request, score)) in batch.requests.iter().zip(scores).enumerate() {
                let Request::Score(request) = request else { continue };
                let before = verdict.mismatches;
                match (oracle::resolve(&snap.schema, catalog, request), score) {
                    (Some(feats), Some(score)) => {
                        oracle::check_feats_score(&snap.frozen, &feats, *score, &mut verdict, || {
                            format!("frame {frame_no} slot {slot}")
                        });
                    }
                    _ => {
                        verdict.mismatch(format!("frame {frame_no} slot {slot}: error slot or unresolvable"))
                    }
                }
                equal += usize::from(verdict.mismatches == before);
            }
        }
        verdict.quality_at_10 = equal as f64 / total.max(1) as f64;
        if let Some(net) = self.net.take() {
            let report = net.shutdown();
            verdict.check(report.worker_panics == 0, || format!("server worker panicked: {report:?}"));
            verdict.check(report.shed == 0, || format!("server shed a connection: {report:?}"));
            layers.insert("net.server.served", report.served as f64);
            layers.insert("net.server.shed", report.shed as f64);
            layers.insert("net.server.worker_panics", report.worker_panics as f64);
        }
        verdict
    }

    fn probes(&mut self, tracer: &Tracer, layers: &mut Layers) {
        let server = &self.serving.server;
        let (_, snap) = server.snapshot();
        let max = DEFAULT_MAX_FRAME_BYTES;
        let NetRequest::Batch(batch) = &self.frames[0] else { return };
        layers.insert("net.frame.request_bytes", self.request_bytes as f64);
        layers.insert("net.frame.reply_bytes", self.reply_bytes as f64);

        // The op's stages run in-program, one at a time, on frame 0.
        let reps = 32;
        let request = wire::encode_request(&self.frames[0]);
        let reply = answer_in_program(server, batch);
        let encode_request = quiet_call_us(reps, || wire::encode_request(&self.frames[0]));
        let decode_request = quiet_call_us(reps, || wire::decode_request(request.as_bytes()));
        let batch_exec = quiet_call_us(reps, || server.batch(batch));
        let answered = quiet_call_us(reps, || answer_in_program(server, batch));
        let decode_response = quiet_call_us(reps, || wire::decode_response(reply.as_bytes()));
        let roundtrip = quiet_call_us(reps, || {
            let mut framed = Vec::with_capacity(reply.len() + frame::HEADER_BYTES);
            frame::write_frame(&mut framed, reply.as_bytes(), max).ok()?;
            frame::read_frame(&mut std::io::Cursor::new(framed), max).ok()
        });
        let encode_response = (answered - batch_exec).max(0.0);
        layers.insert("net.wire.encode_request_us", encode_request);
        layers.insert("net.wire.decode_request_us", decode_request);
        layers.insert("net.wire.encode_response_us", encode_response);
        layers.insert("net.wire.decode_response_us", decode_response);
        layers.insert("net.frame.roundtrip_us", roundtrip);
        layers.insert("service.batch_exec_us", batch_exec);
        let in_program = encode_request + decode_request + batch_exec + encode_response + decode_response;
        layers.insert("net.server.socket_overhead_us", tracer.median_us("op") - in_program);

        // Decode cost at 128 sub-requests over 8 × the cost at 16: 1.0
        // would be linear in the batch size.
        let decode_us = |size: usize| {
            let frames = batch_frames(self.seed, snap.catalog.as_ref().map_or(1, |c| c.n_items()), 1, size);
            let NetRequest::Batch(batch) = &frames[0] else { return f64::NAN };
            let request = wire::encode_request(&frames[0]);
            let reply = answer_in_program(server, batch);
            quiet_call_us(reps, || wire::decode_request(request.as_bytes()))
                + quiet_call_us(reps, || wire::decode_response(reply.as_bytes()))
        };
        layers.insert("net.wire.decode_growth", decode_us(128) / (8.0 * decode_us(16)));

        // One score through the request path vs straight into the model.
        let pair = ScoreRequest::pair(3, 17);
        let feats = oracle::resolve(&snap.schema, snap.catalog.as_ref().expect("catalog"), &pair)
            .expect("fixture pair resolves");
        let loops = 2048;
        let score_us = quiet_call_us(reps, || (0..loops).filter(|_| server.score(&pair).is_ok()).count());
        let predict_us =
            quiet_call_us(reps, || (0..loops).map(|_| snap.frozen.predict_feats(&feats)).sum::<f64>());
        layers.insert("service.score_us", score_us / loops as f64);
        layers.insert("service.validate_share", 1.0 - predict_us / score_us);

        // `NetClient` opens a fresh connection per request; what that
        // costs over the in-program path for the same pair score.
        if let Some(net) = &self.net {
            let request = NetRequest::Score(pair.clone());
            let mut client = NetClient::connect(net.local_addr()).expect("loopback address resolves");
            let mut fresh = Vec::new();
            for _ in 0..reps {
                let ok = timed(&mut fresh, || client.request(&request).is_ok());
                if !ok {
                    return;
                }
            }
            let in_program = quiet_call_us(reps, || {
                let payload = wire::encode_request(&request);
                let decoded = wire::decode_request(payload.as_bytes()).ok()?;
                let NetRequest::Score(score) = decoded else { return None };
                let resp = server.score(&score).ok()?;
                let reply = wire::encode_response(&NetResponse {
                    generation: resp.generation,
                    reply: NetReply::Score(resp.value),
                });
                wire::decode_response(reply.as_bytes()).ok()
            });
            layers.insert("net.client.fresh_conn_us", stats::minimum(fresh) / 1e3 - in_program);
        }
    }
}
