//! `req_topn_exact` and `req_topn_ivf`: one whole-catalogue top-10
//! (exclude-seen) per panel user, driven through the full in-program
//! request path on one thread — request codec, framing, `ModelServer`,
//! reply codec, framing — with no socket in the way.
//!
//! *Exact* (100k items, no index): `serve::{rank,kernel,topn}` do ≥ 95 %
//! of an op, the codec < 1 %; scan-pipeline and kernel work shows here
//! and transport work must not. *IVF* (300k items, default `IvfIndex`):
//! the same layer used differently — probe, prune and exact re-rank over
//! tables twenty times L2, recall < 1 — so index, probe-budget and
//! precision decisions are judged here, and a kernel change that helps
//! the exact scan but hurts cache-cold probes shows.

use crate::fixture::{self, Scale, Serving};
use crate::oracle::{self, Verdict};
use crate::panel::{quiet_call_us, settle, timed, Layers, Workload};
use crate::stats;
use crate::trace::Tracer;
use gmlfm_net::frame::{self, DEFAULT_MAX_FRAME_BYTES};
use gmlfm_net::{wire, NetReply, NetRequest, NetResponse};
use gmlfm_par::Parallelism;
use gmlfm_serve::{Precision, RetrievalStrategy};
use gmlfm_service::{IndexedModel, ModelServer, ScoringBackend, TopNRequest};
use std::io::Cursor;

/// Items ranked per request.
const TOP_N: usize = 10;
/// Panel users whose indexed reply is compared with the exact strategy:
/// an exact scan is twenty times an indexed one, so recall is measured
/// on the head of the panel.
const RECALL_USERS: usize = 128;

/// The request-path workload over a [`Serving`] fixture.
pub struct ReqTopN {
    serving: Serving,
    indexed: bool,
    requests: Vec<TopNRequest>,
    /// The first pass's reply to each panel request; later passes must
    /// repeat it, and verification checks it against the oracle.
    replies: Vec<Option<Vec<(u32, f64)>>>,
    request_bytes: usize,
    reply_bytes: usize,
}

/// `req_topn_exact`: 100k items, 48 panel users, no index.
pub fn build_exact(tracer: &mut Tracer, seed: u64, scale: Scale) -> Box<dyn Workload> {
    Box::new(ReqTopN::build(tracer, seed, scale.pick(100_000, 10_000), scale.pick(48, 8), false))
}

/// `req_topn_ivf`: 300k items under the default `IvfIndex`, every one of
/// the catalogue's 256 users in a seed-drawn order. (The
/// issue asked for 1M items. There the probe's scattered reads over
/// 275 MB measured the host's memory system: the same binary read 4.3 ms
/// per request in a quiet phase and 5.9 ms in a slow one, and over ten
/// minutes ranged 15 % where this size ranged 10 % and the exact scan
/// 6 %. 85 MB is still twenty L2s.)
pub fn build_ivf(tracer: &mut Tracer, seed: u64, scale: Scale) -> Box<dyn Workload> {
    Box::new(ReqTopN::build(
        tracer,
        seed,
        scale.pick(300_000, 10_000),
        scale.pick(fixture::SERVING_USERS, 8),
        true,
    ))
}

/// What one trip through the request path produced.
struct Exchange {
    reply: Option<Vec<(u32, f64)>>,
    request_bytes: usize,
    reply_bytes: usize,
}

/// One request through the whole in-program path:
/// `encode_request → write_frame → read_frame → decode_request →
/// ModelServer::top_n → encode_response → write_frame → read_frame →
/// decode_response`. `None` when any stage failed.
fn request_path(server: &ModelServer, req: &TopNRequest, t: &mut Tracer) -> Exchange {
    let max = DEFAULT_MAX_FRAME_BYTES;
    let mut out = Exchange { reply: None, request_bytes: 0, reply_bytes: 0 };
    let payload = t.span("net.wire.encode_request", |_| wire::encode_request(&NetRequest::TopN(req.clone())));
    let arrived = t.span("net.frame.roundtrip", |_| {
        let mut framed = Vec::with_capacity(payload.len() + frame::HEADER_BYTES);
        frame::write_frame(&mut framed, payload.as_bytes(), max).ok()?;
        out.request_bytes = framed.len();
        frame::read_frame(&mut Cursor::new(framed), max).ok()
    });
    let Some(arrived) = arrived else { return out };
    let decoded = t.span("net.wire.decode_request", |_| wire::decode_request(&arrived));
    let Ok(NetRequest::TopN(decoded)) = decoded else { return out };
    let Ok(served) = t.span("service.top_n", |_| server.top_n(&decoded)) else { return out };
    let payload = t.span("net.wire.encode_response", |_| {
        wire::encode_response(&NetResponse {
            generation: served.generation,
            reply: NetReply::TopN(served.value),
        })
    });
    let arrived = t.span("net.frame.roundtrip", |_| {
        let mut framed = Vec::with_capacity(payload.len() + frame::HEADER_BYTES);
        frame::write_frame(&mut framed, payload.as_bytes(), max).ok()?;
        out.reply_bytes = framed.len();
        frame::read_frame(&mut Cursor::new(framed), max).ok()
    });
    let Some(arrived) = arrived else { return out };
    let decoded = t.span("net.wire.decode_response", |_| wire::decode_response(&arrived));
    if let Ok(Ok(NetResponse { reply: NetReply::TopN(items), .. })) = decoded {
        out.reply = Some(items);
    }
    out
}

impl ReqTopN {
    fn build(tracer: &mut Tracer, seed: u64, n_items: usize, panel: usize, indexed: bool) -> Self {
        let serving = fixture::serving(tracer, n_items, indexed);
        let requests: Vec<TopNRequest> = fixture::panel_users(seed, panel)
            .into_iter()
            .map(|user| TopNRequest::new(user, TOP_N))
            .collect();
        let replies = vec![None; requests.len()];
        Self { serving, indexed, requests, replies, request_bytes: 0, reply_bytes: 0 }
    }

    /// The candidates an exact scan for `req` ranks: the catalogue minus
    /// the user's seen set.
    fn exact_candidates(&self, req: &TopNRequest) -> Vec<u32> {
        let (_, snap) = self.serving.server.snapshot();
        let seen = snap.seen.as_ref().expect("fixture has seen sets");
        let n_items = snap.catalog.as_ref().expect("fixture has a catalog").n_items() as u32;
        (0..n_items).filter(|&item| !seen.contains(req.user, item)).collect()
    }
}

impl Workload for ReqTopN {
    fn pass(&mut self, tracer: &mut Tracer, times: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        for (req, first) in self.requests.iter().zip(&mut self.replies) {
            tracer.next_request();
            let got = timed(times, || tracer.span("op", |t| request_path(&self.serving.server, req, t)));
            self.request_bytes = got.request_bytes;
            self.reply_bytes = got.reply_bytes;
            failed += settle(first, got.reply);
        }
        failed
    }

    fn units_per_pass(&self) -> f64 {
        self.requests.len() as f64
    }

    fn verify(&mut self, layers: &mut Layers) -> Verdict {
        let mut verdict = Verdict::default();
        let (_, snap) = self.serving.server.snapshot();
        let judged = if self.indexed { self.requests.len().min(RECALL_USERS) } else { self.requests.len() };
        let mut hits = 0usize;
        for (op, (req, reply)) in self.requests.iter().zip(&self.replies).enumerate() {
            let Some(reply) = reply else {
                verdict.mismatch(format!("user {}: no reply to verify", req.user));
                continue;
            };
            oracle::check_reply(snap, req.user, reply, &mut verdict);
            verdict.check(reply.len() == TOP_N, || {
                format!("user {}: {} items, not {TOP_N}", req.user, reply.len())
            });
            if op >= judged {
                continue;
            }
            let want = if self.indexed {
                // Recall is judged against the exact strategy on the same
                // snapshot; the exact strategy itself is held to the slow
                // oracle on `req_topn_exact`, and spot-checked here.
                let exact = self
                    .serving
                    .server
                    .top_n(&req.clone().strategy(RetrievalStrategy::Exact))
                    .map(|resp| resp.value)
                    .unwrap_or_default();
                if op < 2 {
                    verdict.check(
                        oracle::same_ranking(&exact, &oracle::top_n(snap, req.user, TOP_N, &[])),
                        || format!("user {}: exact strategy disagrees with the oracle", req.user),
                    );
                }
                exact
            } else {
                let want = oracle::top_n(snap, req.user, TOP_N, &[]);
                verdict.check(oracle::same_ranking(reply, &want), || {
                    format!("user {}: served {reply:?} but the oracle ranks {want:?}", req.user)
                });
                want
            };
            hits += oracle::hits(reply, &want);
        }
        verdict.quality_at_10 = hits as f64 / (judged * TOP_N) as f64;
        if self.indexed {
            layers.insert("serve.index.recall_at_10", verdict.quality_at_10);
        }
        verdict
    }

    fn probes(&mut self, tracer: &Tracer, layers: &mut Layers) {
        for (span, metric) in [
            ("net.wire.encode_request", "net.wire.encode_request_us"),
            ("net.wire.decode_request", "net.wire.decode_request_us"),
            ("net.wire.encode_response", "net.wire.encode_response_us"),
            ("net.wire.decode_response", "net.wire.decode_response_us"),
            ("net.frame.roundtrip", "net.frame.roundtrip_us"),
        ] {
            layers.insert(metric, stats::median(&tracer.self_us_per_request(span)));
        }
        let server = &self.serving.server;
        let (_, snap) = server.snapshot();
        let catalog = snap.catalog.as_ref().expect("fixture has a catalog");
        let req = &self.requests[0];
        let template = catalog.template(req.user).expect("panel user is in the catalog");
        let candidates = self.exact_candidates(req);
        let backend = IndexedModel { frozen: &snap.frozen, index: snap.index.as_ref() };
        let par = Parallelism::auto();
        layers.insert("net.frame.request_bytes", self.request_bytes as f64);
        layers.insert("net.frame.reply_bytes", self.reply_bytes as f64);

        let feats = catalog.feats(req.user, candidates[0]).expect("panel pair is in the catalog");
        let batch = 4096;
        let predict_us = quiet_call_us(16, || {
            (0..batch)
                .map(|_| snap.frozen.predict_feats(std::hint::black_box(&feats)))
                .sum::<f64>()
        });
        layers.insert("serve.predict_ns", predict_us * 1e3 / batch as f64);

        let via_server = quiet_call_us(8, || server.top_n(req));
        if self.indexed {
            let index = snap.index.as_ref().expect("indexed fixture carries an index");
            let excluded: Vec<u32> =
                snap.seen.as_ref().map(|s| s.items(req.user).to_vec()).unwrap_or_default();
            let search_us = quiet_call_us(8, || {
                backend.select_top_n_indexed(catalog, template, TOP_N, None, &excluded, Precision::F64, par)
            });
            layers.insert("serve.index.search_us", search_us);
            layers.insert("service.topn_overhead_us", via_server - search_us);
            layers.insert("serve.index.rss_mb", self.serving.index_rss_mb);
            layers.insert("serve.index.clusters", index.n_clusters() as f64);
            layers.insert("serve.index.nprobe", index.default_nprobe() as f64);
        } else {
            let select_us = quiet_call_us(8, || {
                backend.select_top_n_prec(catalog, template, &candidates, TOP_N, Precision::F64, par)
            });
            layers.insert("serve.topn.select_us", select_us);
            layers.insert("serve.rank.candidates_scanned", candidates.len() as f64);
            layers.insert("serve.rank.ns_per_candidate", select_us * 1e3 / candidates.len() as f64);
            layers.insert("service.topn_overhead_us", via_server - select_us);

            // Informational: the same request fanned over every listed
            // processor. The pool has one worker (`GMLFM_THREADS=1`), so
            // this is the caller plus that worker.
            let fanned = req.clone().parallelism(Parallelism::threads(stats::nproc()));
            layers.insert("par.fanout_ratio_exact", quiet_call_us(8, || server.top_n(&fanned)) / via_server);

            // The low-precision tables, on a copy of the model (building
            // them is not part of this workload's set-up).
            let low = snap.frozen.clone().with_precision(Precision::I8);
            let exact = low.select_top_n_prec(catalog, template, &candidates, TOP_N, Precision::F64, par);
            for (name, precision) in
                [("serve.lowp.f32_topn_us", Precision::F32), ("serve.lowp.i8_topn_us", Precision::I8)]
            {
                let us = quiet_call_us(8, || {
                    low.select_top_n_prec(catalog, template, &candidates, TOP_N, precision, par)
                });
                layers.insert(name, us);
            }
            let i8_top = low.select_top_n_prec(catalog, template, &candidates, TOP_N, Precision::I8, par);
            layers.insert("serve.lowp.i8_recall_at_10", oracle::hits(&i8_top, &exact) as f64 / TOP_N as f64);
        }
    }
}
