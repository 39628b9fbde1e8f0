//! Wire-protocol properties: every frame type round-trips bit-for-bit,
//! and the decoder survives arbitrary hostile bytes — truncations,
//! oversized length prefixes, bad magic/version, and random corruption
//! — with a typed error, never a panic. The version-2 extension blocks
//! (trace context on requests, per-shard provenance on responses) get
//! the same treatment, plus proof that extension-free frames stay
//! byte-identical to version 1 so old peers keep parsing them.

use earthmover_core::stats::{QueryStats, ShardProvenance};
use earthmover_core::Histogram;
use earthmover_obs::TraceContext;
use earthmover_serve::protocol::{
    encode_request, encode_request_traced, encode_response, read_frame, ErrorCode, Request,
    RequestExt, Response, WireError, DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAGIC, MIN_VERSION,
    VERSION,
};
use earthmover_serve::schema::{EXTENSION_TAGS, REQUEST_FRAMES, RESPONSE_FRAMES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn random_histogram(rng: &mut StdRng, dims: usize) -> Histogram {
    let bins: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>() + 1e-3).collect();
    Histogram::new(bins).unwrap()
}

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u8..26)))
        .collect()
}

fn random_stats(rng: &mut StdRng) -> QueryStats {
    let mut s = QueryStats {
        db_size: rng.gen_range(0usize..100_000),
        node_accesses: rng.gen_range(0u64..1_000),
        exact_evaluations: rng.gen_range(0u64..1_000),
        results: rng.gen_range(0u64..1_000),
        elapsed: Duration::from_nanos(rng.gen_range(0u64..2_000_000_000)),
        elapsed_max: Duration::from_nanos(rng.gen_range(0u64..2_000_000_000)),
        ..QueryStats::default()
    };
    s.deadline_expired = rng.gen_bool(0.5);
    for _ in 0..rng.gen_range(0usize..4) {
        s.filter_evaluations
            .push((random_string(rng), rng.gen_range(0u64..9_999)));
    }
    for _ in 0..rng.gen_range(0usize..4) {
        s.stage_elapsed.push((
            random_string(rng),
            Duration::from_nanos(rng.gen_range(0u64..1_000_000)),
        ));
    }
    for _ in 0..rng.gen_range(0usize..3) {
        s.degradations.push(random_string(rng));
    }
    s
}

fn random_trace(rng: &mut StdRng) -> TraceContext {
    TraceContext {
        trace_id: rng.gen(),
        parent_span: rng.gen(),
        sampled: rng.gen_bool(0.5),
    }
}

/// Provenance entries as the coordinator attaches them: flat per-shard
/// stats (attribution nests exactly one level, so nested provenance is
/// never encoded).
fn random_provenance(rng: &mut StdRng) -> Vec<ShardProvenance> {
    (0..rng.gen_range(0usize..4))
        .map(|i| ShardProvenance {
            shard: i as u32,
            endpoint: format!("10.0.0.{}:{}", rng.gen_range(1u8..20), 4400 + i),
            from_replica: rng.gen_bool(0.3),
            retries: rng.gen_range(0u32..4),
            hedge_fired: rng.gen_bool(0.2),
            latency: Duration::from_nanos(rng.gen_range(0u64..2_000_000_000)),
            stats: random_stats(rng),
        })
        .collect()
}

fn random_items(rng: &mut StdRng) -> Vec<(u64, f64)> {
    (0..rng.gen_range(0usize..20))
        .map(|_| (rng.gen_range(0u64..100_000), rng.gen::<f64>() * 10.0))
        .collect()
}

fn random_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0u8..5) {
        0 => {
            let dims = [16, 32, 64][rng.gen_range(0usize..3)];
            Request::Knn {
                k: rng.gen_range(0u32..100),
                deadline_us: rng.gen_range(0u64..10_000_000),
                histogram: random_histogram(rng, dims),
            }
        }
        1 => {
            let dims = [16, 32, 64][rng.gen_range(0usize..3)];
            Request::Range {
                epsilon: rng.gen::<f64>() * 5.0,
                deadline_us: rng.gen_range(0u64..10_000_000),
                histogram: random_histogram(rng, dims),
            }
        }
        2 => Request::Health,
        3 => Request::Stats,
        _ => Request::Shutdown,
    }
}

/// Stats as a coordinator response carries them: sometimes with
/// per-shard provenance attached, which travels as a version-2
/// extension block. The `response_roundtrip` property therefore covers
/// both plain version-1 frames and extended ones.
fn random_traced_stats(rng: &mut StdRng) -> QueryStats {
    let mut s = random_stats(rng);
    if rng.gen_bool(0.5) {
        s.provenance = random_provenance(rng);
    }
    s
}

fn random_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0u8..7) {
        0 => Response::Results {
            items: random_items(rng),
            stats: random_traced_stats(rng),
        },
        1 => Response::DeadlineExceeded {
            items: random_items(rng),
            stats: random_traced_stats(rng),
        },
        2 => Response::Overloaded {
            queue_depth: rng.gen_range(0u32..1_000),
            stats: random_traced_stats(rng),
        },
        3 => Response::HealthReport {
            draining: rng.gen_bool(0.5),
            db_size: rng.gen_range(0u64..1_000_000),
            dims: [16u32, 32, 64][rng.gen_range(0usize..3)],
            uptime_ms: rng.gen_range(0u64..1_000_000),
        },
        4 => Response::StatsReport {
            prometheus: random_string(rng).repeat(rng.gen_range(0usize..50)),
        },
        5 => Response::ShutdownStarted,
        _ => Response::Error {
            code: [
                ErrorCode::BadRequest,
                ErrorCode::Internal,
                ErrorCode::ShuttingDown,
            ][rng.gen_range(0usize..3)],
            message: random_string(rng),
        },
    }
}

/// The request after the codec's normalization pass, for comparison.
fn canonical(req: &Request) -> Request {
    match req {
        Request::Knn {
            k,
            deadline_us,
            histogram,
        } => Request::Knn {
            k: *k,
            deadline_us: *deadline_us,
            histogram: histogram.clone().into_normalized().unwrap(),
        },
        Request::Range {
            epsilon,
            deadline_us,
            histogram,
        } => Request::Range {
            epsilon: *epsilon,
            deadline_us: *deadline_us,
            histogram: histogram.clone().into_normalized().unwrap(),
        },
        other => other.clone(),
    }
}

/// Bin-level equality (the decoded histogram recomputes its mass from
/// the bins, so whole-struct equality is too strict).
fn requests_equal(a: &Request, b: &Request) -> bool {
    match (a, b) {
        (
            Request::Knn {
                k: ka,
                deadline_us: da,
                histogram: ha,
            },
            Request::Knn {
                k: kb,
                deadline_us: db,
                histogram: hb,
            },
        ) => ka == kb && da == db && ha.bins() == hb.bins(),
        (
            Request::Range {
                epsilon: ea,
                deadline_us: da,
                histogram: ha,
            },
            Request::Range {
                epsilon: eb,
                deadline_us: db,
                histogram: hb,
            },
        ) => ea.to_bits() == eb.to_bits() && da == db && ha.bins() == hb.bins(),
        (x, y) => x == y,
    }
}

proptest! {
    /// Every request frame round-trips through encode → read → decode.
    #[test]
    fn request_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = random_request(&mut rng);
        let id: u64 = rng.gen();
        let bytes = encode_request(id, &req).unwrap();
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one full frame");
        prop_assert_eq!(raw.request_id, id);
        let got = raw.into_request().unwrap();
        let want = canonical(&req);
        prop_assert!(requests_equal(&got, &want), "{:?} != {:?}", got, want);
    }

    /// Every response frame round-trips exactly (distances travel as
    /// raw bits, stats field by field).
    #[test]
    fn response_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resp = random_response(&mut rng);
        let id: u64 = rng.gen();
        let bytes = encode_response(id, &resp);
        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one full frame");
        prop_assert_eq!(raw.request_id, id);
        let got = raw.into_response().unwrap();
        prop_assert_eq!(got, resp);
    }

    /// Truncating a valid frame anywhere yields a typed error (or, cut
    /// at zero, a clean EOF) — never a panic, never a bogus frame.
    #[test]
    fn truncation_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = encode_request(rng.gen(), &random_request(&mut rng)).unwrap();
        let cut = rng.gen_range(0..bytes.len());
        let head = &bytes[..cut];
        match read_frame(&mut { head }, DEFAULT_MAX_FRAME_LEN) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded at cut {}", cut),
            Err(WireError::Truncated) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
        }
    }

    /// Flipping random bytes in a valid frame must never panic the
    /// decoder; whatever decodes must re-encode (the decoder does not
    /// hallucinate un-encodable values).
    #[test]
    fn corruption_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = encode_request(rng.gen(), &random_request(&mut rng)).unwrap();
        for _ in 0..rng.gen_range(1usize..8) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen();
        }
        if let Ok(Some(raw)) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN) {
            // Decoding may succeed or fail; both must be panic-free.
            let _ = raw.into_request();
        }
    }

    /// Pure random garbage never panics the frame reader.
    #[test]
    fn garbage_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN);
    }

    /// A traced request upgrades to version 2, round-trips its context
    /// through the extension-aware decode, and still parses through the
    /// legacy `into_request` path (extensions are ignorable).
    #[test]
    fn traced_request_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = random_request(&mut rng);
        let context = random_trace(&mut rng);
        let id: u64 = rng.gen();
        let bytes = encode_request_traced(id, &req, Some(context)).unwrap();
        prop_assert_eq!(bytes[4], VERSION, "a trace context needs version 2");

        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one full frame");
        prop_assert_eq!(raw.request_id, id);
        let (got, got_exts) = raw.into_request_ext().unwrap();
        prop_assert_eq!(got_exts.trace, Some(context));
        let want = canonical(&req);
        prop_assert!(requests_equal(&got, &want), "{:?} != {:?}", got, want);

        let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one full frame");
        let got = raw.into_request().unwrap();
        prop_assert!(requests_equal(&got, &want), "legacy decode must skip the extension");
    }

    /// Without a context the traced encoder emits a frame byte-identical
    /// to the version-1 encoder, and the extension-aware decoder reports
    /// no context on it — a rolling upgrade never changes old traffic.
    #[test]
    fn untraced_frames_stay_version_one(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = random_request(&mut rng);
        let id: u64 = rng.gen();
        let plain = encode_request(id, &req).unwrap();
        let traced = encode_request_traced(id, &req, None).unwrap();
        prop_assert_eq!(&plain, &traced, "no context must mean no wire change");
        prop_assert_eq!(plain[4], MIN_VERSION);
        let raw = read_frame(&mut plain.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one full frame");
        let (_, got_exts) = raw.into_request_ext().unwrap();
        prop_assert_eq!(got_exts, RequestExt::default());
    }

    /// Truncating an extension-carrying frame anywhere — including
    /// inside the trailing blocks — yields a typed error, never a panic.
    #[test]
    fn extended_truncation_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let context = random_trace(&mut rng);
        let bytes =
            encode_request_traced(rng.gen(), &random_request(&mut rng), Some(context)).unwrap();
        let cut = rng.gen_range(0..bytes.len());
        let head = &bytes[..cut];
        match read_frame(&mut { head }, DEFAULT_MAX_FRAME_LEN) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded at cut {}", cut),
            Err(WireError::Truncated) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
        }
    }

    /// Flipping bytes in a provenance-carrying response never panics
    /// either decode path.
    #[test]
    fn extended_corruption_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resp = Response::Results {
            items: random_items(&mut rng),
            stats: QueryStats {
                provenance: random_provenance(&mut rng),
                ..random_stats(&mut rng)
            },
        };
        let mut bytes = encode_response(rng.gen(), &resp);
        for _ in 0..rng.gen_range(1usize..8) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen();
        }
        if let Ok(Some(raw)) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN) {
            let _ = raw.into_response();
        }
    }
}

/// A request of the frame kind the schema registry names. A registry
/// entry this match cannot build fails the test — adding a frame kind
/// to `schema.rs` forces this matrix to cover it.
fn request_of(name: &str, rng: &mut StdRng) -> Request {
    let dims = [16, 32, 64][rng.gen_range(0usize..3)];
    match name {
        "KNN" => Request::Knn {
            k: rng.gen_range(0u32..100),
            deadline_us: rng.gen_range(0u64..10_000_000),
            histogram: random_histogram(rng, dims),
        },
        "RANGE" => Request::Range {
            epsilon: rng.gen::<f64>() * 5.0,
            deadline_us: rng.gen_range(0u64..10_000_000),
            histogram: random_histogram(rng, dims),
        },
        "HEALTH" => Request::Health,
        "STATS" => Request::Stats,
        "SHUTDOWN" => Request::Shutdown,
        other => panic!("schema registry lists request frame {other:?} this matrix cannot build"),
    }
}

/// A response of the frame kind the schema registry names, with
/// extension-free stats (so the base frame stays version 1).
fn response_of(name: &str, rng: &mut StdRng) -> Response {
    match name {
        "RESULTS" => Response::Results {
            items: random_items(rng),
            stats: random_stats(rng),
        },
        "DEADLINE_EXCEEDED" => Response::DeadlineExceeded {
            items: random_items(rng),
            stats: random_stats(rng),
        },
        "OVERLOADED" => Response::Overloaded {
            queue_depth: rng.gen_range(0u32..1_000),
            stats: random_stats(rng),
        },
        "HEALTH_REPORT" => Response::HealthReport {
            draining: rng.gen_bool(0.5),
            db_size: rng.gen_range(0u64..1_000_000),
            dims: [16u32, 32, 64][rng.gen_range(0usize..3)],
            uptime_ms: rng.gen_range(0u64..1_000_000),
        },
        "STATS_REPORT" => Response::StatsReport {
            prometheus: random_string(rng),
        },
        "SHUTDOWN_STARTED" => Response::ShutdownStarted,
        "ERROR" => Response::Error {
            code: [
                ErrorCode::BadRequest,
                ErrorCode::Internal,
                ErrorCode::ShuttingDown,
            ][rng.gen_range(0usize..3)],
            message: random_string(rng),
        },
        other => panic!("schema registry lists response frame {other:?} this matrix cannot build"),
    }
}

/// The registered value of a named extension tag.
fn tag_of(name: &str) -> u8 {
    EXTENSION_TAGS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("extension tag {name:?} missing from schema registry"))
        .1
}

/// The same response with per-shard provenance attached, for the kinds
/// that carry stats (provenance rides a version-2 extension block).
fn with_provenance(resp: &Response, rng: &mut StdRng) -> Option<Response> {
    let mut prov = random_provenance(rng);
    if prov.is_empty() {
        prov = random_provenance(rng);
        prov.push(ShardProvenance {
            shard: 0,
            endpoint: "10.0.0.1:4400".to_string(),
            from_replica: false,
            retries: 0,
            hedge_fired: false,
            latency: Duration::from_millis(1),
            stats: QueryStats::default(),
        });
    }
    match resp.clone() {
        Response::Results { items, mut stats } => {
            stats.provenance = prov;
            Some(Response::Results { items, stats })
        }
        Response::DeadlineExceeded { items, mut stats } => {
            stats.provenance = prov;
            Some(Response::DeadlineExceeded { items, stats })
        }
        Response::Overloaded {
            queue_depth,
            mut stats,
        } => {
            stats.provenance = prov;
            Some(Response::Overloaded { queue_depth, stats })
        }
        _ => None,
    }
}

proptest! {
    /// Schema-driven matrix: every frame kind enumerated by the
    /// `schema.rs` registry round-trips, its wire type byte equals the
    /// registered code, and every registered extension tag rides every
    /// applicable frame kind (trace context on each request kind,
    /// provenance on each stats-bearing response kind, and every tag
    /// skippable by the legacy decode path on every request kind). The
    /// matrix is built FROM the registry, so a frame kind or tag added
    /// to `schema.rs` fails here until the codec and this test cover it.
    #[test]
    fn schema_matrix_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace_tag = tag_of("TRACE");
        let provenance_tag = tag_of("PROVENANCE");

        for &(name, code) in REQUEST_FRAMES {
            let req = request_of(name, &mut rng);
            let id: u64 = rng.gen();
            let plain = encode_request(id, &req).unwrap();
            prop_assert_eq!(plain[5], code, "wire type byte of {} != schema code", name);
            let raw = read_frame(&mut plain.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .expect("one full frame");
            let want = canonical(&req);
            let got = raw.into_request().unwrap();
            prop_assert!(requests_equal(&got, &want), "{}: {:?} != {:?}", name, got, want);

            // TRACE rides every request kind; the first extension block
            // starts right after the base payload.
            let context = random_trace(&mut rng);
            let traced = encode_request_traced(id, &req, Some(context)).unwrap();
            prop_assert_eq!(traced[plain.len()], trace_tag,
                "{}: first extension tag on a traced frame", name);
            let raw = read_frame(&mut traced.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .expect("one full frame");
            let (got, got_exts) = raw.into_request_ext().unwrap();
            prop_assert_eq!(got_exts.trace, Some(context));
            prop_assert!(requests_equal(&got, &want), "{}: traced payload differs", name);

            // Every registered tag on every request kind: an arbitrary
            // block body either parses or is rejected with a typed
            // error (registered tags are validated, not skipped), and a
            // successful decode never perturbs the base payload.
            for &(tag_name, tag) in EXTENSION_TAGS {
                let mut ext = plain.clone();
                let body: Vec<u8> = (0..rng.gen_range(0usize..16)).map(|_| rng.gen()).collect();
                append_ext(&mut ext, tag, &body);
                let raw = read_frame(&mut ext.as_slice(), DEFAULT_MAX_FRAME_LEN)
                    .unwrap()
                    .expect("one full frame");
                if let Ok(got) = raw.into_request() {
                    prop_assert!(requests_equal(&got, &want),
                        "{} + {}: extension block changed the base payload", name, tag_name);
                }
            }
        }

        for &(name, code) in RESPONSE_FRAMES {
            let resp = response_of(name, &mut rng);
            let id: u64 = rng.gen();
            let plain = encode_response(id, &resp);
            prop_assert_eq!(plain[5], code, "wire type byte of {} != schema code", name);
            prop_assert_eq!(plain[4], MIN_VERSION,
                "{}: extension-free responses stay version 1", name);
            let raw = read_frame(&mut plain.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .expect("one full frame");
            prop_assert_eq!(raw.into_response().unwrap(), resp.clone());

            // PROVENANCE rides every stats-bearing response kind.
            if let Some(extended_resp) = with_provenance(&resp, &mut rng) {
                let extended = encode_response(id, &extended_resp);
                prop_assert_eq!(extended[4], VERSION,
                    "{}: provenance needs a version-2 frame", name);
                prop_assert_eq!(extended[plain.len()], provenance_tag,
                    "{}: first extension tag on a provenance frame", name);
                let raw = read_frame(&mut extended.as_slice(), DEFAULT_MAX_FRAME_LEN)
                    .unwrap()
                    .expect("one full frame");
                prop_assert_eq!(raw.into_response().unwrap(), extended_resp);
            }
        }
    }
}

/// Appends one raw extension block to a frame, upgrading it to version
/// 2 and fixing the payload length — builds the hostile/unknown frames
/// the public encoder never produces.
fn append_ext(frame: &mut Vec<u8>, tag: u8, body: &[u8]) {
    frame[4] = VERSION;
    frame.push(tag);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    let payload_len = (frame.len() - HEADER_LEN) as u32;
    frame.splice(HEADER_LEN - 4..HEADER_LEN, payload_len.to_le_bytes());
}

/// Unknown extension tags must be skipped whole — a newer peer can ship
/// extensions this build has never heard of.
#[test]
fn unknown_extension_tag_is_skipped() {
    let mut bytes = encode_request(7, &Request::Health).unwrap();
    append_ext(&mut bytes, 0x7f, &[0xde, 0xad, 0xbe, 0xef]);
    let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    let (req, exts) = raw.into_request_ext().unwrap();
    assert_eq!(req, Request::Health);
    assert_eq!(
        exts,
        RequestExt::default(),
        "an unknown tag is neither a trace context nor a mode"
    );
}

/// An extension block whose length prefix runs past the payload is a
/// typed payload error, not an out-of-bounds read.
#[test]
fn extension_length_past_payload_is_rejected() {
    let mut bytes = encode_request(7, &Request::Health).unwrap();
    append_ext(&mut bytes, 0x01, &[0u8; 3]);
    // Lie about the block length: 100 bytes claimed, 3 present.
    let block_len_at = bytes.len() - 3 - 4;
    bytes.splice(block_len_at..block_len_at + 4, 100u32.to_le_bytes());
    let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    assert!(matches!(
        raw.into_request_ext(),
        Err(WireError::BadPayload(_))
    ));
}

/// A hostile element count inside a provenance extension is rejected
/// before allocation, like every other count on the wire.
#[test]
fn hostile_provenance_count_is_rejected() {
    let resp = Response::Results {
        items: Vec::new(),
        stats: QueryStats::default(),
    };
    let mut bytes = encode_response(3, &resp);
    append_ext(&mut bytes, 0x02, &u32::MAX.to_le_bytes());
    let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    assert!(matches!(raw.into_response(), Err(WireError::BadPayload(_))));
}

#[test]
fn oversized_length_prefix_is_rejected() {
    let mut bytes = encode_request(9, &Request::Health).unwrap();
    bytes.splice(HEADER_LEN - 4.., (DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes());
    match read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN) {
        Err(WireError::Oversized { len, max }) => {
            assert_eq!(len, DEFAULT_MAX_FRAME_LEN + 1);
            assert_eq!(max, DEFAULT_MAX_FRAME_LEN);
        }
        other => panic!("want Oversized, got {other:?}"),
    }
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let good = encode_request(1, &Request::Stats).unwrap();

    let mut bad = good.clone();
    bad.splice(..4, *b"HTTP");
    assert!(matches!(
        read_frame(&mut bad.as_slice(), DEFAULT_MAX_FRAME_LEN),
        Err(WireError::BadMagic(m)) if &m == b"HTTP"
    ));

    let mut bad = good.clone();
    bad.splice(4..5, [VERSION + 1]);
    assert!(matches!(
        read_frame(&mut bad.as_slice(), DEFAULT_MAX_FRAME_LEN),
        Err(WireError::BadVersion(v)) if v == VERSION + 1
    ));

    // Sanity: the untouched frame still parses.
    assert_eq!(good.get(..4).unwrap(), MAGIC);
    assert!(read_frame(&mut good.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .is_some());
}

#[test]
fn unknown_type_code_is_a_typed_error() {
    let mut bytes = encode_request(1, &Request::Health).unwrap();
    bytes.splice(5..6, [0x7f]);
    let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    assert!(matches!(
        raw.into_request(),
        Err(WireError::UnknownType(0x7f))
    ));
}

/// A hostile element count inside a response payload (here: an items
/// count far beyond the payload size) is rejected before allocation.
#[test]
fn hostile_item_count_is_rejected() {
    let resp = Response::Results {
        items: vec![(1, 0.5)],
        stats: QueryStats::default(),
    };
    let mut bytes = encode_response(3, &resp);
    // First payload field is the items count (u32 at HEADER_LEN).
    bytes.splice(HEADER_LEN..HEADER_LEN + 4, u32::MAX.to_le_bytes());
    let raw = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    assert!(matches!(raw.into_response(), Err(WireError::BadPayload(_))));
}

/// DESIGN.md §12 is the contract other implementers read: it must name
/// every frame kind (backticked, lowercase) and every extension tag
/// value (`0x..`) the schema registry lists, so a row added to
/// `schema.rs` fails here until the section documents it.
#[test]
fn design_section_12_documents_every_frame_and_tag() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md at the workspace root");
    let start = design
        .find("\n## 12. ")
        .expect("DESIGN.md has a section 12");
    let section = &design[start + 1..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];

    let mut missing = Vec::new();
    for (name, _) in REQUEST_FRAMES.iter().chain(RESPONSE_FRAMES) {
        let needle = format!("`{}`", name.to_lowercase());
        if !section.contains(&needle) {
            missing.push(needle);
        }
    }
    for (name, tag) in EXTENSION_TAGS {
        let needle = format!("{tag:#04x}");
        if !section.contains(&needle) {
            missing.push(format!("{needle} ({name})"));
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md §12 does not document: {missing:?}"
    );
}
