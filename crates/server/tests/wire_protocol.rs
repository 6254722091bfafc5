//! Adversarial decode suite for the `sd-wire` protocol: every malformed
//! shape — truncation at every offset, wrong magic, future version,
//! oversized length prefix, unknown verbs, trailing bytes, hostile
//! payloads, and generated mutations of a frame of every verb — must fail
//! with a typed [`WireError`], and a live server fed the same garbage must
//! answer a typed error frame, never hang or die.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use sd_core::{paper_figure1_graph, GraphFingerprint, SearchService, TopREntry};
use sd_graph::GraphUpdate;
use sd_server::{
    server_scope, BatchLimits, Client, ErrorCode, ErrorResponse, Frame, OverloadInfo,
    OverloadReason, QueryOutcome, QueryRequest, QueryResponse, Request, Response, Server,
    ServerConfig, ServerStatsWire, StatsResponse, TenantRegistry, TenantStatsWire, UpdateRequest,
    UpdateResponse, Verb, WireError, WireQuery, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD,
};

fn sample_frame_bytes() -> Vec<u8> {
    let request = Request::Query(QueryRequest {
        deadline_ms: 125,
        queries: vec![WireQuery::new(3, 4), WireQuery::new(4, 2)],
    });
    let fp = sd_core::GraphFingerprint { n: 17, m: 42, edge_checksum: 0x1234_5678 };
    request.to_frame(fp).encode().as_ref().to_vec()
}

// ---------------------------------------------------------------------------
// Pure decode: headers

#[test]
fn truncation_at_every_offset_is_typed() {
    let bytes = sample_frame_bytes();
    assert!(bytes.len() > FRAME_HEADER_BYTES, "sample has a payload");
    for len in 0..bytes.len() {
        let err = Frame::decode(Bytes::from(&bytes[..len])).expect_err("truncated input");
        assert_eq!(err, WireError::Truncated, "prefix of {len} bytes");
    }
    // And the full frame still decodes — the loop above really was about
    // truncation, not some other defect.
    assert!(Frame::decode(Bytes::from(bytes)).is_ok());
}

#[test]
fn header_only_truncation_is_typed() {
    let bytes = sample_frame_bytes();
    for len in 0..FRAME_HEADER_BYTES {
        assert_eq!(Frame::decode_header(&bytes[..len]), Err(WireError::Truncated));
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = sample_frame_bytes();
    bytes[0] ^= 0xFF;
    assert_eq!(Frame::decode_header(&bytes), Err(WireError::BadMagic));
    // All-zero header: also bad magic, not a panic.
    assert_eq!(Frame::decode_header(&[0u8; FRAME_HEADER_BYTES]), Err(WireError::BadMagic));
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = sample_frame_bytes();
    bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
    assert_eq!(Frame::decode_header(&bytes), Err(WireError::UnsupportedVersion { version: 7 }));
}

#[test]
fn every_unknown_verb_tag_is_rejected() {
    let known = [0x01u8, 0x02, 0x03, 0x0F, 0x81, 0x82, 0x83, 0x8F, 0xE0, 0xE1];
    let mut bytes = sample_frame_bytes();
    for tag in 0..=255u8 {
        bytes[6] = tag;
        let header = Frame::decode_header(&bytes);
        if known.contains(&tag) {
            assert!(header.is_ok(), "tag {tag:#04x} is a real verb");
        } else {
            assert_eq!(header, Err(WireError::UnknownVerb { verb: tag }), "tag {tag:#04x}");
        }
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    let mut bytes = sample_frame_bytes();
    for len in [MAX_FRAME_PAYLOAD + 1, u64::MAX / 2, u64::MAX] {
        bytes[8..16].copy_from_slice(&len.to_le_bytes());
        assert_eq!(Frame::decode_header(&bytes), Err(WireError::OversizedPayload { len }));
    }
    // Exactly at the cap the *header* is fine (the payload then has to
    // actually be present).
    bytes[8..16].copy_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
    assert!(Frame::decode_header(&bytes).is_ok());
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = sample_frame_bytes();
    bytes.push(0);
    assert_eq!(Frame::decode(Bytes::from(bytes)), Err(WireError::TrailingBytes));
}

// ---------------------------------------------------------------------------
// Pure decode: hostile payloads behind a well-formed header

fn decode_request(verb: Verb, payload: Vec<u8>) -> Result<Request, WireError> {
    Request::from_frame(&Frame::new(verb, server_scope(), Bytes::from(payload)))
}

fn decode_response(verb: Verb, payload: Vec<u8>) -> Result<Response, WireError> {
    Response::from_frame(&Frame::new(verb, server_scope(), Bytes::from(payload)))
}

/// Covers a tag never assigned and tag 5, which is retired and never
/// reused.
#[test]
fn query_payload_with_unknown_engine_tag_is_rejected() {
    let good = QueryRequest { deadline_ms: 0, queries: vec![WireQuery::new(3, 4)] }
        .encode_payload()
        .as_ref()
        .to_vec();
    for tag in [0x99, 5] {
        let mut payload = good.clone();
        *payload.last_mut().unwrap() = tag; // engine tag is the query's last byte
        assert_eq!(
            decode_request(Verb::Query, payload),
            Err(WireError::InvalidPayload { what: "unknown engine tag" }),
            "tag {tag}"
        );
    }
}

#[test]
fn query_payload_with_lying_count_is_rejected() {
    let mut payload = QueryRequest { deadline_ms: 0, queries: vec![WireQuery::new(3, 4)] }
        .encode_payload()
        .as_ref()
        .to_vec();
    payload[4..6].copy_from_slice(&500u16.to_le_bytes()); // claims 500 queries, carries 1
    assert_eq!(decode_request(Verb::Query, payload), Err(WireError::Truncated));
}

#[test]
fn update_payload_with_unknown_op_is_rejected() {
    let mut payload = UpdateRequest { updates: vec![GraphUpdate::Insert { u: 1, v: 2 }] }
        .encode_payload()
        .as_ref()
        .to_vec();
    payload[4] = 9; // op byte of the first update
    assert_eq!(
        decode_request(Verb::Update, payload),
        Err(WireError::InvalidPayload { what: "unknown update op" })
    );
}

#[test]
fn empty_verbs_reject_smuggled_payload_bytes() {
    assert_eq!(decode_request(Verb::Stats, vec![1, 2, 3]), Err(WireError::TrailingBytes));
    assert_eq!(decode_request(Verb::Shutdown, vec![0]), Err(WireError::TrailingBytes));
    assert_eq!(decode_response(Verb::ShutdownOk, vec![0]), Err(WireError::TrailingBytes));
}

#[test]
fn response_payload_corruptions_are_typed() {
    // Unknown outcome status byte inside a QueryOk.
    let mut payload = Vec::new();
    payload.extend_from_slice(&3u64.to_le_bytes()); // epoch
    payload.extend_from_slice(&1u16.to_le_bytes()); // one outcome
    payload.push(7); // status 7 does not exist
    assert_eq!(
        decode_response(Verb::QueryOk, payload),
        Err(WireError::InvalidPayload { what: "unknown outcome status" })
    );

    // An UpdateOk is six u64s: one byte short is truncated, and the
    // version-5 layout's extra flag byte is trailing.
    assert_eq!(decode_response(Verb::UpdateOk, vec![0u8; 47]), Err(WireError::Truncated));
    assert_eq!(decode_response(Verb::UpdateOk, vec![0u8; 49]), Err(WireError::TrailingBytes));

    // Unknown stats scope byte.
    assert_eq!(
        decode_response(Verb::StatsOk, vec![9]),
        Err(WireError::InvalidPayload { what: "unknown stats scope" })
    );

    // Unknown overload reasons: 0 and 0x99 were never assigned, and 2 (the
    // build-queue shed) is retired and never reused.
    for reason in [0u8, 2, 0x99] {
        let mut payload = vec![0u8; 21];
        payload[0] = reason;
        assert_eq!(
            decode_response(Verb::Overloaded, payload),
            Err(WireError::InvalidPayload { what: "unknown overload reason" }),
            "reason {reason}"
        );
    }

    // Unknown error code, and a non-UTF-8 message.
    let mut payload = vec![99u8];
    payload.extend_from_slice(&0u16.to_le_bytes());
    assert_eq!(
        decode_response(Verb::Error, payload),
        Err(WireError::InvalidPayload { what: "unknown error code" })
    );
    let mut payload = vec![1u8]; // UnknownTenant
    payload.extend_from_slice(&2u16.to_le_bytes());
    payload.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
    assert_eq!(
        decode_response(Verb::Error, payload),
        Err(WireError::InvalidPayload { what: "non-UTF-8 string" })
    );
}

#[test]
fn request_and_response_verbs_do_not_cross_decode() {
    // A server must never accept a response verb, nor a client a request
    // verb — a desynchronized peer fails on the verb, not a misparse.
    assert_eq!(
        decode_request(Verb::QueryOk, Vec::new()),
        Err(WireError::UnknownVerb { verb: 0x81 })
    );
    assert_eq!(
        decode_response(Verb::Query, Vec::new()),
        Err(WireError::UnknownVerb { verb: 0x01 })
    );
}

// ---------------------------------------------------------------------------
// Generative fuzzing: mutated frames of every verb

/// Cases per run of the fuzzing property; a debug run of it takes about a
/// tenth of a second.
const FUZZ_CASES: u32 = 4096;

/// One encoded frame per request and response shape, each payload
/// exercising every field its verb carries.
fn every_verb_frame() -> Vec<Vec<u8>> {
    let fp = GraphFingerprint { n: 17, m: 42, edge_checksum: 0x1234_5678 };
    let requests = [
        Request::Query(QueryRequest {
            deadline_ms: 125,
            queries: vec![WireQuery::new(3, 4), WireQuery::new(4, 2)],
        }),
        Request::Update(UpdateRequest {
            updates: vec![GraphUpdate::Insert { u: 1, v: 2 }, GraphUpdate::Remove { u: 3, v: 0 }],
        }),
        Request::Stats,
        Request::Shutdown,
    ];
    let entry = TopREntry { vertex: 0, score: 2, contexts: vec![vec![1, 2, 3, 4], vec![5, 6, 7]] };
    let tenant = TenantStatsWire {
        fingerprint: fp,
        epoch: 1,
        queries_served: 9,
        engines_built: 2,
        background_builds: 1,
        foreground_fallbacks: 1,
        epochs: 2,
        updates_applied: 3,
        gct_repairs: 4,
        parallel_queries: 6,
        pool_threads: 2,
    };
    let responses = [
        Response::Query(QueryResponse {
            epoch: 2,
            outcomes: vec![
                QueryOutcome::Answered(vec![entry]),
                QueryOutcome::Failed { code: ErrorCode::BadRequest, message: "r > n".into() },
                QueryOutcome::Expired,
            ],
        }),
        Response::Update(UpdateResponse {
            epoch: 3,
            applied: 2,
            rejected: 1,
            tsd_repairs: 5,
            n: 17,
            m: 43,
        }),
        Response::Stats(StatsResponse::Server(ServerStatsWire {
            tenants: 1,
            requests_served: 12,
            ..ServerStatsWire::default()
        })),
        Response::Stats(StatsResponse::Tenant(tenant)),
        Response::Shutdown,
        Response::Error(ErrorResponse { code: ErrorCode::UnknownTenant, message: "who?".into() }),
        Response::Overloaded(OverloadInfo {
            reason: OverloadReason::QueryQueue,
            measured: 70,
            limit: 64,
            retry_after_ms: 5,
        }),
    ];
    let frames =
        requests.iter().map(|r| r.to_frame(fp)).chain(responses.iter().map(|r| r.to_frame(fp)));
    frames.map(|frame| frame.encode().as_ref().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FUZZ_CASES))]

    /// A frame of any verb with 1–4 bytes overwritten anywhere (the
    /// header included), or cut short, decodes — as a frame, then as a
    /// request and as a response — to `Ok` or a typed `WireError`, never a
    /// panic; and whatever still decodes round-trips through its encoder.
    #[test]
    fn mutated_frames_of_every_verb_decode_or_fail_typed(
        which in any::<usize>(),
        truncate in any::<bool>(),
        cut in any::<usize>(),
        writes in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..5),
    ) {
        let frames = every_verb_frame();
        let mut bytes = frames[which % frames.len()].clone();
        if truncate {
            bytes.truncate(cut % bytes.len());
        } else {
            let len = bytes.len();
            for (at, byte) in writes {
                bytes[at % len] = byte;
            }
        }
        if let Ok(frame) = Frame::decode(Bytes::from(bytes)) {
            if let Ok(request) = Request::from_frame(&frame) {
                let again = Request::from_frame(&request.to_frame(frame.fingerprint));
                prop_assert_eq!(again, Ok(request));
            }
            if let Ok(response) = Response::from_frame(&frame) {
                let again = Response::from_frame(&response.to_frame(frame.fingerprint));
                prop_assert_eq!(again, Ok(response));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The same garbage against a live server

fn tiny_server() -> (Server, sd_core::GraphFingerprint) {
    let registry = Arc::new(TenantRegistry::new(BatchLimits::default()));
    let (graph, _, _) = paper_figure1_graph();
    let key = registry.register(Arc::new(SearchService::new(graph))).expect("register");
    let server = Server::start(ServerConfig::default(), registry).expect("bind ephemeral port");
    (server, key)
}

#[test]
fn live_server_answers_garbage_header_with_typed_error_and_closes() {
    let (server, _) = tiny_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // At least FRAME_HEADER_BYTES of garbage so the server's header read
    // completes and it can answer with a typed error before closing.
    client.send_bytes(b"GET / HTTP/1.1\r\nHost: example.invalid\r\n\r\n pad pad").expect("send");
    let resp = client.read_response().expect("typed reply before close");
    let Response::Error(err) = resp else { panic!("expected Error, got {resp:?}") };
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.message.contains("magic"), "message was {:?}", err.message);
    // A malformed header desynchronizes the stream, so the server closed it.
    assert!(client.read_response().is_err(), "connection closed after header-level garbage");
    server.shutdown();
}

#[test]
fn live_server_rejects_oversized_length_prefix_without_reading_payload() {
    let (server, _) = tiny_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut header = Frame::new(Verb::Query, server_scope(), Bytes::new()).encode().as_ref()
        [..FRAME_HEADER_BYTES]
        .to_vec();
    header[8..16].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    client.send_bytes(&header).expect("send");
    // No payload follows — the server must reply from the header alone.
    let resp = client.read_response().expect("typed reply");
    let Response::Error(err) = resp else { panic!("expected Error, got {resp:?}") };
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.message.contains("exceeds cap"), "message was {:?}", err.message);
    server.shutdown();
}

#[test]
fn live_server_survives_payload_level_garbage_and_keeps_the_connection() {
    let (server, key) = tiny_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // A response verb sent as a request: well-formed header, nonsense
    // direction. Payload-level failure, so the stream stays usable.
    let frame = Frame::new(Verb::QueryOk, key, Bytes::from(vec![0u8; 10]));
    let resp = client.roundtrip(&frame).expect("typed reply");
    let Response::Error(err) = resp else { panic!("expected Error, got {resp:?}") };
    assert_eq!(err.code, ErrorCode::BadRequest);
    // Same connection, a real query now succeeds.
    let answer = client.query(key, 0, vec![WireQuery::new(3, 2)]).expect("connection survived");
    assert_eq!(answer.outcomes.len(), 1);
    server.shutdown();
}

#[test]
fn live_server_rejects_update_with_unknown_op_in_place() {
    let (server, key) = tiny_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut payload = UpdateRequest { updates: vec![GraphUpdate::Insert { u: 0, v: 99 }] }
        .encode_payload()
        .as_ref()
        .to_vec();
    payload[4] = 77;
    let frame = Frame::new(Verb::Update, key, Bytes::from(payload));
    let resp = client.roundtrip(&frame).expect("typed reply");
    let Response::Error(err) = resp else { panic!("expected Error, got {resp:?}") };
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.message.contains("unknown update op"), "message was {:?}", err.message);
    // The hostile frame must not have published an epoch.
    let stats = client.tenant_stats(key).expect("stats");
    assert_eq!(stats.epoch, 0, "no update applied");
    server.shutdown();
}

/// One op naming vertex `u32::MAX` used to grow every per-vertex table of
/// the tenant to four billion entries and abort the process. It is now a
/// rejected op: the reply counts it, nothing publishes, and the server
/// keeps serving.
#[test]
fn live_server_rejects_an_update_reaching_past_the_growth_bound() {
    let (server, key) = tiny_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .update(key, vec![GraphUpdate::Insert { u: 0, v: u32::MAX }])
        .expect("typed update reply");
    assert_eq!((resp.applied, resp.rejected), (0, 1));
    assert_eq!((resp.epoch, resp.n), (0, 17), "nothing published, nothing grew");
    assert_eq!(client.tenant_stats(key).expect("stats").epoch, 0);
    let answer = client.query(key, 0, vec![WireQuery::new(4, 1)]).expect("server still answers");
    assert_eq!(answer.epoch, 0);
    assert_eq!(answer.outcomes.len(), 1);
    server.shutdown();
}

#[test]
fn wrong_fingerprint_routes_to_typed_unknown_tenant() {
    let (server, key) = tiny_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut wrong = key;
    wrong.edge_checksum ^= 1;
    for request in [
        Request::Query(QueryRequest { deadline_ms: 0, queries: vec![WireQuery::new(3, 2)] }),
        Request::Update(UpdateRequest { updates: vec![GraphUpdate::Insert { u: 0, v: 99 }] }),
        Request::Stats,
    ] {
        let resp = client.roundtrip(&request.to_frame(wrong)).expect("typed reply");
        let Response::Error(err) = resp else { panic!("expected Error, got {resp:?}") };
        assert_eq!(err.code, ErrorCode::UnknownTenant);
        assert!(err.message.contains("no tenant"), "message was {:?}", err.message);
    }
    // The near-miss fingerprint did not disturb the real tenant.
    let answer = client.query(key, 0, vec![WireQuery::new(3, 2)]).expect("real tenant fine");
    assert_eq!(answer.epoch, 0);
    server.shutdown();
}
