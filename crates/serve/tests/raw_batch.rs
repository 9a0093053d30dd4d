//! `WireClient::send_raw_batch` sends only what it can vouch for: a
//! buffer holding exactly one batch frame whose declared report count
//! matches the caller's.  Anything else is refused with a typed error
//! before a byte reaches the socket, so the acknowledged-report ledger
//! and the server's counts never disagree.  Its re-seal carries the old
//! checksum forward rather than re-hashing the frame, so a frame whose
//! bytes changed after it was sealed is refused by the daemon.

mod common;

use mdrr_obs::MonotonicClock;
use mdrr_serve::ServeConfig;
use mdrr_stream::wire::{
    encode_batch_payload, encode_frame, error_code, BATCH_PAYLOAD_HEADER_LEN, WIRE_HEADER_LEN,
};
use mdrr_stream::{ClientConfig, FrameType, WireClient, WireError};
use std::sync::Arc;

#[test]
fn send_raw_batch_refuses_what_it_cannot_vouch_for() {
    let schema = common::schema();
    let spec = common::all_specs().into_iter().next().unwrap();
    let sizes = spec.build_arc(&schema).unwrap().channel_sizes();
    let (server, _obs) = common::start_server(&schema, &spec, ServeConfig::default());
    let mut client = WireClient::connect(
        server.local_addr(),
        schema,
        spec,
        ClientConfig::default(),
        Arc::new(MonotonicClock::new()),
    )
    .unwrap();

    let batch = common::deterministic_batch(&sizes, 3, 25);
    let mut frame = encode_frame(
        FrameType::Batch,
        &encode_batch_payload(0, 0, &batch).unwrap(),
    )
    .unwrap();

    // A report count the frame does not declare.
    assert!(matches!(
        client.send_raw_batch(&mut frame, 24),
        Err(WireError::Malformed { .. })
    ));
    // A frame of another type.
    let mut hello = encode_frame(FrameType::Hello, &[0u8; 40]).unwrap();
    assert!(matches!(
        client.send_raw_batch(&mut hello, 0),
        Err(WireError::UnexpectedFrame { .. })
    ));
    // A buffer whose length disagrees with the declared payload length.
    let mut padded = frame.clone();
    padded.push(0);
    assert!(matches!(
        client.send_raw_batch(&mut padded, 25),
        Err(WireError::Malformed { .. })
    ));
    assert_eq!(client.in_flight(), 0);

    // Nothing was sent, so the session is intact and the ledger exact.
    client.send_raw_batch(&mut frame, 25).unwrap();
    client.flush().unwrap();
    assert_eq!(client.acked_reports(), 25);
    assert_eq!(client.close().unwrap(), 25);
    assert_eq!(server.drain().unwrap().acked_reports, 25);
}

#[test]
fn send_raw_batch_does_not_launder_a_frame_corrupted_after_sealing() {
    let schema = common::schema();
    let spec = common::all_specs().into_iter().next().unwrap();
    let sizes = spec.build_arc(&schema).unwrap().channel_sizes();
    let (server, obs) = common::start_server(&schema, &spec, ServeConfig::default());
    let mut client = WireClient::connect(
        server.local_addr(),
        schema,
        spec,
        ClientConfig::default(),
        Arc::new(MonotonicClock::new()),
    )
    .unwrap();

    let batch = common::deterministic_batch(&sizes, 5, 25);
    let mut frame = encode_frame(
        FrameType::Batch,
        &encode_batch_payload(0, 0, &batch).unwrap(),
    )
    .unwrap();
    client.send_raw_batch(&mut frame, 25).unwrap();
    client.flush().unwrap();
    assert_eq!(client.acked_reports(), 25);

    // One flipped bit in the first code, under the frame's old checksum:
    // the re-seal patches the seq but keeps the frame's checksum wrong.
    frame[WIRE_HEADER_LEN + BATCH_PAYLOAD_HEADER_LEN] ^= 1;
    client.send_raw_batch(&mut frame, 25).unwrap();
    match client.flush() {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, error_code::MALFORMED);
            assert!(message.contains("checksum mismatch"), "{message}");
        }
        other => panic!("expected a MALFORMED refusal, got {other:?}"),
    }
    assert_eq!(client.acked_reports(), 25);

    let drained = server.drain().unwrap();
    assert_eq!(drained.acked_reports, 25);
    assert_eq!(drained.collector.total_reports(), 25);
    assert_eq!(
        obs.registry()
            .snapshot()
            .counter_value("serve_rejects_total", &[("reason", "checksum_mismatch")]),
        Some(1)
    );
}
