//! Fuzz-style property tests for the wire-protocol decoder: whatever
//! bytes arrive — truncated frames, bit-flipped valid frames, random
//! garbage, hostile declared lengths — `Request::parse` / `Reply::parse`
//! must return a typed `Malformed`-class error rather than panic, and
//! must never allocate proportionally to an attacker-declared size.

use proptest::prelude::*;
use rand::split_mix_64;
use yoso::prelude::*;
use yoso_server::proto::{self, ProtoError};

/// A corpus of valid frames of both directions, covering every frame
/// type the dialect defines.
fn valid_frames() -> Vec<String> {
    let spec = JobSpec::new("fuzz", RewardConfig::balanced(Constraints::paper()));
    let requests = [
        Request::Submit {
            spec: spec.clone(),
            stream: true,
        },
        Request::Status { job: 7 },
        Request::Suspend { job: 7 },
        Request::Resume {
            job: 7,
            stream: false,
        },
        Request::Subscribe {
            job: 7,
            from_seq: Some(42),
        },
        Request::Stats,
        Request::Pong,
        Request::Shutdown,
    ];
    let replies = [
        Reply::Submitted { job: 7 },
        Reply::Event {
            job: 7,
            seq: 3,
            line: "{\"event\":\"search_iter\",\"iteration\":3}".to_string(),
        },
        Reply::Done(JobDone {
            job: 7,
            state: JobState::Completed,
            iterations: 10,
            best_reward: Some(1.25),
            error: None,
        }),
        Reply::ParetoFront(ParetoFront {
            job: 7,
            entries: vec![ParetoEntry {
                iteration: 1,
                accuracy: 0.9,
                latency_ms: 3.5,
                energy_mj: 0.7,
                reward: 1.1,
                hw: "pe8x8".to_string(),
            }],
        }),
        Reply::Ping,
        Reply::ShuttingDown,
        Reply::Error {
            code: ErrorCode::MalformedFrame,
            message: "nope".to_string(),
        },
    ];
    requests
        .iter()
        .map(Request::to_json)
        .chain(replies.iter().map(Reply::to_json))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte mutations of valid frames never panic the decoders; they
    /// either round-trip to some valid frame or fail with a typed
    /// error.
    #[test]
    fn mutated_frames_decode_or_fail_typed(seed in any::<u64>()) {
        let corpus = valid_frames();
        let mut s = seed;
        let pick = (split_mix_64(&mut s) % corpus.len() as u64) as usize;
        let mut bytes = corpus[pick].clone().into_bytes();
        let edits = 1 + (split_mix_64(&mut s) % 7) as usize;
        for _ in 0..edits {
            let at = (split_mix_64(&mut s) % bytes.len() as u64) as usize;
            bytes[at] = (split_mix_64(&mut s) & 0xFF) as u8;
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _: Result<Request, ProtoError> = Request::parse(&line);
        let _: Result<Reply, ProtoError> = Reply::parse(&line);
    }

    /// Pure garbage never panics either, and always fails typed.
    #[test]
    fn random_bytes_fail_typed(seed in any::<u64>(), len in 0usize..512) {
        let mut s = seed;
        let bytes: Vec<u8> = (0..len).map(|_| (split_mix_64(&mut s) & 0xFF) as u8).collect();
        let line = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(e) = Request::parse(&line) {
            prop_assert!(matches!(
                e.code,
                ErrorCode::MalformedFrame | ErrorCode::UnsupportedVersion | ErrorCode::InvalidSpec
            ));
        }
        if let Err(e) = Reply::parse(&line) {
            prop_assert!(matches!(
                e.code,
                ErrorCode::MalformedFrame | ErrorCode::UnsupportedVersion
            ));
        }
    }

    /// A hostile `pareto_front` frame declaring a huge entry count is
    /// rejected before any allocation sized by that count — bounded
    /// memory no matter what the peer declares.
    #[test]
    fn declared_pareto_counts_are_capped(
        count in proto::MAX_PARETO_ENTRIES + 1..u64::MAX / 2,
    ) {
        let frame = Event::new("pareto_front")
            .with_u64("v", PROTO_VERSION)
            .with_u64("job", 1)
            .with_u64("count", count)
            .to_json();
        let err = Reply::parse(&frame).unwrap_err();
        prop_assert_eq!(err.code, ErrorCode::MalformedFrame);
    }
}

/// Oversized lines are refused by length before the JSON layer sees
/// them, so a single frame can never make the decoder buffer more than
/// the cap.
#[test]
fn oversized_lines_are_rejected_by_length() {
    let huge = format!(
        "{{\"event\":\"stats\",\"v\":{PROTO_VERSION},\"pad\":\"{}\"}}",
        "x".repeat(proto::MAX_FRAME_LEN)
    );
    let err = Request::parse(&huge).unwrap_err();
    assert_eq!(err.code, ErrorCode::MalformedFrame);
    let err = Reply::parse(&huge).unwrap_err();
    assert_eq!(err.code, ErrorCode::MalformedFrame);
}
