//! JSON round-trip property tests for the `/v1/cluster/*` DTOs, on the
//! workspace's deterministic proptest shim.
//!
//! Same contract as `proptests.rs` for the v1 API surface:
//! `decode(encode(dto)) == dto` for all field values, encoding is
//! canonical (a second encode of the decoded value is byte-identical),
//! and malformed wire text never panics the decoder. The cluster DTOs
//! carry the replication protocol — seals, ack-votes, digests — so a
//! round-trip bug here would corrupt state *between* nodes, the exact
//! place the trust model says tampering must be detectable.
//!
//! [`REGRESSION_SEEDS`] pins generator seeds that exercised past
//! trouble spots (deep nesting, spiked strings in hex-adjacent fields,
//! maximum counters); they replay on every run, independent of the
//! random cases.

use proptest::prelude::*;
use proptest::TestRng;
use tsr_wire::dto::WireDto;
use tsr_wire::{
    ClusterConfigDto, ClusterDigestDto, NodeInfoDto, ReplicateAckDto, ReplicateRequestDto,
    ReplicatedState, RepoDigestDto,
};

/// Printable-ASCII strings spiked with characters that exercise the
/// escaper: quotes, backslashes, newlines, tabs, control chars, and
/// non-ASCII codepoints.
fn wild_string() -> impl Strategy<Value = String> {
    "\\PC{0,24}".prop_perturb(|mut s, mut rng: TestRng| {
        const SPIKES: [char; 8] = ['"', '\\', '\n', '\t', '\r', '\u{0001}', 'é', '\u{1F600}'];
        for _ in 0..rng.below(4) {
            let spike = SPIKES[rng.below(SPIKES.len() as u64) as usize];
            let pos = rng.below(s.len() as u64 + 1) as usize;
            // Insert at a char boundary at or before `pos`.
            let at = (0..=pos).rev().find(|i| s.is_char_boundary(*i)).unwrap();
            s.insert(at, spike);
        }
        s
    })
}

fn roundtrip<T: WireDto + PartialEq + std::fmt::Debug>(dto: &T) -> Result<(), TestCaseError> {
    let text = dto.encode();
    let back = T::decode(&text).map_err(TestCaseError::fail)?;
    prop_assert_eq!(&back, dto, "wire text was: {}", text);
    // Encoding is canonical: a second round produces identical text.
    prop_assert_eq!(back.encode(), text);
    Ok(())
}

fn node_info() -> impl Strategy<Value = NodeInfoDto> {
    ("node-[0-9]{1,4}", wild_string(), wild_string()).prop_map(|(id, base_url, continent)| {
        NodeInfoDto {
            id,
            base_url,
            continent,
        }
    })
}

fn cluster_config() -> impl Strategy<Value = ClusterConfigDto> {
    (
        any::<u64>(),
        any::<u32>(),
        proptest::collection::vec(node_info(), 0..5),
    )
        .prop_map(|(epoch, replication, nodes)| ClusterConfigDto {
            epoch,
            replication: replication as usize,
            nodes,
        })
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn blob() -> impl Strategy<Value = (String, std::sync::Arc<[u8]>)> {
    ("[0-9a-f]{64}", bytes(32)).prop_map(|(hash, bytes)| (hash, bytes.into()))
}

fn repo_seal() -> impl Strategy<Value = ReplicatedState> {
    (
        ("repo-[0-9]{1,6}", wild_string()),
        (wild_string(), wild_string()),
        (
            (bytes(64), any::<u64>(), wild_string()),
            proptest::collection::vec(blob(), 0..4),
        ),
    )
        .prop_map(
            |(
                (id, policy_text),
                (upstream_index, sanitized_index),
                ((sealed, seal_counter, index_etag), blobs),
            )| ReplicatedState {
                id,
                policy_text,
                upstream_index,
                sanitized_index,
                sealed,
                seal_counter,
                index_etag,
                blobs,
            },
        )
}

fn repo_digest() -> impl Strategy<Value = RepoDigestDto> {
    ("repo-[0-9]{1,6}", wild_string(), any::<u64>()).prop_map(|(id, index_etag, seal_counter)| {
        RepoDigestDto {
            id,
            index_etag,
            seal_counter,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_info_roundtrip(n in node_info()) {
        roundtrip(&n)?;
    }

    #[test]
    fn cluster_config_roundtrip(c in cluster_config()) {
        roundtrip(&c)?;
    }

    #[test]
    fn repo_seal_roundtrip(seal in repo_seal()) {
        roundtrip(&seal)?;
    }

    #[test]
    fn replicate_request_roundtrip(
        epoch in any::<u64>(),
        primary in "node-[0-9]{1,4}",
        state in repo_seal(),
        request_id in "(req-[0-9a-f]{1,12})?",
    ) {
        roundtrip(&ReplicateRequestDto { epoch, primary, state, request_id })?;
    }

    #[test]
    fn replicate_ack_roundtrip(
        ids in ("node-[0-9]{1,4}", "repo-[0-9]{1,6}"),
        index_etag in wild_string(),
        seal_counter in any::<u64>(),
        accepted in any::<bool>(),
        detail in wild_string(),
        request_id in "(req-[0-9a-f]{1,12})?",
    ) {
        roundtrip(&ReplicateAckDto {
            node: ids.0,
            repo: ids.1,
            index_etag,
            seal_counter,
            accepted,
            detail,
            request_id,
        })?;
    }

    #[test]
    fn repo_digest_roundtrip(d in repo_digest()) {
        roundtrip(&d)?;
    }

    #[test]
    fn cluster_digest_roundtrip(
        node in "node-[0-9]{1,4}",
        epoch in any::<u64>(),
        repos in proptest::collection::vec(repo_digest(), 0..6),
    ) {
        roundtrip(&ClusterDigestDto { node, epoch, repos })?;
    }

    #[test]
    fn malformed_cluster_wire_text_never_panics(seed in any::<u64>()) {
        // Mutate valid wire text at a random byte: decode must error or
        // succeed, never panic. The seal DTO nests deepest, so it gets
        // the fuzzing.
        let mut rng = TestRng::from_name(&format!("cluster-mutate-{seed}"));
        let dto = Strategy::sample(&repo_seal(), &mut rng);
        let mut bytes = dto.encode().into_bytes();
        for _ in 0..1 + rng.below(3) {
            let pos = rng.below(bytes.len() as u64) as usize;
            bytes[pos] = (rng.next_u64() % 256) as u8;
        }
        let _ = ReplicatedState::decode(&String::from_utf8_lossy(&bytes));
        let _ = ReplicateRequestDto::decode(&String::from_utf8_lossy(&bytes));
        let _ = ClusterDigestDto::decode(&String::from_utf8_lossy(&bytes));
    }
}

/// Generator seeds replayed on every run (the shim derives all
/// randomness from the name, so these replay bit-for-bit forever).
/// Each captures a shape that once needed a decoder fix or review:
/// empty node lists, maximum counters, spiked strings inside otherwise
/// hex-looking fields, and a seal with every container empty.
const REGRESSION_SEEDS: [u64; 6] = [
    0,                     // all-minimal values
    42,                    // short spiked strings
    7077,                  // multi-node config with non-ASCII continent
    3_237_998_146,         // the pinned CI scenario seed
    9_007_199_254_740_993, // > 2^53: JSON integer precision edge
    u64::MAX,              // saturated counters everywhere
];

#[test]
fn regression_seeds_replay() {
    for seed in REGRESSION_SEEDS {
        let mut rng = TestRng::from_name(&format!("cluster-regression-{seed}"));
        let config = Strategy::sample(&cluster_config(), &mut rng);
        let seal = Strategy::sample(&repo_seal(), &mut rng);
        let digest = Strategy::sample(
            &(
                "node-[0-9]{1,4}",
                proptest::collection::vec(repo_digest(), 0..6),
            ),
            &mut rng,
        );
        let push = ReplicateRequestDto {
            epoch: seed,
            primary: "node-0".into(),
            state: seal.clone(),
            request_id: format!("req-{seed:x}"),
        };
        for r in [
            roundtrip(&config),
            roundtrip(&seal),
            roundtrip(&ClusterDigestDto {
                node: digest.0,
                epoch: seed,
                repos: digest.1,
            }),
            roundtrip(&push),
        ] {
            if let Err(e) = r {
                panic!("regression seed {seed} failed: {e:?}");
            }
        }
    }
}

#[test]
fn saturated_counters_roundtrip_exactly() {
    // u64::MAX must survive the JSON layer undamaged — seal counters
    // compare across nodes, so losing low bits would corrupt quorum
    // decisions silently.
    let dto = RepoDigestDto {
        id: "repo-1".into(),
        index_etag: "\"etag\"".into(),
        seal_counter: u64::MAX,
    };
    let back = RepoDigestDto::decode(&dto.encode()).unwrap();
    assert_eq!(back.seal_counter, u64::MAX);
}

#[test]
fn replicated_state_json_is_the_parents() {
    // The literal is what the previous format printed for this image,
    // less its per-package `packages` refs: the one change to
    // `/v1/cluster/*` bytes since the merged type, made on purpose.
    const STATE: &str = r#"{"blobs":[{"bytes_hex":"6f726967","hash":"aa11"},{"bytes_hex":"7f800a","hash":"bb22"}],"id":"repo-7","index_etag":"\"e7a9\"","policy_text":"f: 1\n","sanitized_index":"P:tool\nV:1.0-tsr\n\n","seal_counter":3,"sealed_hex":"0001feff","upstream_index":"P:tool\nV:1.0\n\n"}"#;
    // The previous format, refs included, still decodes to the same
    // state (unknown keys are ignored), so a push from a node of that
    // version applies here. The other direction does not hold: that
    // version requires `packages`, so a cluster upgrades all at once.
    const PARENT: &str = r#"{"blobs":[{"bytes_hex":"6f726967","hash":"aa11"},{"bytes_hex":"7f800a","hash":"bb22"}],"id":"repo-7","index_etag":"\"e7a9\"","packages":[{"name":"tool","original_hash":"aa11","sanitized_hash":"bb22"},{"name":"rejected","original_hash":"cc33","sanitized_hash":""}],"policy_text":"f: 1\n","sanitized_index":"P:tool\nV:1.0-tsr\n\n","seal_counter":3,"sealed_hex":"0001feff","upstream_index":"P:tool\nV:1.0\n\n"}"#;
    let state = ReplicatedState {
        id: "repo-7".into(),
        policy_text: "f: 1\n".into(),
        upstream_index: "P:tool\nV:1.0\n\n".into(),
        sanitized_index: "P:tool\nV:1.0-tsr\n\n".into(),
        sealed: vec![0x00, 0x01, 0xfe, 0xff],
        seal_counter: 3,
        index_etag: "\"e7a9\"".into(),
        blobs: vec![
            ("aa11".into(), b"orig"[..].into()),
            ("bb22".into(), [0x7f, 0x80, 0x0a][..].into()),
        ],
    };
    assert_eq!(state.encode(), STATE);
    assert_eq!(ReplicatedState::decode(STATE).unwrap(), state);
    assert_eq!(ReplicatedState::decode(PARENT).unwrap(), state);
    let push = ReplicateRequestDto {
        epoch: 2,
        primary: "node-0".into(),
        state,
        request_id: "req-1".into(),
    };
    let text = format!(r#"{{"epoch":2,"primary":"node-0","request_id":"req-1","state":{STATE}}}"#);
    assert_eq!(push.encode(), text);
    assert_eq!(ReplicateRequestDto::decode(&text).unwrap(), push);
    let parent =
        format!(r#"{{"epoch":2,"primary":"node-0","request_id":"req-1","state":{PARENT}}}"#);
    assert_eq!(ReplicateRequestDto::decode(&parent).unwrap(), push);
    // Hex that does not decode fails the decode (the node answers 400).
    assert!(ReplicatedState::decode(&STATE.replace("0001feff", "0001fef")).is_err());
    assert!(ReplicateRequestDto::decode(&text.replace("7f800a", "7g800a")).is_err());
}
