//! Property fuzz of the shard wire codec: every f64 bit pattern must
//! round-trip exactly, and torn / truncated / corrupted / oversized /
//! hollow frames and unknown message tags must come back as typed
//! [`CodecError`]s — never a panic, never a silently wrong message.

use md_geometry::Vec3;
use md_shard::codec::{frame, Codec, CodecError, MAX_FRAME};
use md_shard::{GhostExport, HaloCounters, InitSpec, Msg, PhaseStat, ShardAtom};
use proptest::collection;
use proptest::prelude::*;

fn vec3_of(bits: (u64, u64, u64)) -> Vec3 {
    Vec3::new(
        f64::from_bits(bits.0),
        f64::from_bits(bits.1),
        f64::from_bits(bits.2),
    )
}

type AtomBits = (u64, (u64, u64, u64), (u64, u64, u64));

fn atoms_of(raw: Vec<AtomBits>) -> Vec<ShardAtom> {
    raw.into_iter()
        .map(|(gid, pos, vel)| ShardAtom {
            gid,
            pos: vec3_of(pos),
            vel: vec3_of(vel),
        })
        .collect()
}

fn atom_bits() -> impl Strategy<Value = AtomBits> {
    (
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
}

/// One message of every variant, carrying the given atoms and floats
/// wherever the variant has a payload, plus a NaN and a signed zero.
fn every_message(atoms: Vec<ShardAtom>, fp: Vec<f64>, kick: bool) -> Vec<Msg> {
    let x = fp.first().copied().unwrap_or(-0.0);
    let pos: Vec<Vec3> = atoms.iter().map(|a| a.pos).collect();
    vec![
        Msg::Init(Box::new(InitSpec {
            rank: 1,
            n_ranks: 2,
            axis: 0,
            box_lengths: [x, 11.0, 12.0],
            potential: "fe".to_string(),
            tabulated: kick,
            fused: !kick,
            simd: kick,
            strategy: "sdc2d".to_string(),
            threads: 2,
            skin: 0.3,
            dt: 0.002,
            mass: 55.845,
            step: 7,
            atoms: atoms.clone(),
        })),
        Msg::Ready { rank: 1 },
        Msg::PeerListen {
            dir: "mesh".to_string(),
        },
        Msg::PeerBound,
        Msg::PeerConnect,
        Msg::PeerReady,
        Msg::Begin,
        Msg::DispOut { max_sq: x },
        Msg::Migrate,
        Msg::MigOut {
            to: vec![vec![], atoms.clone()],
        },
        Msg::MigIn {
            atoms: atoms.clone(),
        },
        Msg::HaloPos,
        Msg::HaloSent,
        Msg::HaloDensity,
        Msg::DensityDone,
        Msg::HaloForce { kick },
        Msg::StepDone { step: 8 },
        Msg::Save {
            dir: "ckpt".to_string(),
        },
        Msg::Saved {
            path: "ckpt/shard-0@8.ckpt".to_string(),
        },
        Msg::Gather,
        Msg::State {
            atoms: atoms.clone(),
        },
        Msg::Stats,
        Msg::StatsOut {
            phases: vec![PhaseStat {
                name: "force".to_string(),
                seconds: f64::NAN,
                count: 12,
            }],
        },
        Msg::Counters,
        Msg::CountersOut {
            counters: HaloCounters {
                ghost_sent: 10,
                ghost_installed: 10,
                bytes_sent: 4096,
                bytes_recv: 2048,
                wire_seconds: -0.0,
            },
        },
        Msg::Shutdown,
        Msg::PeerHello { rank: 3 },
        Msg::PeerGhosts {
            export: GhostExport {
                gids: atoms.iter().map(|a| a.gid).collect(),
                pos: pos.clone(),
            },
        },
        Msg::PeerPos { pos },
        Msg::PeerFp { fp },
    ]
}

/// The tag byte of every message variant.
fn message_tags() -> Vec<u8> {
    let tags: Vec<u8> = every_message(vec![], vec![], false)
        .iter()
        .map(|m| m.encode()[0])
        .collect();
    let mut distinct = tags.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), tags.len(), "two variants share a tag");
    tags
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_message_round_trips_bit_exactly(
        raw in collection::vec(atom_bits(), 0..8),
        fp_bits in collection::vec(any::<u64>(), 0..6),
        kick in proptest::bool::ANY,
    ) {
        // NaN breaks `PartialEq`, so messages are compared through their
        // payload bytes, which preserve every bit pattern.
        let fp = fp_bits.iter().map(|&b| f64::from_bits(b)).collect();
        for msg in every_message(atoms_of(raw.clone()), fp, kick) {
            let frame = Codec::encode(&msg);
            let (back, used) = Codec::decode(&frame).unwrap();
            prop_assert_eq!(used, frame.len());
            prop_assert_eq!(back.encode(), msg.encode(), "{:?}", msg);
        }
    }

    #[test]
    fn ghost_and_fp_payloads_round_trip_bit_exactly(
        entries in collection::vec((any::<u64>(), (any::<u64>(), any::<u64>(), any::<u64>())), 0..6),
        fp_bits in collection::vec(any::<u64>(), 0..6),
    ) {
        let ghosts = Msg::PeerGhosts {
            export: GhostExport {
                gids: entries.iter().map(|&(gid, _)| gid).collect(),
                pos: entries.iter().map(|&(_, bits)| vec3_of(bits)).collect(),
            },
        };
        let fp = Msg::PeerFp {
            fp: fp_bits.iter().map(|&b| f64::from_bits(b)).collect(),
        };
        for msg in [ghosts, fp] {
            let (back, _) = Codec::decode(&Codec::encode(&msg)).unwrap();
            prop_assert_eq!(back.encode(), msg.encode());
        }
    }

    #[test]
    fn torn_frames_are_truncated_errors_at_every_cut(
        raw in collection::vec(atom_bits(), 0..4),
        cut_seed in any::<u64>(),
    ) {
        let msg = Msg::MigIn { atoms: atoms_of(raw) };
        let frame = Codec::encode(&msg);
        let cut = (cut_seed % frame.len() as u64) as usize;
        prop_assert!(
            matches!(Codec::decode(&frame[..cut]), Err(CodecError::Truncated)),
            "buffer cut at {cut}"
        );
        // The stream reader reports the same condition.
        let mut stream = std::io::Cursor::new(frame[..cut].to_vec());
        prop_assert!(
            matches!(
                Codec::read_msg(&mut stream),
                Err(CodecError::Truncated) | Err(CodecError::Io(_))
            ),
            "stream cut at {cut}"
        );
    }

    #[test]
    fn corrupted_frames_never_yield_a_different_message(
        raw in collection::vec(atom_bits(), 0..4),
        idx_seed in any::<u64>(),
        bit in 0..8u32,
    ) {
        let msg = Msg::MigIn { atoms: atoms_of(raw) };
        let mut frame = Codec::encode(&msg);
        let idx = (idx_seed % frame.len() as u64) as usize;
        frame[idx] ^= 1 << bit;
        match Codec::decode(&frame) {
            // Typed rejection is the expected outcome for any single-bit
            // corruption (checksum, framing or length damage).
            Err(
                CodecError::Truncated
                | CodecError::Oversize(_)
                | CodecError::BadChecksum { .. }
                | CodecError::BadField(_)
                | CodecError::Io(_),
            ) => {}
            // Acceptance is sound only if the bytes decode to the very
            // same message (theoretically unreachable for a bit flip
            // inside the checksummed region).
            Ok((back, _)) => {
                prop_assert_eq!(back.encode(), msg.encode());
            }
        }
    }

    #[test]
    fn trailing_garbage_after_the_payload_is_rejected(
        fp_bits in collection::vec(any::<u64>(), 0..4),
        junk in collection::vec(any::<u8>(), 1..8),
    ) {
        // Splice garbage between the payload and the checksum, fixing up
        // the length prefix and checksum so only payload-level validation
        // can catch it: decoding demands exact consumption.
        let msg = Msg::PeerFp {
            fp: fp_bits.iter().map(|&b| f64::from_bits(b)).collect(),
        };
        let mut spliced = msg.encode();
        spliced.extend_from_slice(&junk);
        prop_assert!(matches!(
            Codec::decode(&frame(spliced)),
            Err(CodecError::BadField(_))
        ));
    }

    #[test]
    fn hollow_messages_are_bad_field_errors_at_every_prefix(
        raw in collection::vec(atom_bits(), 0..3),
        fp_bits in collection::vec(any::<u64>(), 0..4),
        kick in proptest::bool::ANY,
    ) {
        // Every proper prefix of every message's payload, re-framed with a
        // valid checksum, passes the frame checks and must then fail the
        // field walk: a message with its tail fields missing is typed.
        let fp = fp_bits.iter().map(|&b| f64::from_bits(b)).collect();
        for msg in every_message(atoms_of(raw.clone()), fp, kick) {
            let body = msg.encode();
            for cut in 0..body.len() {
                prop_assert!(
                    matches!(
                        Codec::decode(&frame(body[..cut].to_vec())),
                        Err(CodecError::BadField(_))
                    ),
                    "{msg:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_tags_are_bad_field_errors(
        tail in collection::vec(any::<u8>(), 0..32),
    ) {
        // Every byte that is not a message tag, followed by any payload,
        // is typed — not a panic, not some other message.
        let tags = message_tags();
        for tag in (0..=u8::MAX).filter(|t| !tags.contains(t)) {
            let mut body = vec![tag];
            body.extend_from_slice(&tail);
            prop_assert!(
                matches!(Msg::decode(&body), Err(CodecError::BadField(_))),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocating(
        excess in 1u32..=1024,
        tail in collection::vec(any::<u8>(), 0..16),
    ) {
        let mut frame = (MAX_FRAME + excess).to_le_bytes().to_vec();
        frame.extend(tail);
        prop_assert!(matches!(Codec::decode(&frame), Err(CodecError::Oversize(_))));
        let mut stream = std::io::Cursor::new(frame);
        prop_assert!(matches!(Codec::read_msg(&mut stream), Err(CodecError::Oversize(_))));
    }

    #[test]
    fn garbage_byte_soup_never_panics(bytes in collection::vec(any::<u8>(), 0..64)) {
        // Any outcome is fine; the property is the absence of a panic and
        // of unbounded allocation.
        let _ = Codec::decode(&bytes);
        let _ = Msg::decode(&bytes);
        let mut stream = std::io::Cursor::new(bytes);
        let _ = Codec::read_msg(&mut stream);
    }
}
