//! The per-tenant event-sourced journal: a byte log that makes every
//! tenant run deterministically replayable.
//!
//! A journal opens with a versioned header embedding the **base
//! snapshot** (the tenant's full state at the round replay starts from)
//! and then accumulates records:
//!
//! * **round records** — the raw topology events a schedule emitted
//!   and the net workload deltas injected in one round, exactly as the
//!   generators produced them (pre-validation: an event the graph
//!   later rejects is recorded too, which is what lets replay
//!   reproduce an erroring round);
//! * **advance records** — "ran through round `r`", closing a batch of
//!   rounds so replay knows how far to drive even when trailing rounds
//!   were quiet (no events, no deltas);
//! * **error records** — the terminal [`EngineError`], after which a
//!   tenant accepts no further work.
//!
//! # The window
//!
//! A journal keeps a sliding window of rounds, not the tenant's whole
//! history. At every round that is a multiple of [`WINDOW`] the tenant
//! takes a **checkpoint**: the journal splices the *previous*
//! checkpoint's snapshot in as its new base, dropping the records
//! before it in place, and remembers the current snapshot and byte
//! offset as the next checkpoint. The base is therefore the
//! last-but-one checkpoint, and a journal holds between `WINDOW` and
//! `2·WINDOW` rounds of records — fewer only in a tenant's first
//! `WINDOW` rounds or after a resume. Memory and replay time are
//! `O(WINDOW)` per tenant, whatever its age. A windowed journal is
//! byte for byte the journal [`Tenant::resume_from_snapshot`]
//! would open at its base, plus the records since; the format does not
//! change.
//!
//! Replaying the journal from its base snapshot and comparing against
//! the live tenant is the serve layer's integrity check; see
//! [`Tenant::replay_matches`]. Replay refuses a journal that asks
//! for more than `2·WINDOW` rounds past its base (a forged advance
//! record could ask for 2⁶⁴), before it runs any round.
//!
//! [`Tenant::resume_from_snapshot`]: crate::Tenant::resume_from_snapshot
//! [`Tenant::replay_matches`]: crate::Tenant::replay_matches
//!
//! Layout after the header (`"DLBJRNL1"`, `u16` version, `u64` base
//! snapshot length, snapshot bytes):
//!
//! ```text
//! record := 0x00 u64 round  u32 ne  event[ne]  u32 nd  (u32 node, i64 delta)[nd]
//!         | 0x01 u64 through_round
//!         | 0x02 error                      (see crate::snapshot error coding)
//! event  := 0x00 u32 a  u32 b  u32 c  u32 d          (double-edge swap)
//!         | 0x01 u32 node  u16 len  u16 perm[len]    (port permutation)
//!         | 0x02 u32 node                            (sleep)
//!         | 0x03 u32 node                            (wake)
//! ```

use dlb_core::EngineError;
use dlb_graph::TopologyEvent;

use crate::snapshot::{decode_error, encode_error, TenantSnapshot};
use crate::wire::{Reader, WireError, Writer};

/// Magic tag opening every journal.
pub const JOURNAL_MAGIC: &[u8; 8] = b"DLBJRNL1";
/// Format version written by this build.
pub const JOURNAL_VERSION: u16 = 1;

/// Rounds between checkpoints: a tenant checkpoints at every round that
/// is a multiple of `WINDOW`, and its journal keeps the records since
/// the last-but-one checkpoint (see the [module docs](self)).
pub const WINDOW: usize = 64;

/// Byte offset of the base snapshot's `u64` length in the header.
const BASE_LEN_AT: usize = JOURNAL_MAGIC.len() + 2;
/// Byte offset of the base snapshot: the header's length.
const BASE_AT: usize = BASE_LEN_AT + 8;

/// A tenant journal (header + base snapshot + records) over a sliding
/// window of rounds.
///
/// Records are encoded straight onto the end of the journal's own
/// buffer, so appending one allocates nothing beyond the buffer's
/// amortised growth; a checkpoint rewrites the buffer's head in place.
#[derive(Debug, Clone)]
pub struct Journal {
    bytes: Writer,
    /// The latest checkpoint, not yet the base.
    next: Option<Checkpoint>,
}

/// A checkpoint waiting to become a journal's base.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// The encoded snapshot of the tenant at the checkpoint's round.
    snapshot: Writer,
    /// Where the records after the checkpoint's round start.
    at: usize,
}

/// One decoded round record: what the generators produced for `round`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// The 1-based round (engine step) the record belongs to.
    pub round: u64,
    /// Raw topology events, in emission order, pre-validation.
    pub events: Vec<TopologyEvent>,
    /// Net injected deltas, as sparse `(node, delta)` pairs sorted by
    /// node (the engine applies the *net* per-node delta, so sparse
    /// non-zeros capture the injection bit-exactly).
    pub deltas: Vec<(u32, i64)>,
}

/// Fully decoded journal contents.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// The embedded base snapshot journaling started from.
    pub base: TenantSnapshot,
    /// Round records in ascending round order.
    pub rounds: Vec<RoundRecord>,
    /// The highest round the tenant has completed (or attempted, for
    /// an erroring round).
    pub through_round: u64,
    /// Terminal error, if one was recorded.
    pub error: Option<EngineError>,
}

impl Journal {
    /// Opens a journal whose base is the given encoded snapshot.
    pub fn new(base_snapshot: &[u8]) -> Journal {
        let mut w = Writer::new();
        w.raw(JOURNAL_MAGIC);
        w.u16(JOURNAL_VERSION);
        w.u64(base_snapshot.len() as u64);
        w.raw(base_snapshot);
        Journal {
            bytes: w,
            next: None,
        }
    }

    /// The raw journal bytes (header, snapshot, records).
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_bytes()
    }

    /// Adopts raw journal bytes, validating the header and that the
    /// whole stream decodes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a malformed header or any
    /// undecodable record.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Journal, WireError> {
        let journal = Journal {
            bytes: Writer::from(bytes),
            next: None,
        };
        journal.decode()?;
        Ok(journal)
    }

    /// Appends one round record. Rounds with neither events nor deltas
    /// need no record — an advance record covers them.
    pub(crate) fn record_round(
        &mut self,
        round: u64,
        events: &[TopologyEvent],
        deltas: &[(u32, i64)],
    ) {
        let w = &mut self.bytes;
        w.u8(0);
        w.u64(round);
        w.u32(events.len() as u32);
        for ev in events {
            encode_event(w, ev);
        }
        w.u32(deltas.len() as u32);
        for &(node, delta) in deltas {
            w.u32(node);
            w.i64(delta);
        }
    }

    /// Appends an advance record: the tenant has driven its engine
    /// through `through_round`.
    pub(crate) fn record_advance(&mut self, through_round: u64) {
        self.bytes.u8(1);
        self.bytes.u64(through_round);
    }

    /// Starts a checkpoint: embeds the pending checkpoint's snapshot as
    /// the new base, dropping the records before it with one in-place
    /// splice, and returns its buffer, emptied, for the snapshot of the
    /// new checkpoint. Hand that snapshot to
    /// [`Journal::end_checkpoint`].
    pub(crate) fn begin_checkpoint(&mut self) -> Writer {
        let Some(Checkpoint { mut snapshot, at }) = self.next.take() else {
            return Writer::new();
        };
        self.bytes.splice(BASE_AT..at, snapshot.as_bytes());
        self.bytes.set_u64(BASE_LEN_AT, snapshot.len() as u64);
        snapshot.clear();
        snapshot
    }

    /// Remembers `snapshot`, the tenant's state after the journal's
    /// last record, as the next checkpoint.
    pub(crate) fn end_checkpoint(&mut self, snapshot: Writer) {
        self.next = Some(Checkpoint {
            snapshot,
            at: self.bytes.len(),
        });
    }

    /// Appends the terminal error record.
    pub(crate) fn record_error(&mut self, error: &EngineError) {
        self.bytes.u8(2);
        encode_error(&mut self.bytes, Some(error));
    }

    /// Decodes the whole journal.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a malformed header, an undecodable
    /// record, records out of round order, or a round's delta nodes
    /// out of ascending order.
    pub fn decode(&self) -> Result<JournalContents, WireError> {
        let mut r = Reader::new(self.as_bytes());
        r.magic(JOURNAL_MAGIC)?;
        let at = r.offset();
        let version = r.u16()?;
        if version != JOURNAL_VERSION {
            return Err(WireError::new(
                at,
                format!("unsupported journal version {version}"),
            ));
        }
        let snap_len = r.len64()?;
        let at = r.offset();
        let snap_bytes = r.raw(snap_len)?;
        let base = TenantSnapshot::decode(snap_bytes).map_err(|e| {
            WireError::new(at + e.offset, format!("embedded snapshot: {}", e.reason))
        })?;
        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut through_round = base.engine.step as u64;
        let mut error = base.error.clone();
        while !r.is_done() {
            let at = r.offset();
            match r.u8()? {
                0 => {
                    let round = r.u64()?;
                    if rounds.last().is_some_and(|last| last.round >= round) {
                        return Err(WireError::new(at, format!("round {round} out of order")));
                    }
                    let ne = bounded_count(&mut r, "events", MIN_EVENT_BYTES)?;
                    let mut events = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        events.push(decode_event(&mut r)?);
                    }
                    let nd = bounded_count(&mut r, "deltas", DELTA_BYTES)?;
                    let mut deltas: Vec<(u32, i64)> = Vec::with_capacity(nd);
                    for _ in 0..nd {
                        let at = r.offset();
                        let node = r.u32()?;
                        // One net delta per node: replay adds each into
                        // a zeroed buffer, which cannot overflow.
                        if deltas.last().is_some_and(|&(last, _)| last >= node) {
                            return Err(WireError::new(
                                at,
                                format!("delta node {node} out of order"),
                            ));
                        }
                        deltas.push((node, r.i64()?));
                    }
                    through_round = through_round.max(round);
                    rounds.push(RoundRecord {
                        round,
                        events,
                        deltas,
                    });
                }
                1 => {
                    through_round = through_round.max(r.u64()?);
                }
                2 => {
                    error = decode_error(&mut r)?;
                }
                other => {
                    return Err(WireError::new(at, format!("unknown record tag {other}")));
                }
            }
        }
        Ok(JournalContents {
            base,
            rounds,
            through_round,
            error,
        })
    }
}

/// The smallest encoded event: a tag and a node (sleep, wake).
const MIN_EVENT_BYTES: usize = 1 + 4;

/// One encoded delta: a node and a signed amount.
const DELTA_BYTES: usize = 4 + 8;

/// Reads a `u32` count of items that take at least `unit` bytes each,
/// rejecting a count the remaining bytes cannot hold before it sizes an
/// allocation (a forged count would otherwise abort the process in
/// `Vec::with_capacity`).
fn bounded_count(r: &mut Reader<'_>, what: &str, unit: usize) -> Result<usize, WireError> {
    let at = r.offset();
    let count = r.u32()? as usize;
    if r.remaining() < count.saturating_mul(unit) {
        return Err(WireError::new(
            at,
            format!("{count} {what} cannot fit in {} bytes", r.remaining()),
        ));
    }
    Ok(count)
}

fn encode_event(w: &mut Writer, ev: &TopologyEvent) {
    match ev {
        TopologyEvent::Swap { a, b, c, d } => {
            w.u8(0);
            w.u32(*a as u32);
            w.u32(*b as u32);
            w.u32(*c as u32);
            w.u32(*d as u32);
        }
        TopologyEvent::PermutePorts { node, perm } => {
            w.u8(1);
            w.u32(*node as u32);
            w.u16(perm.len() as u16);
            for &p in perm {
                w.u16(p);
            }
        }
        TopologyEvent::Sleep { node } => {
            w.u8(2);
            w.u32(*node as u32);
        }
        TopologyEvent::Wake { node } => {
            w.u8(3);
            w.u32(*node as u32);
        }
    }
}

fn decode_event(r: &mut Reader<'_>) -> Result<TopologyEvent, WireError> {
    let at = r.offset();
    Ok(match r.u8()? {
        0 => TopologyEvent::Swap {
            a: r.u32()? as usize,
            b: r.u32()? as usize,
            c: r.u32()? as usize,
            d: r.u32()? as usize,
        },
        1 => {
            let node = r.u32()? as usize;
            let len = r.u16()? as usize;
            let mut perm = Vec::with_capacity(len);
            for _ in 0..len {
                perm.push(r.u16()?);
            }
            TopologyEvent::PermutePorts { node, perm }
        }
        2 => TopologyEvent::Sleep {
            node: r.u32()? as usize,
        },
        3 => TopologyEvent::Wake {
            node: r.u32()? as usize,
        },
        other => return Err(WireError::new(at, format!("unknown event tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SchemeKind;
    use dlb_core::{Engine, LoadVector};
    use dlb_graph::{generators, BalancingGraph};
    use dlb_topology::ScheduleSpec;

    fn base() -> TenantSnapshot {
        let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
        let engine = Engine::new(gp, LoadVector::point_mass(8, 80));
        TenantSnapshot {
            engine: engine.export_state(),
            scheme: SchemeKind::SendFloor,
            rotors: Vec::new(),
            error: None,
            workload: None,
            workload_cursor: Vec::new(),
            schedule: ScheduleSpec::Static,
            schedule_cursor: Vec::new(),
        }
    }

    #[test]
    fn journal_roundtrips_records_in_order() {
        let base = base();
        let mut j = Journal::new(&base.encode());
        j.record_round(
            2,
            &[
                TopologyEvent::Swap {
                    a: 0,
                    b: 1,
                    c: 4,
                    d: 5,
                },
                TopologyEvent::Sleep { node: 3 },
            ],
            &[(0, 7), (5, -2)],
        );
        j.record_round(
            4,
            &[TopologyEvent::PermutePorts {
                node: 1,
                perm: vec![1, 0],
            }],
            &[],
        );
        j.record_advance(6);
        j.record_error(&EngineError::NegativeLoad {
            node: 5,
            load: -2,
            step: 6,
        });

        let contents = j.decode().unwrap();
        assert_eq!(contents.base, base);
        assert_eq!(contents.rounds.len(), 2);
        assert_eq!(contents.rounds[0].round, 2);
        assert_eq!(contents.rounds[0].events.len(), 2);
        assert_eq!(contents.rounds[0].deltas, vec![(0, 7), (5, -2)]);
        assert_eq!(contents.rounds[1].round, 4);
        assert_eq!(contents.through_round, 6);
        assert_eq!(
            contents.error,
            Some(EngineError::NegativeLoad {
                node: 5,
                load: -2,
                step: 6
            })
        );

        // from_bytes re-validates the whole stream.
        let reparsed = Journal::from_bytes(j.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed.decode().unwrap(), contents);
    }

    /// Pins the record layout in the module docs byte for byte: one
    /// round record with all four event kinds plus deltas, one advance
    /// record and one error record, against a vector assembled by hand.
    #[test]
    fn record_bytes_follow_the_documented_layout() {
        let snap = base().encode();
        let mut j = Journal::new(&snap);
        j.record_round(
            7,
            &[
                TopologyEvent::Swap {
                    a: 0,
                    b: 1,
                    c: 4,
                    d: 5,
                },
                TopologyEvent::PermutePorts {
                    node: 2,
                    perm: vec![1, 0, 3, 2],
                },
                TopologyEvent::Sleep { node: 3 },
                TopologyEvent::Wake { node: 6 },
            ],
            &[(0, 7), (5, -2)],
        );
        j.record_advance(9);
        j.record_error(&EngineError::NegativeLoad {
            node: 5,
            load: -2,
            step: 9,
        });

        let mut want = b"DLBJRNL1".to_vec();
        want.extend(1u16.to_le_bytes());
        want.extend((snap.len() as u64).to_le_bytes());
        want.extend(&snap);
        // Round record: tag, round, event count.
        want.push(0x00);
        want.extend(7u64.to_le_bytes());
        want.extend(4u32.to_le_bytes());
        // Swap: tag, a, b, c, d.
        want.push(0x00);
        for v in [0u32, 1, 4, 5] {
            want.extend(v.to_le_bytes());
        }
        // Port permutation: tag, node, length, permutation.
        want.push(0x01);
        want.extend(2u32.to_le_bytes());
        for v in [4u16, 1, 0, 3, 2] {
            want.extend(v.to_le_bytes());
        }
        // Sleep and wake: tag, node.
        want.push(0x02);
        want.extend(3u32.to_le_bytes());
        want.push(0x03);
        want.extend(6u32.to_le_bytes());
        // Deltas: count, then (node, delta) pairs.
        want.extend(2u32.to_le_bytes());
        want.extend(0u32.to_le_bytes());
        want.extend(7i64.to_le_bytes());
        want.extend(5u32.to_le_bytes());
        want.extend((-2i64).to_le_bytes());
        // Advance record: tag, through round.
        want.push(0x01);
        want.extend(9u64.to_le_bytes());
        // Error record: tag, then NegativeLoad's snapshot coding (tag
        // 3, node, load, step).
        want.push(0x02);
        want.push(3);
        want.extend(5u64.to_le_bytes());
        want.extend((-2i64).to_le_bytes());
        want.extend(9u64.to_le_bytes());

        assert_eq!(j.as_bytes(), &want[..]);
    }

    /// A valid journal plus a forged Round record — tag, round, 0
    /// events, and a delta count of `u32::MAX` with no deltas behind
    /// it — used to abort the process in `Vec::with_capacity`. It must
    /// be a `WireError` at the count.
    #[test]
    fn forged_delta_count_is_an_error_not_an_abort() {
        let j = Journal::new(&base().encode());
        let mut bytes = j.as_bytes().to_vec();
        let count_at = bytes.len() + 1 + 8 + 4;
        bytes.push(0);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Journal::from_bytes(bytes).unwrap_err();
        assert_eq!(err.offset, count_at, "{err}");
        assert!(err.reason.contains("deltas"), "{err}");

        // The same forgery on the event count.
        let mut bytes = j.as_bytes().to_vec();
        bytes.push(0);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Journal::from_bytes(bytes).unwrap_err();
        assert!(err.reason.contains("events"), "{err}");
    }

    #[test]
    fn out_of_order_and_corrupt_records_are_rejected() {
        let mut j = Journal::new(&base().encode());
        j.record_round(5, &[], &[(1, 1)]);
        j.record_round(3, &[], &[(2, 2)]);
        assert!(j.decode().is_err());

        let mut j = Journal::new(&base().encode());
        j.record_advance(4);
        let mut bytes = j.as_bytes().to_vec();
        bytes.push(9); // unknown record tag
        assert!(Journal::from_bytes(bytes).is_err());
    }
}
