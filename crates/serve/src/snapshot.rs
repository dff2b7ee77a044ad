//! The tenant snapshot format: full engine + scheme + generator state
//! as one self-contained byte string.
//!
//! A snapshot captures everything a [`Tenant`](crate::Tenant) needs to
//! resume **bit-identically**: the balancing graph (adjacency slots,
//! port numbering, sleep set, self-loop count), the load vector, every
//! engine counter ([`EngineState`]), the scheme's mutable state (rotor
//! positions), the workload/schedule *specs* plus their resumable
//! *cursors* (the [`Workload::cursor`](dlb_core::Workload::cursor) /
//! [`TopologySchedule::cursor`](dlb_topology::TopologySchedule::cursor)
//! protocol), and the tenant's terminal error, if any.
//!
//! Layout (all integers little-endian, see [`crate::wire`]):
//!
//! ```text
//! "DLBSNAP1"  u16 version
//! u64 n   u64 d   u64 d°   u32 adjacency[n·d]   u64 k   u32 asleep[k]
//! i64 loads[n]
//! u64 step   u64 negative_node_steps   i64 injected_total
//! u64 topology_events_applied   u64 discrepancy_scans
//! u8 vec_enabled   u8 strategy   u8 width  [i64 i32_limit]   u64 stats[5]
//! u8 scheme   u64 r   u64 rotors[r]
//! u8 error-tag  [error fields]
//! u8 has_workload  [u8 workload-tag  fields...]   u64 c   u64 cursor[c]
//! u8 schedule-tag  fields...                      u64 c   u64 cursor[c]
//! ```
//!
//! The spec/cursor split mirrors the generator protocol: configuration
//! travels as the spec (rebuildable from scratch), only the mutable
//! stream position travels as the cursor.

use dlb_core::{
    Engine, EngineError, EngineState, VectorConfig, VectorStats, VectorStrategy, VectorWidth,
};
use dlb_graph::{BalancingGraph, RegularGraph};
use dlb_scenario::WorkloadSpec;
use dlb_topology::ScheduleSpec;

use crate::wire::{Reader, WireError, Writer};

/// Magic tag opening every snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DLBSNAP1";
/// Format version written by this build. Version 2 dropped the
/// wall-clock word from schedule cursors and the two engine errors no
/// round raises any more; version 3 dropped the engine's always-zero
/// negative-rescan counter. This build decodes version 3 only.
pub const SNAPSHOT_VERSION: u16 = 3;

/// Which balancing scheme a tenant runs.
///
/// The serve layer hosts the paper's four deterministic schemes; the
/// port order is always `PortOrder::Sequential` so a scheme rebuilt
/// from a snapshot re-derives identical port sequences from the
/// serialized graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// SEND(⌊x/d⁺⌋) — stateless, kernel-capable.
    SendFloor,
    /// SEND(\[x/d⁺\]) — stateless, kernel-capable.
    SendRound,
    /// Rotor-router — per-node rotor state, kernel-capable.
    RotorRouter,
    /// ROTOR-ROUTER* — inner-rotor state, kernel-capable.
    RotorRouterStar,
}

impl SchemeKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::SendFloor => "send-floor",
            SchemeKind::SendRound => "send-round",
            SchemeKind::RotorRouter => "rotor-router",
            SchemeKind::RotorRouterStar => "rotor-router-star",
        }
    }

    fn tag(self) -> u8 {
        match self {
            SchemeKind::SendFloor => 0,
            SchemeKind::SendRound => 1,
            SchemeKind::RotorRouter => 2,
            SchemeKind::RotorRouterStar => 3,
        }
    }

    fn from_tag(tag: u8, at: usize) -> Result<SchemeKind, WireError> {
        match tag {
            0 => Ok(SchemeKind::SendFloor),
            1 => Ok(SchemeKind::SendRound),
            2 => Ok(SchemeKind::RotorRouter),
            3 => Ok(SchemeKind::RotorRouterStar),
            other => Err(WireError::new(at, format!("unknown scheme tag {other}"))),
        }
    }
}

/// Decoded snapshot contents.
///
/// [`Tenant::snapshot`](crate::Tenant::snapshot) produces the encoded
/// form; [`Tenant::resume_from_snapshot`](crate::Tenant::resume_from_snapshot)
/// consumes it. The struct is public so tests and tools can inspect a
/// snapshot without rebuilding a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Full engine state (graph, loads, counters, vector config/stats).
    pub engine: EngineState,
    /// The scheme the tenant runs.
    pub scheme: SchemeKind,
    /// Rotor positions for the rotor schemes; empty for SEND schemes.
    pub rotors: Vec<u64>,
    /// Terminal error, if the tenant has stopped.
    pub error: Option<EngineError>,
    /// Workload configuration; `None` for a closed system.
    pub workload: Option<WorkloadSpec>,
    /// The workload generator's resumable cursor.
    pub workload_cursor: Vec<u64>,
    /// Topology-schedule configuration ([`ScheduleSpec::Static`] for a
    /// fixed graph).
    pub schedule: ScheduleSpec,
    /// The schedule generator's resumable cursor.
    pub schedule_cursor: Vec<u64>,
}

impl TenantSnapshot {
    /// Encodes the snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        SnapshotRef {
            engine: EngineRef::from(&self.engine),
            scheme: self.scheme,
            rotors: self.rotors.iter().copied(),
            error: self.error.as_ref(),
            workload: self.workload.as_ref(),
            workload_cursor: &self.workload_cursor,
            schedule: &self.schedule,
            schedule_cursor: &self.schedule_cursor,
        }
        .encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a snapshot, validating the magic, version and graph
    /// invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, unknown tags, trailing
    /// bytes, or a serialized graph that fails the structural
    /// validation of [`RegularGraph::from_adjacency`].
    pub fn decode(bytes: &[u8]) -> Result<TenantSnapshot, WireError> {
        let mut r = Reader::new(bytes);
        let snap = Self::decode_from(&mut r)?;
        if !r.is_done() {
            return Err(WireError::new(
                r.offset(),
                format!("{} trailing bytes after snapshot", r.remaining()),
            ));
        }
        Ok(snap)
    }

    /// Decodes a snapshot from the reader's current position, leaving
    /// the reader just past it (the journal embeds a snapshot mid-
    /// stream).
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<TenantSnapshot, WireError> {
        r.magic(SNAPSHOT_MAGIC)?;
        let at = r.offset();
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(WireError::new(
                at,
                format!("unsupported snapshot version {version}"),
            ));
        }
        let graph = decode_graph(r)?;
        let n = graph.num_nodes();
        let at = r.offset();
        let mut loads = Vec::with_capacity(n);
        for _ in 0..n {
            loads.push(r.i64()?);
        }
        check_load_total(&loads).map_err(|reason| WireError::new(at, reason))?;
        let at = r.offset();
        let step = usize::try_from(r.counter()?)
            .map_err(|_| WireError::new(at, "step overflows usize"))?;
        let negative_node_steps = r.counter()?;
        let injected_total = r.i64()?;
        let topology_events_applied = r.counter()?;
        let discrepancy_scans = r.counter()?;
        let (vector_config, vector_stats) = decode_vector(r)?;
        let at = r.offset();
        let scheme = SchemeKind::from_tag(r.u8()?, at)?;
        let nrotors = r.len64()?;
        let mut rotors = Vec::with_capacity(nrotors.min(n));
        for _ in 0..nrotors {
            rotors.push(r.u64()?);
        }
        let error = decode_error(r)?;
        let workload = match r.u8()? {
            0 => None,
            1 => Some(decode_workload_spec(r)?),
            other => {
                return Err(WireError::new(
                    r.offset() - 1,
                    format!("workload presence byte must be 0/1, got {other}"),
                ))
            }
        };
        let workload_cursor = decode_cursor(r)?;
        let schedule = decode_schedule_spec(r)?;
        let schedule_cursor = decode_cursor(r)?;
        Ok(TenantSnapshot {
            engine: EngineState {
                graph,
                loads,
                step,
                negative_node_steps,
                injected_total,
                topology_events_applied,
                discrepancy_scans,
                vector_config,
                vector_stats,
            },
            scheme,
            rotors,
            error,
            workload,
            workload_cursor,
            schedule,
            schedule_cursor,
        })
    }
}

/// A snapshot's fields, borrowed from wherever they live: a decoded
/// [`TenantSnapshot`] or a live tenant. One encoder serves both, so a
/// tenant encodes its checkpoints straight from its engine, without
/// copying the engine state first, into the bytes
/// [`TenantSnapshot::encode`] writes.
pub(crate) struct SnapshotRef<'a, R> {
    pub(crate) engine: EngineRef<'a>,
    pub(crate) scheme: SchemeKind,
    /// Rotor positions, as snapshot words.
    pub(crate) rotors: R,
    pub(crate) error: Option<&'a EngineError>,
    pub(crate) workload: Option<&'a WorkloadSpec>,
    pub(crate) workload_cursor: &'a [u64],
    pub(crate) schedule: &'a ScheduleSpec,
    pub(crate) schedule_cursor: &'a [u64],
}

/// The engine fields a snapshot stores, borrowed from an
/// [`EngineState`] or a live [`Engine`].
pub(crate) struct EngineRef<'a> {
    graph: &'a BalancingGraph,
    loads: &'a [i64],
    step: usize,
    negative_node_steps: u64,
    injected_total: i64,
    topology_events_applied: u64,
    discrepancy_scans: u64,
    vector_config: &'a VectorConfig,
    vector_stats: &'a VectorStats,
}

impl<'a> From<&'a EngineState> for EngineRef<'a> {
    fn from(s: &'a EngineState) -> EngineRef<'a> {
        EngineRef {
            graph: &s.graph,
            loads: &s.loads,
            step: s.step,
            negative_node_steps: s.negative_node_steps,
            injected_total: s.injected_total,
            topology_events_applied: s.topology_events_applied,
            discrepancy_scans: s.discrepancy_scans,
            vector_config: &s.vector_config,
            vector_stats: &s.vector_stats,
        }
    }
}

impl<'a> From<&'a Engine> for EngineRef<'a> {
    fn from(e: &'a Engine) -> EngineRef<'a> {
        EngineRef {
            graph: e.graph(),
            loads: e.loads().as_slice(),
            step: e.step_count(),
            negative_node_steps: e.negative_node_steps(),
            injected_total: e.injected_total(),
            topology_events_applied: e.topology_events_applied(),
            discrepancy_scans: e.discrepancy_scans(),
            vector_config: e.vector_config(),
            vector_stats: e.vector_stats(),
        }
    }
}

impl<R: ExactSizeIterator<Item = u64>> SnapshotRef<'_, R> {
    /// Appends the encoded snapshot to `w`.
    pub(crate) fn encode_into(self, w: &mut Writer) {
        let engine = self.engine;
        w.raw(SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        encode_graph(w, engine.graph);
        for &x in engine.loads {
            w.i64(x);
        }
        w.u64(engine.step as u64);
        w.u64(engine.negative_node_steps);
        w.i64(engine.injected_total);
        w.u64(engine.topology_events_applied);
        w.u64(engine.discrepancy_scans);
        encode_vector(w, engine.vector_config, engine.vector_stats);
        w.u8(self.scheme.tag());
        w.u64(self.rotors.len() as u64);
        for r in self.rotors {
            w.u64(r);
        }
        encode_error(w, self.error);
        match self.workload {
            None => w.u8(0),
            Some(spec) => {
                w.u8(1);
                encode_workload_spec(w, spec);
            }
        }
        encode_cursor(w, self.workload_cursor);
        encode_schedule_spec(w, self.schedule);
        encode_cursor(w, self.schedule_cursor);
    }
}

/// Checks that the positive loads sum to at most `i64::MAX`. A round's
/// flows conserve tokens and never overdraw, so from such loads no
/// flow can push a load past `i64::MAX`; injected tokens are checked
/// as they arrive.
pub(crate) fn check_load_total(loads: &[i64]) -> Result<(), String> {
    loads
        .iter()
        .filter(|&&x| x > 0)
        .try_fold(0i64, |acc, &x| acc.checked_add(x))
        .map(drop)
        .ok_or_else(|| "positive loads sum past i64::MAX".into())
}

fn encode_graph(w: &mut Writer, gp: &BalancingGraph) {
    let g = gp.graph();
    w.u64(g.num_nodes() as u64);
    w.u64(g.degree() as u64);
    w.u64(gp.num_self_loops() as u64);
    for &slot in g.adjacency_slots() {
        w.u32(slot);
    }
    w.u64(g.asleep_nodes().len() as u64);
    for &u in g.asleep_nodes() {
        w.u32(u);
    }
}

fn decode_graph(r: &mut Reader<'_>) -> Result<BalancingGraph, WireError> {
    let n = r.len64()?;
    let d = r.len64()?;
    let d_self = r.len64()?;
    let slots = n
        .checked_mul(d)
        .ok_or_else(|| WireError::new(r.offset(), format!("adjacency shape {n}x{d} overflows")))?;
    // Guard against a forged header demanding a huge allocation before
    // the (truncated) buffer runs out: each slot still costs 4 bytes,
    // and each node 8 more for its load (which also bounds `n` when
    // `d = 0`).
    if r.remaining() < slots.saturating_mul(4).saturating_add(n.saturating_mul(8)) {
        return Err(WireError::new(
            r.offset(),
            format!("{n} nodes with {slots} adjacency slots, buffer too short"),
        ));
    }
    let mut adjacency = Vec::with_capacity(slots);
    for _ in 0..slots {
        adjacency.push(r.u32()?);
    }
    let at = r.offset();
    let mut graph = RegularGraph::from_adjacency(n, d, adjacency)
        .map_err(|e| WireError::new(at, format!("invalid graph: {e}")))?;
    let asleep = r.len64()?;
    for _ in 0..asleep {
        let at = r.offset();
        let u = r.u32()? as usize;
        graph
            .apply_sleep(u)
            .map_err(|e| WireError::new(at, format!("invalid sleep set: {e}")))?;
    }
    let at = r.offset();
    BalancingGraph::with_self_loops(graph, d_self)
        .map_err(|e| WireError::new(at, format!("invalid self-loop count: {e}")))
}

fn encode_vector(w: &mut Writer, config: &VectorConfig, stats: &VectorStats) {
    w.u8(u8::from(config.enabled));
    w.u8(match config.strategy {
        VectorStrategy::Auto => 0,
        VectorStrategy::Banded => 1,
        VectorStrategy::BlockedCsr => 2,
    });
    match config.width {
        VectorWidth::Auto => w.u8(0),
        VectorWidth::I64 => w.u8(1),
        VectorWidth::I32 { limit } => {
            w.u8(2);
            w.i64(i64::from(limit));
        }
    }
    w.u64(stats.runs);
    w.u64(stats.rounds_banded);
    w.u64(stats.rounds_blocked);
    w.u64(stats.rounds_i32);
    w.u64(stats.i32_fallbacks);
}

fn decode_vector(r: &mut Reader<'_>) -> Result<(VectorConfig, VectorStats), WireError> {
    let enabled = r.u8()? != 0;
    let at = r.offset();
    let strategy = match r.u8()? {
        0 => VectorStrategy::Auto,
        1 => VectorStrategy::Banded,
        2 => VectorStrategy::BlockedCsr,
        other => {
            return Err(WireError::new(
                at,
                format!("unknown vector strategy {other}"),
            ))
        }
    };
    let at = r.offset();
    let width = match r.u8()? {
        0 => VectorWidth::Auto,
        1 => VectorWidth::I64,
        2 => {
            let at = r.offset();
            let limit = r.i64()?;
            let limit = i32::try_from(limit)
                .map_err(|_| WireError::new(at, format!("i32 limit {limit} out of range")))?;
            VectorWidth::I32 { limit }
        }
        other => return Err(WireError::new(at, format!("unknown vector width {other}"))),
    };
    let stats = VectorStats {
        runs: r.counter()?,
        rounds_banded: r.counter()?,
        rounds_blocked: r.counter()?,
        rounds_i32: r.counter()?,
        i32_fallbacks: r.counter()?,
    };
    Ok((
        VectorConfig {
            enabled,
            strategy,
            width,
        },
        stats,
    ))
}

pub(crate) fn encode_error(w: &mut Writer, error: Option<&EngineError>) {
    match error {
        None => w.u8(0),
        Some(EngineError::Overdraw {
            node,
            load,
            planned,
            step,
        }) => {
            w.u8(1);
            w.u64(*node as u64);
            w.i64(*load);
            w.u64(*planned);
            w.u64(*step as u64);
        }
        Some(EngineError::NegativeLoad { node, load, step }) => {
            w.u8(3);
            w.u64(*node as u64);
            w.i64(*load);
            w.u64(*step as u64);
        }
        Some(EngineError::Topology { step, reason }) => {
            w.u8(4);
            w.u64(*step as u64);
            w.str(reason);
        }
        Some(EngineError::InjectionOverflow { node, step }) => {
            w.u8(6);
            w.u64(*node as u64);
            w.u64(*step as u64);
        }
    }
}

pub(crate) fn decode_error(r: &mut Reader<'_>) -> Result<Option<EngineError>, WireError> {
    let at = r.offset();
    Ok(match r.u8()? {
        0 => None,
        1 => Some(EngineError::Overdraw {
            node: r.len64()?,
            load: r.i64()?,
            planned: r.u64()?,
            step: r.len64()?,
        }),
        3 => Some(EngineError::NegativeLoad {
            node: r.len64()?,
            load: r.i64()?,
            step: r.len64()?,
        }),
        4 => Some(EngineError::Topology {
            step: r.len64()?,
            reason: r.str()?,
        }),
        6 => Some(EngineError::InjectionOverflow {
            node: r.len64()?,
            step: r.len64()?,
        }),
        other => return Err(WireError::new(at, format!("unknown error tag {other}"))),
    })
}

fn encode_cursor(w: &mut Writer, cursor: &[u64]) {
    w.u64(cursor.len() as u64);
    for &word in cursor {
        w.u64(word);
    }
}

fn decode_cursor(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let len = r.len64()?;
    if r.remaining() < len.saturating_mul(8) {
        return Err(WireError::new(
            r.offset(),
            format!("cursor wants {len} words, buffer too short"),
        ));
    }
    let mut cursor = Vec::with_capacity(len);
    for _ in 0..len {
        cursor.push(r.u64()?);
    }
    Ok(cursor)
}

fn encode_workload_spec(w: &mut Writer, spec: &WorkloadSpec) {
    match *spec {
        WorkloadSpec::Steady { rate, seed } => {
            w.u8(0);
            w.u64(rate);
            w.u64(seed);
        }
        WorkloadSpec::Bursty {
            on,
            off,
            rate,
            seed,
        } => {
            w.u8(1);
            w.u64(on as u64);
            w.u64(off as u64);
            w.u64(rate);
            w.u64(seed);
        }
        WorkloadSpec::Hotspot { rate } => {
            w.u8(2);
            w.u64(rate);
        }
        WorkloadSpec::Drain { rate } => {
            w.u8(3);
            w.u64(rate);
        }
        WorkloadSpec::DrainUnclamped { rate } => {
            w.u8(4);
            w.u64(rate);
        }
        WorkloadSpec::Adversary { budget } => {
            w.u8(5);
            w.u64(budget);
        }
        WorkloadSpec::ArriveAndDrain { rate, seed } => {
            w.u8(6);
            w.u64(rate);
            w.u64(seed);
        }
    }
}

/// Decodes a workload spec and rejects any the generators cannot run
/// ([`WorkloadSpec::validate`]): a forged magnitude or bursty period
/// must fail here, not panic or wrap at resume.
fn decode_workload_spec(r: &mut Reader<'_>) -> Result<WorkloadSpec, WireError> {
    let at = r.offset();
    let spec = match r.u8()? {
        0 => WorkloadSpec::Steady {
            rate: r.u64()?,
            seed: r.u64()?,
        },
        1 => WorkloadSpec::Bursty {
            on: r.len64()?,
            off: r.len64()?,
            rate: r.u64()?,
            seed: r.u64()?,
        },
        2 => WorkloadSpec::Hotspot { rate: r.u64()? },
        3 => WorkloadSpec::Drain { rate: r.u64()? },
        4 => WorkloadSpec::DrainUnclamped { rate: r.u64()? },
        5 => WorkloadSpec::Adversary { budget: r.u64()? },
        6 => WorkloadSpec::ArriveAndDrain {
            rate: r.u64()?,
            seed: r.u64()?,
        },
        other => return Err(WireError::new(at, format!("unknown workload tag {other}"))),
    };
    spec.validate()
        .map_err(|reason| WireError::new(at, reason))?;
    Ok(spec)
}

fn encode_schedule_spec(w: &mut Writer, spec: &ScheduleSpec) {
    match *spec {
        ScheduleSpec::Static => w.u8(0),
        ScheduleSpec::Periodic {
            period,
            swaps,
            seed,
        } => {
            w.u8(1);
            w.u64(period as u64);
            w.u64(swaps as u64);
            w.u64(seed);
        }
        ScheduleSpec::Failure {
            fail_pct,
            recover_pct,
            max_down,
            seed,
        } => {
            w.u8(2);
            w.u32(fail_pct);
            w.u32(recover_pct);
            w.u64(max_down as u64);
            w.u64(seed);
        }
        ScheduleSpec::Burst {
            fail_at,
            wake_at,
            count,
            seed,
        } => {
            w.u8(3);
            w.u64(fail_at as u64);
            w.u64(wake_at as u64);
            w.u64(count as u64);
            w.u64(seed);
        }
        ScheduleSpec::CutTargeting { period } => {
            w.u8(4);
            w.u64(period as u64);
        }
        ScheduleSpec::Churn {
            period,
            swaps,
            fail_pct,
            max_down,
            seed,
        } => {
            w.u8(5);
            w.u64(period as u64);
            w.u64(swaps as u64);
            w.u32(fail_pct);
            w.u64(max_down as u64);
            w.u64(seed);
        }
    }
}

/// Decodes a schedule spec and rejects any the generators cannot be
/// built from ([`ScheduleSpec::validate`]).
fn decode_schedule_spec(r: &mut Reader<'_>) -> Result<ScheduleSpec, WireError> {
    let at = r.offset();
    let spec = match r.u8()? {
        0 => ScheduleSpec::Static,
        1 => ScheduleSpec::Periodic {
            period: r.len64()?,
            swaps: r.len64()?,
            seed: r.u64()?,
        },
        2 => ScheduleSpec::Failure {
            fail_pct: r.u32()?,
            recover_pct: r.u32()?,
            max_down: r.len64()?,
            seed: r.u64()?,
        },
        3 => ScheduleSpec::Burst {
            fail_at: r.len64()?,
            wake_at: r.len64()?,
            count: r.len64()?,
            seed: r.u64()?,
        },
        4 => ScheduleSpec::CutTargeting { period: r.len64()? },
        5 => ScheduleSpec::Churn {
            period: r.len64()?,
            swaps: r.len64()?,
            fail_pct: r.u32()?,
            max_down: r.len64()?,
            seed: r.u64()?,
        },
        other => return Err(WireError::new(at, format!("unknown schedule tag {other}"))),
    };
    spec.validate()
        .map_err(|reason| WireError::new(at, reason))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Engine, LoadVector, Run};
    use dlb_graph::generators;

    fn sample_snapshot() -> TenantSnapshot {
        let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 240));
        let mut bal = dlb_core::schemes::SendFloor::new();
        engine.run(&mut bal, Run::new(5)).unwrap();
        TenantSnapshot {
            engine: engine.export_state(),
            scheme: SchemeKind::RotorRouter,
            rotors: vec![1, 3, 0, 2, 1, 0, 3, 2],
            error: Some(EngineError::Topology {
                step: 4,
                reason: "swap rejected: absent edge".into(),
            }),
            workload: Some(WorkloadSpec::Bursty {
                on: 3,
                off: 2,
                rate: 16,
                seed: 7,
            }),
            workload_cursor: vec![11, 22, 33, 44],
            schedule: ScheduleSpec::Burst {
                fail_at: 4,
                wake_at: 12,
                count: 2,
                seed: 17,
            },
            schedule_cursor: vec![1, 2, 3, 4, 1, 5],
        }
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let decoded = TenantSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
        // Re-encoding the decoded snapshot yields the same bytes: the
        // format is canonical.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn snapshot_preserves_sleep_sets_and_churned_graphs() {
        let mut snap = sample_snapshot();
        let g = snap.engine.graph.graph_mut();
        g.apply_swap(0, 1, 4, 5).unwrap();
        g.apply_sleep(2).unwrap();
        g.apply_sleep(6).unwrap();
        let bytes = snap.encode();
        let decoded = TenantSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded.engine.graph, snap.engine.graph);
        assert_eq!(decoded.engine.graph.graph().asleep_nodes(), &[2, 6]);
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let errors = [
            None,
            Some(EngineError::Overdraw {
                node: 3,
                load: -5,
                planned: 9,
                step: 12,
            }),
            Some(EngineError::NegativeLoad {
                node: 1,
                load: -2,
                step: 5,
            }),
            Some(EngineError::Topology {
                step: 7,
                reason: "double sleep".into(),
            }),
            Some(EngineError::InjectionOverflow { node: 0, step: 2 }),
        ];
        for err in errors {
            let mut w = Writer::new();
            encode_error(&mut w, err.as_ref());
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_error(&mut r).unwrap(), err);
            assert!(r.is_done());
        }
    }

    #[test]
    fn every_spec_variant_roundtrips() {
        let workloads = [
            WorkloadSpec::Steady { rate: 5, seed: 1 },
            WorkloadSpec::Bursty {
                on: 2,
                off: 3,
                rate: 7,
                seed: 9,
            },
            WorkloadSpec::Hotspot { rate: 4 },
            WorkloadSpec::Drain { rate: 2 },
            WorkloadSpec::DrainUnclamped { rate: 3 },
            WorkloadSpec::Adversary { budget: 6 },
            WorkloadSpec::ArriveAndDrain { rate: 8, seed: 2 },
        ];
        for spec in workloads {
            let mut w = Writer::new();
            encode_workload_spec(&mut w, &spec);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_workload_spec(&mut r).unwrap(), spec);
            assert!(r.is_done());
        }
        let schedules = [
            ScheduleSpec::Static,
            ScheduleSpec::Periodic {
                period: 3,
                swaps: 2,
                seed: 11,
            },
            ScheduleSpec::Failure {
                fail_pct: 5,
                recover_pct: 50,
                max_down: 2,
                seed: 13,
            },
            ScheduleSpec::Burst {
                fail_at: 4,
                wake_at: 9,
                count: 3,
                seed: 17,
            },
            ScheduleSpec::CutTargeting { period: 6 },
            ScheduleSpec::Churn {
                period: 4,
                swaps: 1,
                fail_pct: 10,
                max_down: 1,
                seed: 19,
            },
        ];
        for spec in schedules {
            let mut w = Writer::new();
            encode_schedule_spec(&mut w, &spec);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_schedule_spec(&mut r).unwrap(), spec);
            assert!(r.is_done());
        }
    }

    #[test]
    fn corrupted_snapshots_error_instead_of_panicking() {
        let bytes = sample_snapshot().encode();
        // Truncation at every prefix length must yield Err, not panic.
        for cut in 0..bytes.len() {
            assert!(TenantSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(TenantSnapshot::decode(&padded).is_err());
        // A forged adjacency (self-edge) fails graph validation.
        let mut forged = bytes;
        // n=8, d=2: first adjacency slot sits after magic+version+3×u64.
        let slot0 = 8 + 2 + 24;
        forged[slot0..slot0 + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(TenantSnapshot::decode(&forged).is_err());
    }

    /// A version-1 snapshot — whose schedule cursors carried a
    /// wall-clock word — and a version-2 one — which carried the
    /// negative-rescan counter — are typed decode errors, not misreads.
    #[test]
    fn version_one_snapshots_are_rejected() {
        for version in [1u16, 2] {
            let mut bytes = sample_snapshot().encode();
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            let err = TenantSnapshot::decode(&bytes).unwrap_err();
            assert_eq!(err.offset, 8);
            assert!(
                err.reason
                    .contains(&format!("unsupported snapshot version {version}")),
                "{err}"
            );
        }
    }

    /// The error tags of the variants version 2 dropped are unknown.
    #[test]
    fn dropped_error_tags_are_rejected() {
        for tag in [2u8, 5] {
            let mut w = Writer::new();
            w.u8(tag);
            w.u64(0);
            w.u64(0);
            let bytes = w.into_bytes();
            let err = decode_error(&mut Reader::new(&bytes)).unwrap_err();
            assert!(err.reason.contains("unknown error tag"), "{err}");
        }
    }

    /// A forged header of `2⁴⁰` nodes of degree 0 needs no adjacency
    /// bytes, and used to abort the process allocating the graph's
    /// validation buffer. Every node costs at least its load's 8
    /// bytes, so the count is an error against the buffer.
    #[test]
    fn forged_node_count_is_an_error_not_an_abort() {
        let mut w = Writer::new();
        w.raw(SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u64(1 << 40);
        w.u64(0);
        w.u64(1);
        let err = TenantSnapshot::decode(&w.into_bytes()).unwrap_err();
        assert!(err.reason.contains("buffer too short"), "{err}");
    }

    /// A step counter of `u64::MAX` used to overflow the engine's
    /// round numbering one round after resume. Every counter must leave
    /// room to count on.
    #[test]
    fn counters_past_i64_max_are_rejected() {
        let mut snap = sample_snapshot();
        snap.engine.step = i64::MAX as usize;
        assert!(TenantSnapshot::decode(&snap.encode()).is_ok());
        snap.engine.step = usize::MAX;
        let err = TenantSnapshot::decode(&snap.encode()).unwrap_err();
        assert!(err.reason.contains("exceeds i64::MAX"), "{err}");
        let mut snap = sample_snapshot();
        snap.engine.topology_events_applied = u64::MAX;
        assert!(TenantSnapshot::decode(&snap.encode()).is_err());
        let mut snap = sample_snapshot();
        snap.engine.vector_stats.runs = 1 << 63;
        assert!(TenantSnapshot::decode(&snap.encode()).is_err());
    }

    /// Two loads that together pass `i64::MAX` used to overflow the
    /// flow phase once a round moved them onto one node.
    #[test]
    fn loads_summing_past_i64_max_are_rejected() {
        let mut snap = sample_snapshot();
        snap.engine.loads[0] = i64::MAX - 1;
        snap.engine.loads[1..].fill(0);
        snap.engine.loads[1] = 1;
        assert!(TenantSnapshot::decode(&snap.encode()).is_ok());
        snap.engine.loads[2] = 1;
        let err = TenantSnapshot::decode(&snap.encode()).unwrap_err();
        assert!(err.reason.contains("sum past i64::MAX"), "{err}");
        // Negative loads do not offset positive ones.
        snap.engine.loads[3] = -5;
        assert!(TenantSnapshot::decode(&snap.encode()).is_err());
    }

    /// A schedule period of 0, a percentage over 100 or a burst that
    /// wakes before it fails used to panic in the generators'
    /// constructors at resume.
    #[test]
    fn schedule_specs_the_generators_reject_are_rejected() {
        let forged = [
            ScheduleSpec::Periodic {
                period: 0,
                swaps: 1,
                seed: 1,
            },
            ScheduleSpec::CutTargeting { period: 0 },
            ScheduleSpec::Failure {
                fail_pct: 101,
                recover_pct: 5,
                max_down: 1,
                seed: 1,
            },
            ScheduleSpec::Failure {
                fail_pct: 5,
                recover_pct: u32::MAX,
                max_down: 1,
                seed: 1,
            },
            ScheduleSpec::Burst {
                fail_at: 5,
                wake_at: 5,
                count: 1,
                seed: 1,
            },
            ScheduleSpec::Burst {
                fail_at: 0,
                wake_at: 5,
                count: 1,
                seed: 1,
            },
            ScheduleSpec::Churn {
                period: 2,
                swaps: 1,
                fail_pct: 200,
                max_down: 1,
                seed: 1,
            },
        ];
        for spec in forged {
            let mut snap = sample_snapshot();
            snap.schedule = spec.clone();
            assert!(TenantSnapshot::decode(&snap.encode()).is_err(), "{spec:?}");
        }
    }

    /// Encodes `spec` as a snapshot's workload and decodes it back.
    fn decode_spec(spec: WorkloadSpec) -> Result<TenantSnapshot, WireError> {
        let mut snap = sample_snapshot();
        snap.workload = Some(spec);
        TenantSnapshot::decode(&snap.encode())
    }

    /// One past `i64::MAX`: the smallest magnitude that would flip sign
    /// in the generators' `as i64` casts.
    const TOO_BIG: u64 = i64::MAX as u64 + 1;

    fn assert_magnitude_rejected(spec: WorkloadSpec) {
        let err = decode_spec(spec.clone()).unwrap_err();
        assert!(err.reason.contains("exceeds i64::MAX"), "{spec:?}: {err}");
    }

    #[test]
    fn steady_rate_over_i64_max_is_rejected() {
        assert_magnitude_rejected(WorkloadSpec::Steady {
            rate: TOO_BIG,
            seed: 1,
        });
        assert!(decode_spec(WorkloadSpec::Steady {
            rate: i64::MAX as u64,
            seed: 1
        })
        .is_ok());
    }

    #[test]
    fn bursty_rate_over_i64_max_is_rejected() {
        assert_magnitude_rejected(WorkloadSpec::Bursty {
            on: 2,
            off: 3,
            rate: TOO_BIG,
            seed: 1,
        });
    }

    #[test]
    fn hotspot_rate_over_i64_max_is_rejected() {
        assert_magnitude_rejected(WorkloadSpec::Hotspot { rate: TOO_BIG });
    }

    #[test]
    fn drain_rate_over_i64_max_is_rejected() {
        assert_magnitude_rejected(WorkloadSpec::Drain { rate: TOO_BIG });
    }

    #[test]
    fn unclamped_drain_rate_over_i64_max_is_rejected() {
        assert_magnitude_rejected(WorkloadSpec::DrainUnclamped { rate: u64::MAX });
    }

    #[test]
    fn bursty_with_an_empty_on_phase_is_rejected() {
        let err = decode_spec(WorkloadSpec::Bursty {
            on: 0,
            off: 3,
            rate: 8,
            seed: 1,
        })
        .unwrap_err();
        assert!(err.reason.contains("non-empty on-phase"), "{err}");
    }

    #[test]
    fn bursty_with_an_overflowing_period_is_rejected() {
        let err = decode_spec(WorkloadSpec::Bursty {
            on: usize::MAX,
            off: 1,
            rate: 8,
            seed: 1,
        })
        .unwrap_err();
        assert!(err.reason.contains("overflows"), "{err}");
    }

    #[test]
    fn adversary_budget_over_i64_max_is_rejected() {
        assert_magnitude_rejected(WorkloadSpec::Adversary { budget: TOO_BIG });
    }

    #[test]
    fn arrive_and_drain_rate_over_i64_max_is_rejected() {
        assert_magnitude_rejected(WorkloadSpec::ArriveAndDrain {
            rate: TOO_BIG,
            seed: 1,
        });
    }
}
