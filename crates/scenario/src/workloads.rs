//! Concrete [`Workload`] generators.
//!
//! All generators are deterministic: randomized ones take explicit
//! seeds and draw from the vendored deterministic RNG, and every
//! generator's [`reset`](Workload::reset) restores the exact
//! post-construction state so one instance can replay its delta stream
//! — the property the differential tests and the scenario harness use
//! to drive every engine path with identical injection.

use dlb_core::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Steady Poisson-like arrivals: every round, `rate` tokens land on
/// independently uniform nodes (the discretised arrival stream of an
/// open queueing system; over many rounds each node receives a
/// binomially distributed — in the limit Poisson — share).
#[derive(Debug, Clone)]
pub struct SteadyArrivals {
    rate: u64,
    seed: u64,
    rng: StdRng,
}

impl SteadyArrivals {
    /// `rate` tokens per round, placement driven by `seed`.
    pub fn new(rate: u64, seed: u64) -> Self {
        SteadyArrivals {
            rate,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Workload for SteadyArrivals {
    fn label(&self) -> String {
        format!("steady(+{}/round)", self.rate)
    }

    fn inject(&mut self, _round: usize, loads: &[i64], deltas: &mut [i64]) {
        let n = loads.len();
        for _ in 0..self.rate {
            deltas[self.rng.gen_range(0..n)] += 1;
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    // The RNG position is the only mutable state.
    fn cursor(&self) -> Vec<u64> {
        self.rng.state().to_vec()
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        match <[u64; 4]>::try_from(cursor) {
            Ok(s) => {
                self.rng = StdRng::from_state(s);
                true
            }
            Err(_) => false,
        }
    }
}

/// Bursty on/off arrivals: `on` rounds of steady arrivals at `rate`
/// tokens/round, then `off` quiet rounds, repeating. The RNG advances
/// only during on-phases, so the phase structure — not wall-clock
/// round numbers — determines the stream.
#[derive(Debug, Clone)]
pub struct BurstyOnOff {
    on: usize,
    off: usize,
    rate: u64,
    seed: u64,
    rng: StdRng,
}

impl BurstyOnOff {
    /// `on` injecting rounds then `off` quiet rounds, repeating;
    /// `rate` tokens per injecting round.
    ///
    /// # Panics
    ///
    /// Panics if `on == 0` (the workload would never inject and the
    /// caller almost certainly meant [`crate::NoWorkload`]).
    pub fn new(on: usize, off: usize, rate: u64, seed: u64) -> Self {
        assert!(on > 0, "bursty workload needs a non-empty on-phase");
        BurstyOnOff {
            on,
            off,
            rate,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether round `round` (1-based) falls in an on-phase.
    pub fn is_on(&self, round: usize) -> bool {
        (round - 1) % (self.on + self.off) < self.on
    }
}

impl Workload for BurstyOnOff {
    fn label(&self) -> String {
        format!("bursty({}on/{}off,+{})", self.on, self.off, self.rate)
    }

    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]) {
        if !self.is_on(round) {
            return;
        }
        let n = loads.len();
        for _ in 0..self.rate {
            deltas[self.rng.gen_range(0..n)] += 1;
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    // The phase is a pure function of the (engine-supplied) round
    // number, so the RNG position is again the whole cursor.
    fn cursor(&self) -> Vec<u64> {
        self.rng.state().to_vec()
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        match <[u64; 4]>::try_from(cursor) {
            Ok(s) => {
                self.rng = StdRng::from_state(s);
                true
            }
            Err(_) => false,
        }
    }
}

/// Hotspot: floods one fixed node with `rate` tokens every round — the
/// worst spatial correlation an arrival process can have, and the
/// dynamic analogue of the paper's point-mass initial distribution.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot {
    node: usize,
    rate: u64,
}

impl Hotspot {
    /// `rate` tokens per round, all on `node`.
    pub fn new(node: usize, rate: u64) -> Self {
        Hotspot { node, rate }
    }
}

impl Workload for Hotspot {
    fn label(&self) -> String {
        format!("hotspot(node {},+{}/round)", self.node, self.rate)
    }

    fn inject(&mut self, _round: usize, _loads: &[i64], deltas: &mut [i64]) {
        deltas[self.node] += self.rate as i64;
    }
}

/// Drain: designated sink nodes each consume up to `rate` tokens per
/// round (work leaving the system — completed requests, expiring
/// jobs). Clamped by default: a sink never removes more than the node
/// holds, so non-overdrawing schemes stay error-free.
/// [`Drain::unclamped`] removes exactly `rate` regardless — the
/// configuration the differential tests use to *provoke* the engines'
/// negative-load handling mid-run.
#[derive(Debug, Clone)]
pub struct Drain {
    sinks: Vec<usize>,
    rate: u64,
    clamped: bool,
}

impl Drain {
    /// Sinks each consuming up to `rate` tokens/round (clamped at the
    /// node's current non-negative load).
    pub fn new(sinks: Vec<usize>, rate: u64) -> Self {
        Drain {
            sinks,
            rate,
            clamped: true,
        }
    }

    /// Sinks each removing exactly `rate` tokens/round, even past
    /// zero — drives loads negative by design.
    pub fn unclamped(sinks: Vec<usize>, rate: u64) -> Self {
        Drain {
            sinks,
            rate,
            clamped: false,
        }
    }
}

impl Workload for Drain {
    fn label(&self) -> String {
        format!(
            "drain({} sinks,-{}/round{})",
            self.sinks.len(),
            self.rate,
            if self.clamped { "" } else { ",unclamped" }
        )
    }

    fn inject(&mut self, _round: usize, loads: &[i64], deltas: &mut [i64]) {
        for &s in &self.sinks {
            let take = if self.clamped {
                (self.rate as i64).min(loads[s].max(0))
            } else {
                self.rate as i64
            };
            deltas[s] -= take;
        }
    }
}

/// The bounded adversary of the dynamic-network model: each round it
/// spends its whole budget of `B` tokens on the currently most-loaded
/// node (ties to the lowest id), making the hottest spot hotter — the
/// placement that maximally fights the balancer while staying within
/// the `≤ B` tokens/round bound under which steady-state discrepancy
/// results are stated.
///
/// It finds its target with one full ascending scan of the loads per
/// injecting round, on every execution path — the same order of work
/// as the round's own flow pass — counted in
/// [`scans`](BoundedAdversary::scans), which the cross-path tests pin
/// at exactly one per injecting round.
#[derive(Debug, Clone, Copy)]
pub struct BoundedAdversary {
    budget: u64,
    scans: u64,
}

impl BoundedAdversary {
    /// An adversary injecting `budget` tokens per round.
    pub fn new(budget: u64) -> Self {
        BoundedAdversary { budget, scans: 0 }
    }

    /// Full `O(n)` argmax scans this instance has performed: one per
    /// injecting round.
    pub fn scans(&self) -> u64 {
        self.scans
    }
}

impl Workload for BoundedAdversary {
    fn label(&self) -> String {
        format!("adversary(B={})", self.budget)
    }

    fn inject(&mut self, _round: usize, loads: &[i64], deltas: &mut [i64]) {
        // Lowest id on ties: only a strictly larger load moves the
        // target.
        self.scans += 1;
        let mut target = 0usize;
        for (u, &x) in loads.iter().enumerate() {
            if x > loads[target] {
                target = u;
            }
        }
        deltas[target] += self.budget as i64;
    }

    fn reset(&mut self) {
        self.scans = 0;
    }

    // The injection stream itself is a pure function of the loads; the
    // cursor only carries the scan tally, so perf accounting survives
    // a checkpoint and existing snapshots keep decoding.
    fn cursor(&self) -> Vec<u64> {
        vec![self.scans]
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        // A scan tally past 2⁶³ is a forged cursor: it could not
        // count on.
        match cursor {
            [scans] if i64::try_from(*scans).is_ok() => {
                self.scans = *scans;
                true
            }
            _ => false,
        }
    }
}

/// Sums the deltas of several workloads (arrivals plus drains gives a
/// flow-equilibrium scenario). Each child adds straight into the
/// caller's buffer, in order, as the [`Workload::inject`] contract
/// asks. Every child sees the same pre-round loads, so a composed
/// [`BoundedAdversary`] scans once per injecting round, exactly as it
/// does alone.
pub struct Compose {
    children: Vec<Box<dyn Workload>>,
}

impl Compose {
    /// Composes `children` by summing their per-round deltas.
    pub fn new(children: Vec<Box<dyn Workload>>) -> Self {
        Compose { children }
    }
}

impl Workload for Compose {
    fn label(&self) -> String {
        let parts: Vec<String> = self.children.iter().map(|c| c.label()).collect();
        format!("compose({})", parts.join(" + "))
    }

    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]) {
        for child in &mut self.children {
            child.inject(round, loads, deltas);
        }
    }

    fn reset(&mut self) {
        for child in &mut self.children {
            child.reset();
        }
    }

    // Length-prefixed per-child frames, so heterogeneous children
    // (including nested compositions) round-trip unambiguously.
    fn cursor(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for child in &self.children {
            let frame = child.cursor();
            out.push(frame.len() as u64);
            out.extend(frame);
        }
        out
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        let mut rest = cursor;
        let mut ok = true;
        for child in &mut self.children {
            let Some((&len, tail)) = rest.split_first() else {
                return false;
            };
            if tail.len() < len as usize {
                return false;
            }
            let (frame, next) = tail.split_at(len as usize);
            ok &= child.restore_cursor(frame);
            rest = next;
        }
        ok && rest.is_empty()
    }
}

/// A named workload configuration — the injection axis of every
/// scenario experiment, mirroring the harness's `SchemeSpec`/
/// `GraphSpec` pattern: a spec is `Clone + Eq`, builds a fresh
/// generator per engine path (identical streams), and labels JSON
/// rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// [`SteadyArrivals`].
    Steady {
        /// Tokens per round.
        rate: u64,
        /// Placement seed.
        seed: u64,
    },
    /// [`BurstyOnOff`].
    Bursty {
        /// Injecting rounds per period.
        on: usize,
        /// Quiet rounds per period.
        off: usize,
        /// Tokens per injecting round.
        rate: u64,
        /// Placement seed.
        seed: u64,
    },
    /// [`Hotspot`] on node 0.
    Hotspot {
        /// Tokens per round.
        rate: u64,
    },
    /// [`Drain`] (clamped) at every 8th node.
    Drain {
        /// Per-sink tokens removed per round.
        rate: u64,
    },
    /// [`Drain::unclamped`] at every 8th node — drives loads negative.
    DrainUnclamped {
        /// Per-sink tokens removed per round.
        rate: u64,
    },
    /// [`BoundedAdversary`].
    Adversary {
        /// Tokens per round, spent on the most-loaded node.
        budget: u64,
    },
    /// [`Compose`]: steady arrivals plus a clamped drain sized to
    /// absorb them — the flow-equilibrium scenario whose total load
    /// hovers around its initial value.
    ArriveAndDrain {
        /// Arrival tokens per round (drain capacity matches).
        rate: u64,
        /// Placement seed.
        seed: u64,
    },
}

impl WorkloadSpec {
    /// The sinks the drain-style specs use: every 8th node.
    fn sinks(n: usize) -> Vec<usize> {
        (0..n).step_by(8).collect()
    }

    /// Checks that the generators can run this spec: every rate or
    /// budget fits in `i64` (they apply it as a signed load delta, so a
    /// larger magnitude would change sign), and a bursty spec has a
    /// non-empty on-phase whose period `on + off` does not overflow.
    /// Every spec that arrives from outside the process (a decoded
    /// snapshot, a new serving tenant) passes through here before
    /// [`build`](WorkloadSpec::build).
    ///
    /// # Errors
    ///
    /// The reason the spec is rejected.
    pub fn validate(&self) -> Result<(), String> {
        let magnitude = match *self {
            WorkloadSpec::Bursty { on, off, rate, .. } => {
                if on == 0 {
                    return Err("bursty workload needs a non-empty on-phase".into());
                }
                if on.checked_add(off).is_none() {
                    return Err(format!("bursty period {on} + {off} overflows"));
                }
                rate
            }
            WorkloadSpec::Steady { rate, .. }
            | WorkloadSpec::Hotspot { rate }
            | WorkloadSpec::Drain { rate }
            | WorkloadSpec::DrainUnclamped { rate }
            | WorkloadSpec::ArriveAndDrain { rate, .. } => rate,
            WorkloadSpec::Adversary { budget } => budget,
        };
        if i64::try_from(magnitude).is_err() {
            return Err(format!("workload magnitude {magnitude} exceeds i64::MAX"));
        }
        Ok(())
    }

    /// Instantiates the workload for an `n`-node graph.
    ///
    /// # Panics
    ///
    /// Panics on a bursty spec with an empty on-phase; specs from
    /// untrusted sources go through [`validate`](WorkloadSpec::validate)
    /// first.
    pub fn build(&self, n: usize) -> Box<dyn Workload> {
        match *self {
            WorkloadSpec::Steady { rate, seed } => Box::new(SteadyArrivals::new(rate, seed)),
            WorkloadSpec::Bursty {
                on,
                off,
                rate,
                seed,
            } => Box::new(BurstyOnOff::new(on, off, rate, seed)),
            WorkloadSpec::Hotspot { rate } => Box::new(Hotspot::new(0, rate)),
            WorkloadSpec::Drain { rate } => Box::new(Drain::new(Self::sinks(n), rate)),
            WorkloadSpec::DrainUnclamped { rate } => {
                Box::new(Drain::unclamped(Self::sinks(n), rate))
            }
            WorkloadSpec::Adversary { budget } => Box::new(BoundedAdversary::new(budget)),
            WorkloadSpec::ArriveAndDrain { rate, seed } => {
                let sinks = Self::sinks(n);
                // Per-sink capacity sized so the sinks can absorb the
                // arrival rate once flow reaches them.
                let per_sink = (rate as usize).div_ceil(sinks.len()) as u64;
                Box::new(Compose::new(vec![
                    Box::new(SteadyArrivals::new(rate, seed)),
                    Box::new(Drain::new(sinks, per_sink)),
                ]))
            }
        }
    }

    /// A short label for tables and JSON rows.
    pub fn label(&self) -> String {
        match *self {
            WorkloadSpec::Steady { rate, .. } => format!("steady(+{rate})"),
            WorkloadSpec::Bursty { on, off, rate, .. } => format!("bursty({on}/{off},+{rate})"),
            WorkloadSpec::Hotspot { rate } => format!("hotspot(+{rate})"),
            WorkloadSpec::Drain { rate } => format!("drain(-{rate})"),
            WorkloadSpec::DrainUnclamped { rate } => format!("drain!(-{rate})"),
            WorkloadSpec::Adversary { budget } => format!("adversary(B={budget})"),
            WorkloadSpec::ArriveAndDrain { rate, .. } => format!("arrive+drain({rate})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(w: &mut dyn Workload, n: usize, rounds: usize) -> Vec<Vec<i64>> {
        let loads = vec![10i64; n];
        (1..=rounds)
            .map(|r| {
                let mut d = vec![0i64; n];
                w.inject(r, &loads, &mut d);
                d
            })
            .collect()
    }

    #[test]
    fn steady_injects_exactly_rate_and_replays_after_reset() {
        let mut w = SteadyArrivals::new(7, 3);
        let a = collect(&mut w, 16, 5);
        for d in &a {
            assert_eq!(d.iter().sum::<i64>(), 7);
            assert!(d.iter().all(|&x| x >= 0));
        }
        w.reset();
        assert_eq!(collect(&mut w, 16, 5), a, "reset must replay the stream");
    }

    #[test]
    fn bursty_respects_phases() {
        let mut w = BurstyOnOff::new(2, 3, 5, 1);
        let ds = collect(&mut w, 8, 10);
        let sums: Vec<i64> = ds.iter().map(|d| d.iter().sum()).collect();
        assert_eq!(sums, vec![5, 5, 0, 0, 0, 5, 5, 0, 0, 0]);
    }

    #[test]
    fn hotspot_targets_one_node() {
        let mut w = Hotspot::new(3, 9);
        let ds = collect(&mut w, 8, 2);
        assert_eq!(ds[0][3], 9);
        assert_eq!(ds[0].iter().sum::<i64>(), 9);
    }

    #[test]
    fn clamped_drain_never_overdraws() {
        let mut w = Drain::new(vec![0, 2], 7);
        let loads = vec![3i64, 10, 20, 0];
        let mut d = vec![0i64; 4];
        w.inject(1, &loads, &mut d);
        assert_eq!(d, vec![-3, 0, -7, 0], "sink 0 clamps at its load");
        // Unclamped removes the full rate regardless.
        let mut w = Drain::unclamped(vec![0], 7);
        let mut d = vec![0i64; 4];
        w.inject(1, &loads, &mut d);
        assert_eq!(d[0], -7);
    }

    #[test]
    fn clamped_drain_ignores_negative_loads() {
        let mut w = Drain::new(vec![0], 5);
        let loads = vec![-4i64, 1, 1, 1];
        let mut d = vec![0i64; 4];
        w.inject(1, &loads, &mut d);
        assert_eq!(d[0], 0, "nothing to take from a negative node");
    }

    #[test]
    fn adversary_floods_the_argmax_lowest_id_on_ties() {
        let mut w = BoundedAdversary::new(4);
        let loads = vec![1i64, 9, 9, 2];
        let mut d = vec![0i64; 4];
        w.inject(1, &loads, &mut d);
        assert_eq!(d, vec![0, 4, 0, 0]);
        assert_eq!(w.scans(), 1, "the scan is counted");
        // Every injection rescans: the target follows the loads.
        let mut d = vec![0i64; 4];
        w.inject(2, &[9, 1, 1, 9], &mut d);
        assert_eq!(d, vec![4, 0, 0, 0]);
        assert_eq!(w.scans(), 2, "one scan per injecting round");
        w.reset();
        assert_eq!(w.scans(), 0);
    }

    /// Every execution path hands the adversary the same loads once
    /// per round, so each pays exactly one scan per injecting round
    /// and lands on the identical target.
    #[test]
    fn adversary_scans_once_per_injecting_round_on_every_path() {
        use dlb_core::schemes::SendFloor;
        use dlb_core::{Engine, LoadVector, Path, Run};
        use dlb_graph::{generators, BalancingGraph};

        let gp = BalancingGraph::lazy(generators::cycle(32).unwrap());
        let initial = LoadVector::point_mass(32, 320);

        let mut planned = BoundedAdversary::new(7);
        let mut engine = Engine::new(gp.clone(), initial.clone());
        engine
            .run(
                &mut SendFloor::new(),
                Run {
                    workload: Some(&mut planned),
                    path: Path::Planned,
                    ..Run::new(60)
                },
            )
            .unwrap();
        assert_eq!(planned.scans(), 60, "planned path: one scan per round");

        let mut streamed = BoundedAdversary::new(7);
        let mut kernel = Engine::new(gp, initial);
        kernel
            .run(
                &mut SendFloor::new(),
                Run {
                    workload: Some(&mut streamed),
                    ..Run::new(60)
                },
            )
            .unwrap();
        assert_eq!(streamed.scans(), 60, "kernel path: one scan per round");
        assert_eq!(kernel.loads(), engine.loads(), "identical targets");
        assert_eq!(kernel.injected_total(), 60 * 7);
    }

    /// A composed adversary scans once per injecting round too, on
    /// every path; its scan tally rides in its cursor frame.
    #[test]
    fn composed_adversary_scans_once_per_injecting_round() {
        use dlb_core::schemes::SendFloor;
        use dlb_core::{Engine, LoadVector, Path, Run};
        use dlb_graph::{generators, BalancingGraph};

        let compose = || {
            Compose::new(vec![
                Box::new(BoundedAdversary::new(5)),
                Box::new(SteadyArrivals::new(3, 2)),
            ])
        };
        let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
        let mut planned = compose();
        let mut engine = Engine::new(gp.clone(), LoadVector::point_mass(16, 160));
        engine
            .run(
                &mut SendFloor::new(),
                Run {
                    workload: Some(&mut planned),
                    path: Path::Planned,
                    ..Run::new(40)
                },
            )
            .unwrap();
        assert_eq!(engine.injected_total(), 40 * (5 + 3));
        // Frame layout: [len = 1, adversary scans, len = 4, rng…].
        assert_eq!(&planned.cursor()[..2], &[1, 40]);

        let mut streamed = compose();
        let mut kernel = Engine::new(gp, LoadVector::point_mass(16, 160));
        kernel
            .run(
                &mut SendFloor::new(),
                Run {
                    workload: Some(&mut streamed),
                    ..Run::new(40)
                },
            )
            .unwrap();
        assert_eq!(kernel.loads(), engine.loads());
        assert_eq!(streamed.cursor(), planned.cursor());

        // At the trait level, each child reads the same loads.
        let mut compose = Compose::new(vec![Box::new(BoundedAdversary::new(5))]);
        let mut deltas = vec![0i64; 4];
        compose.inject(1, &[1, 9, 2, 2], &mut deltas);
        assert_eq!(deltas, vec![0, 5, 0, 0], "the child scanned the loads");
    }

    #[test]
    fn compose_sums_children() {
        let mut w = Compose::new(vec![
            Box::new(Hotspot::new(0, 3)),
            Box::new(Drain::new(vec![0, 1], 2)),
        ]);
        let loads = vec![10i64, 10];
        let mut d = vec![0i64; 2];
        w.inject(1, &loads, &mut d);
        assert_eq!(d, vec![1, -2]);
    }

    /// The two composed streams the pin below covers: the perfbench
    /// open-system mix, and an adversary, steady arrivals and a nested
    /// composition of bursty arrivals and a drain.
    fn composed_children() -> [Vec<Box<dyn Workload>>; 2] {
        let arrive_and_drain: Vec<Box<dyn Workload>> = vec![
            Box::new(SteadyArrivals::new(24, 5)),
            Box::new(Drain::new(WorkloadSpec::sinks(64), 3)),
        ];
        let mixed: Vec<Box<dyn Workload>> = vec![
            Box::new(BoundedAdversary::new(4)),
            Box::new(SteadyArrivals::new(9, 17)),
            Box::new(Compose::new(vec![
                Box::new(BurstyOnOff::new(3, 2, 6, 23)),
                Box::new(Drain::new(vec![1, 9, 33], 2)),
            ])),
        ];
        [arrive_and_drain, mixed]
    }

    /// Drives `w` for `rounds` rounds on 64 nodes, moving the loads by
    /// each round's deltas and then rotating them (so the load-driven
    /// children see a changing state), and returns an FNV-1a hash of
    /// every round's deltas and the final cursor, plus the deltas.
    fn drive_hashed(w: &mut dyn Workload, rounds: usize) -> (u64, Vec<Vec<i64>>) {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut loads: Vec<i64> = (0..64).map(|u| (u * 7 % 13) as i64).collect();
        let mut rows = Vec::new();
        for round in 1..=rounds {
            let mut deltas = vec![0i64; 64];
            w.inject(round, &loads, &mut deltas);
            for (x, &dv) in loads.iter_mut().zip(&deltas) {
                *x += dv;
                eat(dv as u64);
            }
            loads.rotate_left(1);
            rows.push(deltas);
        }
        for word in w.cursor() {
            eat(word);
        }
        (hash, rows)
    }

    /// Pins the composed delta streams and cursors bit for bit — the
    /// hashes were taken when each child still wrote a private zeroed
    /// buffer that `Compose` then merged — and checks that a
    /// composition equals the sum of its children run alone on zeroed
    /// buffers, cursors included.
    #[test]
    fn composed_streams_are_pinned_and_equal_the_per_child_sums() {
        let spec = WorkloadSpec::ArriveAndDrain { rate: 24, seed: 5 };
        let (spec_hash, _) = drive_hashed(spec.build(64).as_mut(), 64);
        let pinned = [12_473_659_301_584_846_174_u64, 7_117_689_722_248_240_164];
        for (i, children) in composed_children().into_iter().enumerate() {
            let mut compose = Compose::new(children);
            let (hash, rows) = drive_hashed(&mut compose, 64);
            assert_eq!(hash, pinned[i], "composition {i}: stream hash");
            if i == 0 {
                assert_eq!(spec_hash, hash, "the spec builds this composition");
            }

            // The same stream, child by child on zeroed buffers: the
            // children see the loads the composition saw, round by
            // round, and end on the cursor frames it reports.
            let mut alone = composed_children()
                .into_iter()
                .nth(i)
                .expect("two compositions");
            let mut loads: Vec<i64> = (0..64).map(|u| (u * 7 % 13) as i64).collect();
            for (round, row) in rows.iter().enumerate() {
                let mut sum = vec![0i64; 64];
                for child in &mut alone {
                    let mut own = vec![0i64; 64];
                    child.inject(round + 1, &loads, &mut own);
                    for (s, d) in sum.iter_mut().zip(own) {
                        *s += d;
                    }
                }
                assert_eq!(&sum, row, "composition {i}, round {}", round + 1);
                for (x, &dv) in loads.iter_mut().zip(row) {
                    *x += dv;
                }
                loads.rotate_left(1);
            }
            let frames: Vec<u64> = alone
                .iter()
                .flat_map(|c| {
                    let frame = c.cursor();
                    std::iter::once(frame.len() as u64).chain(frame)
                })
                .collect();
            assert_eq!(compose.cursor(), frames, "composition {i}: cursor");
        }
    }

    /// A fresh same-spec instance restored from a mid-stream cursor
    /// must continue the original's delta stream exactly — the
    /// checkpoint contract every snapshotting tenant relies on.
    #[test]
    fn cursors_resume_the_stream_mid_phase() {
        let check = |mut original: Box<dyn Workload>, mut fresh: Box<dyn Workload>| {
            let label = original.label();
            let _ = collect(original.as_mut(), 16, 7); // advance mid-stream
            let cursor = original.cursor();
            assert!(
                fresh.restore_cursor(&cursor),
                "{label}: cursor shape must match the spec-built instance"
            );
            // `collect` replays rounds 1..=5, but these generators'
            // streams depend on round numbers only through phase
            // structure; the adversary and drains are load-driven.
            let continued = collect(original.as_mut(), 16, 5);
            let restored = collect(fresh.as_mut(), 16, 5);
            assert_eq!(
                restored, continued,
                "{label}: stream diverged after restore"
            );
        };
        check(
            Box::new(SteadyArrivals::new(7, 3)),
            Box::new(SteadyArrivals::new(7, 3)),
        );
        check(
            Box::new(BurstyOnOff::new(3, 2, 5, 1)),
            Box::new(BurstyOnOff::new(3, 2, 5, 1)),
        );
        check(Box::new(Hotspot::new(2, 4)), Box::new(Hotspot::new(2, 4)));
        check(
            Box::new(Drain::new(vec![0, 8], 2)),
            Box::new(Drain::new(vec![0, 8], 2)),
        );
        let compose = || -> Box<dyn Workload> {
            Box::new(Compose::new(vec![
                Box::new(SteadyArrivals::new(4, 9)),
                Box::new(BoundedAdversary::new(3)),
            ]))
        };
        check(compose(), compose());
    }

    #[test]
    fn cursor_restores_reject_mismatched_shapes() {
        let mut w = SteadyArrivals::new(7, 3);
        assert!(!w.restore_cursor(&[1, 2, 3]), "wrong length");
        let mut a = BoundedAdversary::new(4);
        a.inject(1, &[3, 1], &mut [0, 0]);
        let cursor = a.cursor();
        assert_eq!(cursor, vec![1], "scan tally travels in the cursor");
        let mut fresh = BoundedAdversary::new(4);
        assert!(fresh.restore_cursor(&cursor));
        assert_eq!(fresh.scans(), 1);
        assert!(!fresh.restore_cursor(&[1, 2]), "wrong length");
        let mut c = Compose::new(vec![Box::new(SteadyArrivals::new(1, 1))]);
        assert!(!c.restore_cursor(&[9, 0, 0]), "frame longer than cursor");
        assert!(!c.restore_cursor(&[4, 0, 0, 0, 0, 7]), "trailing words");
    }

    #[test]
    fn specs_build_and_label() {
        let specs = [
            WorkloadSpec::Steady { rate: 4, seed: 1 },
            WorkloadSpec::Bursty {
                on: 2,
                off: 2,
                rate: 4,
                seed: 1,
            },
            WorkloadSpec::Hotspot { rate: 4 },
            WorkloadSpec::Drain { rate: 2 },
            WorkloadSpec::DrainUnclamped { rate: 2 },
            WorkloadSpec::Adversary { budget: 4 },
            WorkloadSpec::ArriveAndDrain { rate: 8, seed: 1 },
        ];
        for spec in &specs {
            let mut w = spec.build(32);
            assert!(!spec.label().is_empty());
            assert!(!w.label().is_empty());
            let loads = vec![5i64; 32];
            let mut d = vec![0i64; 32];
            w.inject(1, &loads, &mut d);
            w.reset();
        }
    }
}
