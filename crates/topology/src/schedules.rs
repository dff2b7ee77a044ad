//! Concrete deterministic [`TopologySchedule`] generators.
//!
//! All generators are deterministic: randomized ones take explicit
//! seeds and draw from the vendored deterministic RNG, and every
//! generator's [`reset`](TopologySchedule::reset) restores the exact
//! post-construction state so one instance can replay its event stream
//! — the property the differential tests and the churn harness use to
//! drive every engine path with identical churn.
//!
//! Generators that emit swaps validate each candidate — simplicity
//! against a tracked probe copy of the graph, connectivity against a
//! guard — so the events reaching the engine are always applicable and
//! a connected graph stays connected under churn. On 2-regular graphs
//! the guard is a ring count, and [`ring_swap_delta`] decides each
//! candidate by walking one ring of the probe; on other degrees it is
//! an incrementally maintained [`DynamicConnectivity`] forest, where a
//! candidate costs amortised near-`O(d)`. Either way no candidate pays
//! the full `O(n·d)` BFS. Probe and guard persist across rounds and
//! re-anchor themselves only when the observed graph drifts from the
//! tracked probe (one flat adjacency compare per emitting round).

use std::time::Instant;

use dlb_graph::connectivity::{ring_count, ring_swap_delta};
use dlb_graph::{DynamicConnectivity, RegularGraph, TopologyEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{SwapShortfall, TopologySchedule};

/// Per-requested-swap retry budget for simplicity rejections.
const SIMPLICITY_RETRIES: u64 = 64;
/// Per-requested-swap retry budget for connectivity rejections.
const CONNECTIVITY_RETRIES: u64 = 64;

/// Whether restored accounting counters leave room to count on: no
/// run reaches 2⁶³ of anything, so a larger word is a forged cursor.
fn counters_fit(words: &[u64]) -> bool {
    words.iter().all(|&w| i64::try_from(w).is_ok())
}

/// What a swap-emitting schedule checks candidates' connectivity
/// against: the ring count of a 2-regular graph, or the
/// [`DynamicConnectivity`] forest for any other degree.
#[derive(Debug, Clone)]
enum Guard {
    Rings(usize),
    Forest(Box<DynamicConnectivity>),
}

impl Guard {
    /// Anchors `slot` to `graph`: one `O(n)` ring count, or a forest
    /// rebuilt in place.
    fn anchor<'a>(slot: &'a mut Option<Guard>, graph: &RegularGraph) -> &'a mut Guard {
        if graph.degree() == 2 {
            return slot.insert(Guard::Rings(ring_count(graph)));
        }
        match slot {
            Some(Guard::Forest(dc)) => dc.rebuild(graph),
            _ => *slot = Some(Guard::Forest(Box::new(DynamicConnectivity::new(graph)))),
        }
        slot.as_mut().expect("anchored above")
    }

    /// Whether the graph is connected after the swap
    /// `{a,b},{c,d} → {a,c},{b,d}` of `graph`, the graph the guard is
    /// anchored to; an accepted swap is mirrored into the guard.
    fn accepts(&mut self, graph: &RegularGraph, a: usize, b: usize, c: usize, d: usize) -> bool {
        match self {
            Guard::Rings(rings) => {
                let accepted = *rings as isize + ring_swap_delta(graph, a, b, c, d) == 1;
                if accepted {
                    *rings = 1;
                }
                accepted
            }
            Guard::Forest(dc) => {
                let accepted = !dc.would_leave_disconnected(a, b, c, d);
                if accepted {
                    dc.apply_swap(a, b, c, d);
                }
                accepted
            }
        }
    }
}

/// Proposes one random double-edge swap on `probe` that keeps the
/// graph simple and (when `guard` is present) connected, applying it to
/// `probe` (and mirroring it into `guard`) and returning the event.
///
/// Each requested swap gets its own pair of bounded retry budgets —
/// simplicity and connectivity rejections are charged separately, so a
/// dense graph burning simplicity retries cannot silently starve the
/// connectivity search (and vice versa). All rejects and the final
/// outcome are recorded in `shortfall`. The candidate draw sequence (4
/// RNG draws per attempt) and the accept/reject decisions are exactly
/// those of the pre-PR 6 shared-budget loop, so any burst that was
/// delivered in full keeps its emitted event stream bit-identical; the
/// split budgets only extend the search where the old loop silently
/// under-delivered. `None` when a budget is exhausted (e.g. the graph
/// is a single clique).
fn random_swap(
    probe: &mut RegularGraph,
    mut guard: Option<&mut Guard>,
    rng: &mut StdRng,
    shortfall: &mut SwapShortfall,
) -> Option<TopologyEvent> {
    let n = probe.num_nodes();
    let deg = probe.degree();
    shortfall.requested += 1;
    let (mut simplicity, mut connectivity) = (0u64, 0u64);
    while simplicity < SIMPLICITY_RETRIES && connectivity < CONNECTIVITY_RETRIES {
        let a = rng.gen_range(0..n);
        let b = probe.neighbor(a, rng.gen_range(0..deg));
        let c = rng.gen_range(0..n);
        let d = probe.neighbor(c, rng.gen_range(0..deg));
        if a == c || a == d || b == c || b == d || probe.has_edge(a, c) || probe.has_edge(b, d) {
            simplicity += 1;
            continue;
        }
        if guard
            .as_deref_mut()
            .is_some_and(|g| !g.accepts(probe, a, b, c, d))
        {
            connectivity += 1;
            continue;
        }
        probe
            .apply_swap(a, b, c, d)
            .expect("candidate pre-validated");
        shortfall.emitted += 1;
        shortfall.simplicity_rejects += simplicity;
        shortfall.connectivity_rejects += connectivity;
        return Some(TopologyEvent::Swap { a, b, c, d });
    }
    shortfall.simplicity_rejects += simplicity;
    shortfall.connectivity_rejects += connectivity;
    None
}

/// Periodic random rewiring: every `period` rounds, a burst of random
/// double-edge swaps — the "edges move but the graph stays d-regular"
/// churn model. Simplicity is validated on a probe copy of the graph;
/// connectivity (on by default) by a ring walk over the probe on
/// 2-regular graphs and against a [`DynamicConnectivity`] forest
/// updated incrementally per candidate otherwise, so every emitted
/// event applies cleanly and a connected graph stays connected.
///
/// Probe and connectivity guard **persist across rounds**: as long as
/// the engine applies exactly the events this schedule emitted (the
/// normal case — the probe then matches the pre-round graph slot for
/// slot), an emitting round costs one `O(n·d)` slice compare plus the
/// candidate probes (one ring walk each, or amortised near-`O(d)` on
/// the forest, whose HDT level amortisation keeps accruing instead of
/// resetting with a fresh `O(n·d)` rebuild per round). Any drift — a
/// rolled-back round, a composed sibling schedule swapping edges, a
/// port permutation — fails the slot compare and re-anchors both to
/// the observed graph.
#[derive(Debug, Clone)]
pub struct PeriodicRewiring {
    period: usize,
    swaps: usize,
    seed: u64,
    check_connectivity: bool,
    rng: StdRng,
    /// Tracked copy of the graph, kept current by applying accepted
    /// swaps; re-cloned (allocation reused) only on drift.
    probe: Option<RegularGraph>,
    /// Persistent alongside `probe`; a re-anchored forest reuses its
    /// allocations. `None` without the connectivity check.
    guard: Option<Guard>,
    shortfall: SwapShortfall,
    validation_ns: u64,
}

impl PeriodicRewiring {
    /// A burst of `swaps` random swaps every `period` rounds (rounds
    /// `period, 2·period, …`), seeded by `seed`, preserving
    /// connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` (the schedule would be ill-defined).
    pub fn new(period: usize, swaps: usize, seed: u64) -> Self {
        assert!(period > 0, "rewiring period must be positive");
        PeriodicRewiring {
            period,
            swaps,
            seed,
            check_connectivity: true,
            rng: StdRng::seed_from_u64(seed),
            probe: None,
            guard: None,
            shortfall: SwapShortfall::default(),
            validation_ns: 0,
        }
    }

    /// Disables the per-swap connectivity check (pure random swaps can
    /// then split the graph — useful for stress tests only).
    #[must_use]
    pub fn without_connectivity_check(mut self) -> Self {
        self.check_connectivity = false;
        self
    }
}

impl TopologySchedule for PeriodicRewiring {
    fn label(&self) -> String {
        format!("rewire({}x every {})", self.swaps, self.period)
    }

    fn events(&mut self, round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        if !round.is_multiple_of(self.period) {
            return;
        }
        let started = Instant::now();
        let stale = self
            .probe
            .as_ref()
            .is_none_or(|p| p.adjacency_slots() != graph.adjacency_slots());
        if stale {
            match self.probe.as_mut() {
                Some(p) => p.clone_from(graph),
                None => self.probe = Some(graph.clone()),
            }
            if self.check_connectivity {
                Guard::anchor(&mut self.guard, graph);
            }
        }
        let probe = self.probe.as_mut().expect("tracked above");
        for _ in 0..self.swaps {
            if let Some(ev) = random_swap(
                probe,
                self.guard.as_mut(),
                &mut self.rng,
                &mut self.shortfall,
            ) {
                out.push(ev);
            }
        }
        self.validation_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.probe = None;
        self.guard = None;
        self.shortfall = SwapShortfall::default();
        self.validation_ns = 0;
    }

    fn swap_shortfall(&self) -> Option<SwapShortfall> {
        Some(self.shortfall)
    }

    fn validation_nanos(&self) -> u64 {
        self.validation_ns
    }

    // RNG position plus the swap accounting; the probe graph and
    // connectivity guard are self-re-anchoring caches (the slot
    // compare rebuilds them from the observed graph), so they are
    // deliberately not part of the cursor, and neither is the
    // wall-clock validation time, which no two runs share.
    fn cursor_into(&self, out: &mut Vec<u64>) {
        out.extend(self.rng.state());
        out.extend([
            self.shortfall.requested,
            self.shortfall.emitted,
            self.shortfall.simplicity_rejects,
            self.shortfall.connectivity_rejects,
        ]);
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        let [s0, s1, s2, s3, requested, emitted, simplicity, connectivity] = *cursor else {
            return false;
        };
        if !counters_fit(&cursor[4..]) {
            return false;
        }
        self.rng = StdRng::from_state([s0, s1, s2, s3]);
        self.shortfall = SwapShortfall {
            requested,
            emitted,
            simplicity_rejects: simplicity,
            connectivity_rejects: connectivity,
        };
        // Force a re-anchor on the restored graph rather than trusting
        // caches from whatever run this instance saw before.
        self.probe = None;
        self.guard = None;
        true
    }
}

/// Failure/recovery churn at rate p: each round, with probability
/// `p_fail` one uniformly chosen awake node (that still has an awake
/// neighbour to hand its queue to) goes down, and with probability
/// `p_recover` one uniformly chosen asleep node comes back — the
/// memoryless crash/repair model, bounded by `max_down` simultaneous
/// failures.
///
/// The awake-neighbour requirement holds at *sleep time*; later
/// failures can still strand an earlier sleeper with no live
/// neighbour, in which case it keeps (and, schemes being
/// topology-oblivious, keeps balancing) its queue until somebody
/// recovers — see `dlb_graph::mutate::handoff_deltas`.
#[derive(Debug, Clone)]
pub struct FailureRecovery {
    p_fail: f64,
    p_recover: f64,
    max_down: usize,
    seed: u64,
    rng: StdRng,
}

impl FailureRecovery {
    /// Failure probability `p_fail` and recovery probability
    /// `p_recover` per round, at most `max_down` nodes down at once.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p_fail: f64, p_recover: f64, max_down: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_fail), "p_fail must be in [0, 1]");
        assert!(
            (0.0..=1.0).contains(&p_recover),
            "p_recover must be in [0, 1]"
        );
        FailureRecovery {
            p_fail,
            p_recover,
            max_down,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

/// Picks a uniformly random awake node that has at least one awake
/// neighbour (so its queue has somewhere to go). Bounded rejection
/// sampling; `None` if no suitable node turns up.
fn pick_failure_target(graph: &RegularGraph, rng: &mut StdRng) -> Option<usize> {
    let n = graph.num_nodes();
    for _ in 0..32 {
        let u = rng.gen_range(0..n);
        if !graph.is_awake(u) {
            continue;
        }
        if graph
            .neighbors(u)
            .iter()
            .any(|&v| graph.is_awake(v as usize))
        {
            return Some(u);
        }
    }
    None
}

impl TopologySchedule for FailureRecovery {
    fn label(&self) -> String {
        format!(
            "failure(p={:.3}/{:.3},max {})",
            self.p_fail, self.p_recover, self.max_down
        )
    }

    fn events(&mut self, _round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        // Both draws happen every round so the RNG stream is a pure
        // function of the round count, not of the graph state.
        let fail = self.rng.gen_bool(self.p_fail);
        let recover = self.rng.gen_bool(self.p_recover);
        if fail && graph.asleep_count() < self.max_down {
            if let Some(u) = pick_failure_target(graph, &mut self.rng) {
                out.push(TopologyEvent::Sleep { node: u });
            }
        }
        if recover && graph.asleep_count() > 0 {
            let at = self.rng.gen_range(0..graph.asleep_count());
            out.push(TopologyEvent::Wake {
                node: graph.asleep_nodes()[at] as usize,
            });
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    // The draws depend on the observed graph, so the RNG position is
    // the entire mutable state.
    fn cursor_into(&self, out: &mut Vec<u64>) {
        out.extend(self.rng.state());
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

/// A one-shot failure burst: `count` nodes go down together at round
/// `fail_at` and all recover at round `wake_at` — the scenario behind
/// the *recovery time after a failure burst* metric.
#[derive(Debug, Clone)]
pub struct FailureBurst {
    fail_at: usize,
    wake_at: usize,
    count: usize,
    seed: u64,
    rng: StdRng,
    slept: Vec<usize>,
}

impl FailureBurst {
    /// Sleeps `count` random (seeded) nodes at round `fail_at`, wakes
    /// them all at round `wake_at`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fail_at < wake_at`.
    pub fn new(fail_at: usize, wake_at: usize, count: usize, seed: u64) -> Self {
        assert!(
            fail_at > 0 && fail_at < wake_at,
            "burst needs 0 < fail_at < wake_at"
        );
        FailureBurst {
            fail_at,
            wake_at,
            count,
            seed,
            rng: StdRng::seed_from_u64(seed),
            slept: Vec::new(),
        }
    }

    /// The round at which the burst's nodes recover.
    pub fn wake_round(&self) -> usize {
        self.wake_at
    }
}

impl TopologySchedule for FailureBurst {
    fn label(&self) -> String {
        format!(
            "burst({} down @{}..{})",
            self.count, self.fail_at, self.wake_at
        )
    }

    fn events(&mut self, round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        if round == self.fail_at {
            // Distinct targets, each keeping a live neighbour; tracked
            // so the wake round releases exactly this set.
            for _ in 0..self.count {
                for _ in 0..32 {
                    match pick_failure_target(graph, &mut self.rng) {
                        Some(u) if !self.slept.contains(&u) => {
                            self.slept.push(u);
                            out.push(TopologyEvent::Sleep { node: u });
                            break;
                        }
                        Some(_) => continue,
                        None => break,
                    }
                }
            }
        } else if round == self.wake_at {
            for &u in &self.slept {
                out.push(TopologyEvent::Wake { node: u });
            }
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.slept.clear();
    }

    // RNG position plus the slept set — a snapshot between fail and
    // wake rounds must release exactly the recorded sleepers.
    fn cursor_into(&self, out: &mut Vec<u64>) {
        out.extend(self.rng.state());
        out.push(self.slept.len() as u64);
        out.extend(self.slept.iter().map(|&u| u as u64));
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        let Some((state, rest)) = cursor.split_at_checked(4) else {
            return false;
        };
        let Some((&len, slept)) = rest.split_first() else {
            return false;
        };
        if slept.len() as u64 != len {
            return false;
        }
        self.rng = StdRng::from_state(<[u64; 4]>::try_from(state).expect("split at 4"));
        self.slept = slept.iter().map(|&u| u as usize).collect();
        true
    }
}

/// Adversarial cut-targeting swaps: every `period` rounds, one swap
/// that removes two edges crossing the fixed bisection
/// `{0..n/2} | {n/2..n}` and replaces them with one edge inside each
/// half — thinning the cut by two while keeping the graph d-regular
/// and connected. This is the churn that *directly* attacks the
/// spectral gap the paper's bounds are stated in: the balancer keeps
/// its local guarantees while the adversary starves the global flow.
///
/// Fully deterministic: candidate cut-edge pairs are scanned in
/// lexicographic order and the first valid, connectivity-preserving
/// pair wins. On 2-regular graphs each candidate is decided by one
/// [`ring_swap_delta`] walk against a ring count taken once per
/// emitting round; otherwise it is probed via
/// [`DynamicConnectivity::would_leave_disconnected`] (amortised
/// near-`O(d)`) against a forest rebuilt once per emitting round. No
/// scratch graph, no per-candidate BFS.
/// When the cut cannot be thinned further without disconnecting the
/// graph, the schedule goes quiet.
#[derive(Debug, Clone)]
pub struct AdversarialCut {
    period: usize,
    /// Re-anchored every emitting round; a forest keeps its
    /// allocations.
    guard: Option<Guard>,
    scans: u64,
    probes: u64,
    validation_ns: u64,
}

impl AdversarialCut {
    /// One cut-thinning swap every `period` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "cut-targeting period must be positive");
        AdversarialCut {
            period,
            guard: None,
            scans: 0,
            probes: 0,
            validation_ns: 0,
        }
    }

    /// Full-graph `O(n·d)` passes performed so far (cut enumeration
    /// plus the ring count or forest rebuild — exactly two per
    /// emitting round). Test hook: regression tests pin that this does **not**
    /// scale with the number of probed candidates.
    #[must_use]
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Candidate pairs probed for connectivity so far.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

impl TopologySchedule for AdversarialCut {
    fn label(&self) -> String {
        format!("cut-target(every {})", self.period)
    }

    fn events(&mut self, round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        if !round.is_multiple_of(self.period) {
            return;
        }
        let half = graph.num_nodes() / 2;
        if half < 2 {
            return;
        }
        let started = Instant::now();
        // Directed cut edges left → right, in (node, port) order.
        self.scans += 1;
        let cut: Vec<(usize, usize)> = (0..half)
            .flat_map(|u| {
                graph
                    .neighbors(u)
                    .iter()
                    .filter(move |&&v| (v as usize) >= half)
                    .map(move |&v| (u, v as usize))
            })
            .collect();
        self.scans += 1;
        let guard = Guard::anchor(&mut self.guard, graph);
        let mut attempts = 0usize;
        for i in 0..cut.len() {
            for j in (i + 1)..cut.len() {
                let (a, b) = cut[i];
                let (c, d) = cut[j];
                if a == c || b == d || graph.has_edge(a, c) || graph.has_edge(b, d) {
                    continue;
                }
                attempts += 1;
                if attempts > 2048 {
                    self.validation_ns +=
                        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    return;
                }
                self.probes += 1;
                if guard.accepts(graph, a, b, c, d) {
                    out.push(TopologyEvent::Swap { a, b, c, d });
                    self.validation_ns +=
                        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    return;
                }
            }
        }
        self.validation_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    fn reset(&mut self) {
        self.scans = 0;
        self.probes = 0;
        self.validation_ns = 0;
    }

    fn validation_nanos(&self) -> u64 {
        self.validation_ns
    }

    // Fully deterministic in the observed graph; only the scan
    // accounting crosses a checkpoint (not the wall-clock validation
    // time). The connectivity guard is re-anchored every emitting round
    // anyway.
    fn cursor_into(&self, out: &mut Vec<u64>) {
        out.extend([self.scans, self.probes]);
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        let [scans, probes] = *cursor else {
            return false;
        };
        if !counters_fit(cursor) {
            return false;
        }
        self.scans = scans;
        self.probes = probes;
        self.guard = None;
        true
    }
}

/// Concatenates the events of several schedules, in order. Children
/// are consulted against the same pre-round graph but their events
/// apply sequentially, so compose schedules whose events cannot
/// invalidate each other (sleep/wake never invalidates a swap and vice
/// versa; two independent swap emitters on the same round can collide
/// and would surface as an engine `Topology` error on that round).
pub struct Compose {
    children: Vec<Box<dyn TopologySchedule>>,
}

impl Compose {
    /// Composes `children` by concatenating their per-round events.
    pub fn new(children: Vec<Box<dyn TopologySchedule>>) -> Self {
        Compose { children }
    }
}

impl TopologySchedule for Compose {
    fn label(&self) -> String {
        let parts: Vec<String> = self.children.iter().map(|c| c.label()).collect();
        format!("compose({})", parts.join(" + "))
    }

    fn events(&mut self, round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        for child in &mut self.children {
            child.events(round, graph, out);
        }
    }

    fn reset(&mut self) {
        for child in &mut self.children {
            child.reset();
        }
    }

    fn swap_shortfall(&self) -> Option<SwapShortfall> {
        let mut total = SwapShortfall::default();
        let mut any = false;
        for child in &self.children {
            if let Some(s) = child.swap_shortfall() {
                total.absorb(&s);
                any = true;
            }
        }
        any.then_some(total)
    }

    fn validation_nanos(&self) -> u64 {
        self.children.iter().map(|c| c.validation_nanos()).sum()
    }

    // Length-prefixed per-child frames, mirroring the workload-side
    // composition: heterogeneous children round-trip unambiguously.
    // Each child appends its frame after a length word that is patched
    // once the frame is written, so nothing is allocated per child.
    fn cursor_into(&self, out: &mut Vec<u64>) {
        for child in &self.children {
            let len_at = out.len();
            out.push(0);
            child.cursor_into(out);
            out[len_at] = (out.len() - len_at - 1) as u64;
        }
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

/// A named schedule configuration — the churn axis of every topology
/// experiment, mirroring `WorkloadSpec`: a spec is `Clone + Eq`,
/// builds a fresh generator per engine path (identical event streams),
/// and labels JSON rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleSpec {
    /// No churn: the paper's fixed-graph regime.
    Static,
    /// [`PeriodicRewiring`].
    Periodic {
        /// Rounds between bursts.
        period: usize,
        /// Swaps per burst.
        swaps: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`FailureRecovery`] (probabilities in percent, so the spec
    /// stays `Eq`).
    Failure {
        /// Failure probability per round, in percent.
        fail_pct: u32,
        /// Recovery probability per round, in percent.
        recover_pct: u32,
        /// Maximum simultaneous failures.
        max_down: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`FailureBurst`].
    Burst {
        /// Round the nodes go down.
        fail_at: usize,
        /// Round they all recover.
        wake_at: usize,
        /// How many go down.
        count: usize,
        /// RNG seed.
        seed: u64,
    },
    /// [`AdversarialCut`].
    CutTargeting {
        /// Rounds between cut-thinning swaps.
        period: usize,
    },
    /// [`Compose`] of [`PeriodicRewiring`] and [`FailureRecovery`]:
    /// edges rewire while nodes crash and repair — full churn.
    Churn {
        /// Rewiring period.
        period: usize,
        /// Swaps per burst.
        swaps: usize,
        /// Failure probability per round, in percent.
        fail_pct: u32,
        /// Maximum simultaneous failures.
        max_down: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl ScheduleSpec {
    /// Checks that the generators can be built from this spec: every
    /// period is positive, every percentage is at most 100, and a burst
    /// satisfies `0 < fail_at < wake_at` — the conditions their
    /// constructors assert. Every spec that arrives from outside the
    /// process (a decoded snapshot, a new serving tenant) passes through
    /// here before [`build`](ScheduleSpec::build).
    ///
    /// # Errors
    ///
    /// The reason the spec is rejected.
    pub fn validate(&self) -> Result<(), String> {
        let (period, pcts) = match *self {
            ScheduleSpec::Static => (None, [0, 0]),
            ScheduleSpec::Periodic { period, .. } | ScheduleSpec::CutTargeting { period } => {
                (Some(period), [0, 0])
            }
            ScheduleSpec::Failure {
                fail_pct,
                recover_pct,
                ..
            } => (None, [fail_pct, recover_pct]),
            ScheduleSpec::Burst {
                fail_at, wake_at, ..
            } => {
                if fail_at == 0 || fail_at >= wake_at {
                    return Err(format!(
                        "burst needs 0 < fail_at < wake_at, got {fail_at} and {wake_at}"
                    ));
                }
                (None, [0, 0])
            }
            ScheduleSpec::Churn {
                period, fail_pct, ..
            } => (Some(period), [fail_pct, 0]),
        };
        if period == Some(0) {
            return Err("schedule period must be positive".into());
        }
        if let Some(pct) = pcts.into_iter().find(|&p| p > 100) {
            return Err(format!("schedule percentage {pct} exceeds 100"));
        }
        Ok(())
    }

    /// Instantiates the schedule. `None` for [`ScheduleSpec::Static`],
    /// so closed-topology rows exercise the engine's genuinely static
    /// entry points rather than an empty dynamic schedule.
    ///
    /// # Panics
    ///
    /// Panics on a spec [`validate`](ScheduleSpec::validate) rejects;
    /// specs from untrusted sources go through it first.
    pub fn build(&self) -> Option<Box<dyn TopologySchedule>> {
        match *self {
            ScheduleSpec::Static => None,
            ScheduleSpec::Periodic {
                period,
                swaps,
                seed,
            } => Some(Box::new(PeriodicRewiring::new(period, swaps, seed))),
            ScheduleSpec::Failure {
                fail_pct,
                recover_pct,
                max_down,
                seed,
            } => Some(Box::new(FailureRecovery::new(
                f64::from(fail_pct) / 100.0,
                f64::from(recover_pct) / 100.0,
                max_down,
                seed,
            ))),
            ScheduleSpec::Burst {
                fail_at,
                wake_at,
                count,
                seed,
            } => Some(Box::new(FailureBurst::new(fail_at, wake_at, count, seed))),
            ScheduleSpec::CutTargeting { period } => Some(Box::new(AdversarialCut::new(period))),
            ScheduleSpec::Churn {
                period,
                swaps,
                fail_pct,
                max_down,
                seed,
            } => Some(Box::new(Compose::new(vec![
                Box::new(PeriodicRewiring::new(period, swaps, seed)),
                Box::new(FailureRecovery::new(
                    f64::from(fail_pct) / 100.0,
                    f64::from(fail_pct) / 100.0,
                    max_down,
                    seed ^ 0x9e37_79b9,
                )),
            ]))),
        }
    }

    /// A short label for tables and JSON rows.
    pub fn label(&self) -> String {
        match *self {
            ScheduleSpec::Static => "static".into(),
            ScheduleSpec::Periodic { period, swaps, .. } => {
                format!("rewire({swaps}x/{period})")
            }
            ScheduleSpec::Failure {
                fail_pct, max_down, ..
            } => format!("failure({fail_pct}%,max {max_down})"),
            ScheduleSpec::Burst {
                fail_at,
                wake_at,
                count,
                ..
            } => format!("burst({count}@{fail_at}..{wake_at})"),
            ScheduleSpec::CutTargeting { period } => format!("cut-target(/{period})"),
            ScheduleSpec::Churn {
                period,
                swaps,
                fail_pct,
                ..
            } => format!("churn({swaps}x/{period},{fail_pct}%)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graph::{generators, traversal};

    fn collect(
        s: &mut dyn TopologySchedule,
        graph: &mut RegularGraph,
        rounds: usize,
    ) -> Vec<Vec<TopologyEvent>> {
        let mut all = Vec::new();
        for round in 1..=rounds {
            let mut out = Vec::new();
            s.events(round, graph, &mut out);
            for ev in &out {
                graph.apply_event(ev).expect("emitted events must apply");
            }
            all.push(out);
        }
        all
    }

    #[test]
    fn periodic_rewiring_fires_on_period_and_replays_after_reset() {
        let mut s = PeriodicRewiring::new(3, 2, 7);
        let mut g = generators::torus(2, 4).unwrap();
        let a = collect(&mut s, &mut g.clone(), 9);
        assert!(a[0].is_empty() && a[1].is_empty());
        assert!(!a[2].is_empty(), "round 3 must emit");
        assert!(a[2].len() <= 2);
        s.reset();
        let b = collect(&mut s, &mut g, 9);
        assert_eq!(a, b, "reset must replay the stream");
    }

    #[test]
    fn periodic_rewiring_keeps_graphs_connected_and_regular() {
        let mut s = PeriodicRewiring::new(1, 3, 11);
        let mut g = generators::random_regular(32, 4, 5).unwrap();
        let _ = collect(&mut s, &mut g, 20);
        assert!(traversal::is_connected(&g));
        // Revalidate the CSR wholesale.
        let flat: Vec<u32> = (0..32).flat_map(|u| g.neighbors(u).to_vec()).collect();
        assert!(RegularGraph::from_adjacency(32, 4, flat).is_ok());
    }

    #[test]
    fn failure_recovery_respects_max_down_and_liveness() {
        let mut s = FailureRecovery::new(0.9, 0.1, 3, 13);
        let mut g = generators::cycle(16).unwrap();
        for round in 1..=200 {
            let mut out = Vec::new();
            s.events(round, &g, &mut out);
            for ev in &out {
                g.apply_event(ev).expect("emitted events must apply");
            }
            assert!(g.asleep_count() <= 3, "max_down exceeded");
            // Every asleep node must have been given a live neighbour
            // at sleep time; with max_down 3 on a 16-cycle at least
            // one node is always awake.
            assert!(g.asleep_count() < g.num_nodes());
        }
        assert!(
            g.asleep_count() > 0,
            "p=0.9 over 200 rounds must fail someone"
        );
    }

    #[test]
    fn failure_burst_sleeps_then_wakes_the_same_set() {
        let mut s = FailureBurst::new(2, 5, 3, 17);
        let mut g = generators::torus(2, 4).unwrap();
        let all = collect(&mut s, &mut g, 6);
        assert!(all[0].is_empty());
        assert_eq!(all[1].len(), 3, "three sleeps at round 2");
        assert!(all[2].is_empty() && all[3].is_empty());
        assert_eq!(all[4].len(), 3, "three wakes at round 5");
        assert_eq!(g.asleep_count(), 0, "everyone is back");
        let slept: Vec<_> = all[1]
            .iter()
            .map(|e| match e {
                TopologyEvent::Sleep { node } => *node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let woken: Vec<_> = all[4]
            .iter()
            .map(|e| match e {
                TopologyEvent::Wake { node } => *node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(slept, woken);
    }

    #[test]
    fn adversarial_cut_thins_the_bisection() {
        let g0 = generators::random_regular(32, 4, 9).unwrap();
        let half = 16;
        let cut_size = |g: &RegularGraph| {
            (0..half)
                .flat_map(|u| g.neighbors(u).iter().filter(|&&v| (v as usize) >= half))
                .count()
        };
        let mut s = AdversarialCut::new(1);
        let mut g = g0.clone();
        let before = cut_size(&g);
        let _ = collect(&mut s, &mut g, 5);
        let after = cut_size(&g);
        assert!(after < before, "cut must shrink: {before} -> {after}");
        assert!(traversal::is_connected(&g), "and stay connected");
    }

    #[test]
    fn shortfall_accounts_for_simplicity_starvation_on_clique_circulant() {
        // Clique-circulants are locally dense: most candidate pairs
        // collide with an existing edge, so the simplicity budget does
        // real work. The counter must account for every requested swap
        // exactly.
        let g = generators::clique_circulant(20, 4).unwrap();
        let mut s = PeriodicRewiring::new(1, 4, 21);
        let mut probe = g.clone();
        let mut emitted = 0u64;
        for round in 1..=8 {
            let mut out = Vec::new();
            s.events(round, &probe, &mut out);
            emitted += out.len() as u64;
            for ev in &out {
                probe.apply_event(ev).expect("emitted events must apply");
            }
        }
        let sf = s.swap_shortfall().expect("rewiring tracks shortfall");
        assert_eq!(sf.requested, 8 * 4);
        assert_eq!(sf.emitted, emitted);
        assert_eq!(sf.deficit(), sf.requested - emitted);
        assert!(
            sf.simplicity_rejects > 0,
            "a dense graph must burn simplicity retries: {sf:?}"
        );
    }

    #[test]
    fn shortfall_pins_full_starvation_on_the_complete_graph() {
        // On a clique every simple-swap candidate hits an existing
        // edge: nothing can ever be emitted, and the regression is
        // that this used to happen *silently*. The counter must report
        // the full deficit.
        let g = generators::complete(8).unwrap();
        let mut s = PeriodicRewiring::new(1, 3, 5);
        let mut out = Vec::new();
        s.events(1, &g, &mut out);
        assert!(out.is_empty(), "no simple swap exists on a clique");
        let sf = s.swap_shortfall().unwrap();
        assert_eq!(sf.requested, 3);
        assert_eq!(sf.emitted, 0);
        assert_eq!(sf.deficit(), 3);
        assert_eq!(sf.simplicity_rejects, 3 * 64, "full budget per swap");
        assert_eq!(sf.connectivity_rejects, 0);
    }

    #[test]
    fn shortfall_separates_connectivity_rejects_on_the_cycle() {
        // On a cycle roughly half of all simple candidates split the
        // graph, so the connectivity budget does real work — and with
        // its own budget the burst still delivers in full.
        let g = generators::cycle(64).unwrap();
        let mut s = PeriodicRewiring::new(1, 6, 3);
        let mut probe = g.clone();
        for round in 1..=6 {
            let mut out = Vec::new();
            s.events(round, &probe, &mut out);
            for ev in &out {
                probe.apply_event(ev).expect("emitted events must apply");
            }
        }
        let sf = s.swap_shortfall().unwrap();
        assert_eq!(sf.requested, 6 * 6);
        assert_eq!(
            sf.deficit(),
            0,
            "default cycle bursts deliver in full: {sf:?}"
        );
        assert!(
            sf.connectivity_rejects > 0,
            "cycle churn must hit connectivity rejects: {sf:?}"
        );
        assert!(traversal::is_connected(&probe));
        // Timing is tracked for the harness's validation_ns column.
        assert!(s.validation_nanos() > 0);
        // Reset restores the post-construction counters.
        s.reset();
        assert_eq!(s.swap_shortfall().unwrap(), SwapShortfall::default());
        assert_eq!(s.validation_nanos(), 0);
    }

    #[test]
    fn adversarial_cut_probe_cost_is_scan_free_per_candidate() {
        // Candidates are probed against one per-round guard, so the
        // number of full-graph O(n·d) passes is exactly two per emitting
        // round (cut enumeration + ring count or forest rebuild) no
        // matter how many candidates the lexicographic search probes.
        // On 2-regular graphs the guard is the ring count: a cycle
        // scrambled by rewiring crosses the bisection many times.
        let mut ring = generators::cycle(64).unwrap();
        let _ = collect(&mut PeriodicRewiring::new(1, 2, 7), &mut ring, 64);
        for g0 in [generators::random_regular(64, 4, 9).unwrap(), ring] {
            let mut s = AdversarialCut::new(1);
            let mut g = g0.clone();
            let rounds = 6u64;
            let _ = collect(&mut s, &mut g, rounds as usize);
            assert_eq!(
                s.scans(),
                2 * rounds,
                "full-graph passes must scale with rounds, not candidates"
            );
            assert!(
                s.probes() >= rounds,
                "every emitting round probes at least one candidate"
            );
            assert!(s.validation_nanos() > 0);
            s.reset();
            assert_eq!((s.scans(), s.probes(), s.validation_nanos()), (0, 0, 0));
        }
    }

    #[test]
    fn compose_aggregates_shortfall_and_validation_time() {
        let mut s = Compose::new(vec![
            Box::new(PeriodicRewiring::new(1, 2, 7)),
            Box::new(FailureRecovery::new(0.5, 0.5, 2, 8)),
        ]);
        let mut g = generators::cycle(32).unwrap();
        let _ = collect(&mut s, &mut g, 4);
        let sf = s
            .swap_shortfall()
            .expect("periodic child surfaces shortfall");
        assert_eq!(sf.requested, 4 * 2);
        assert!(s.validation_nanos() > 0);
    }

    /// A fresh same-spec instance restored from a mid-stream cursor
    /// must continue the original's event stream exactly against the
    /// same graph evolution — the checkpoint contract.
    #[test]
    fn cursors_resume_the_event_stream_mid_run() {
        let check = |mut original: Box<dyn TopologySchedule>,
                     mut fresh: Box<dyn TopologySchedule>| {
            let label = original.label();
            let mut g = generators::torus(2, 4).unwrap();
            let _ = collect(original.as_mut(), &mut g, 7);
            // The in-place form appends the same words after whatever
            // the buffer already holds.
            let mut buffer = vec![u64::MAX];
            original.cursor_into(&mut buffer);
            assert_eq!(buffer[1..], original.cursor(), "{label}: cursor_into");
            assert!(
                fresh.restore_cursor(&buffer[1..]),
                "{label}: cursor shape must match the spec-built instance"
            );
            // Continue both from the same mid-run graph and rounds.
            let mut g2 = g.clone();
            let mut continued = Vec::new();
            let mut restored = Vec::new();
            for round in 8..=14 {
                let mut out = Vec::new();
                original.events(round, &g, &mut out);
                for ev in &out {
                    g.apply_event(ev).expect("emitted events must apply");
                }
                continued.push(out);
                let mut out = Vec::new();
                fresh.events(round, &g2, &mut out);
                for ev in &out {
                    g2.apply_event(ev).expect("emitted events must apply");
                }
                restored.push(out);
            }
            assert_eq!(
                restored, continued,
                "{label}: stream diverged after restore"
            );
            assert_eq!(
                fresh.swap_shortfall(),
                original.swap_shortfall(),
                "{label}: shortfall accounting must cross the checkpoint"
            );
        };
        check(
            Box::new(PeriodicRewiring::new(2, 2, 7)),
            Box::new(PeriodicRewiring::new(2, 2, 7)),
        );
        check(
            Box::new(FailureRecovery::new(0.6, 0.4, 2, 13)),
            Box::new(FailureRecovery::new(0.6, 0.4, 2, 13)),
        );
        // Burst snapshotted between fail (round 5) and wake (round 12):
        // the slept set must cross the checkpoint so the wake round
        // releases exactly the recorded sleepers.
        check(
            Box::new(FailureBurst::new(5, 12, 3, 17)),
            Box::new(FailureBurst::new(5, 12, 3, 17)),
        );
        check(
            Box::new(AdversarialCut::new(3)),
            Box::new(AdversarialCut::new(3)),
        );
        check(
            Box::new(Compose::new(vec![
                Box::new(PeriodicRewiring::new(3, 1, 9)),
                Box::new(FailureRecovery::new(0.5, 0.5, 2, 4)),
            ])),
            Box::new(Compose::new(vec![
                Box::new(PeriodicRewiring::new(3, 1, 9)),
                Box::new(FailureRecovery::new(0.5, 0.5, 2, 4)),
            ])),
        );
    }

    #[test]
    fn cursor_restores_reject_mismatched_shapes() {
        let mut s = PeriodicRewiring::new(2, 2, 7);
        assert!(!s.restore_cursor(&[1, 2, 3]), "wrong length");
        let mut s = FailureBurst::new(2, 5, 3, 1);
        assert!(!s.restore_cursor(&[1, 2, 3]), "too short for the header");
        assert!(!s.restore_cursor(&[1, 2, 3, 4, 9, 0]), "slept length lies");
        let mut s = Compose::new(vec![Box::new(AdversarialCut::new(1))]);
        assert!(!s.restore_cursor(&[7, 0, 0]), "frame longer than cursor");
        assert!(!s.restore_cursor(&[2, 0, 0, 5]), "trailing words rejected");
        assert!(s.restore_cursor(&[2, 0, 0]));
        // StaticTopology is stateless: only the empty cursor fits.
        let mut st = crate::StaticTopology;
        assert!(st.cursor().is_empty());
        assert!(st.restore_cursor(&[]));
        assert!(!st.restore_cursor(&[1]));
    }

    /// Accounting counters restored at `u64::MAX` used to overflow on
    /// the next emitting round; a cursor no run could produce is now
    /// rejected like a misshapen one.
    #[test]
    fn cursor_restores_reject_counters_past_i64_max() {
        let mut s = PeriodicRewiring::new(1, 1, 7);
        let mut words = s.cursor();
        assert!(s.restore_cursor(&words));
        words[4] = u64::MAX;
        assert!(!s.restore_cursor(&words), "requested swaps");
        let mut words = s.cursor();
        words[7] = 1 << 63;
        assert!(!s.restore_cursor(&words), "connectivity rejects");
        let mut s = AdversarialCut::new(1);
        assert!(s.restore_cursor(&[i64::MAX as u64, 0]));
        assert!(!s.restore_cursor(&[u64::MAX, 0]));
    }

    /// The wall-clock validation time is a counter on the schedule, not
    /// state: no cursor carries it, so two runs of the same spec
    /// checkpoint to the same words, and a restore leaves it alone.
    #[test]
    fn cursors_carry_no_timing() {
        let run = || {
            let mut s = ScheduleSpec::Churn {
                period: 1,
                swaps: 2,
                fail_pct: 30,
                max_down: 2,
                seed: 5,
            }
            .build()
            .expect("a dynamic schedule");
            let mut g = generators::cycle(12).unwrap();
            let _ = collect(s.as_mut(), &mut g, 6);
            s
        };
        let (a, b) = (run(), run());
        assert!(a.validation_nanos() > 0);
        assert_eq!(a.cursor(), b.cursor());
        let mut c = AdversarialCut::new(1);
        let mut g = generators::random_regular(32, 4, 9).unwrap();
        let _ = collect(&mut c, &mut g, 3);
        let spent = c.validation_nanos();
        assert!(spent > 0);
        assert!(c.restore_cursor(&AdversarialCut::new(1).cursor()));
        assert_eq!(c.validation_nanos(), spent, "restore keeps the counter");
    }

    /// Every spec `validate` accepts builds, and the ones it rejects
    /// are exactly those the constructors would panic on.
    #[test]
    fn validate_rejects_what_the_constructors_assert() {
        let ok = [
            ScheduleSpec::Static,
            ScheduleSpec::Periodic {
                period: 1,
                swaps: 0,
                seed: 1,
            },
            ScheduleSpec::Failure {
                fail_pct: 100,
                recover_pct: 0,
                max_down: 0,
                seed: 1,
            },
            ScheduleSpec::Burst {
                fail_at: 1,
                wake_at: 2,
                count: 0,
                seed: 1,
            },
            ScheduleSpec::CutTargeting { period: 1 },
        ];
        for spec in ok {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
            let _ = spec.build();
        }
        let bad = [
            ScheduleSpec::Periodic {
                period: 0,
                swaps: 1,
                seed: 1,
            },
            ScheduleSpec::Failure {
                fail_pct: 0,
                recover_pct: 101,
                max_down: 1,
                seed: 1,
            },
            ScheduleSpec::Burst {
                fail_at: 3,
                wake_at: 2,
                count: 1,
                seed: 1,
            },
            ScheduleSpec::Churn {
                period: 0,
                swaps: 1,
                fail_pct: 5,
                max_down: 1,
                seed: 1,
            },
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "{spec:?}");
            assert!(
                std::panic::catch_unwind(|| spec.build()).is_err(),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn compose_concatenates_and_specs_build() {
        let specs = [
            ScheduleSpec::Static,
            ScheduleSpec::Periodic {
                period: 2,
                swaps: 1,
                seed: 1,
            },
            ScheduleSpec::Failure {
                fail_pct: 50,
                recover_pct: 50,
                max_down: 2,
                seed: 2,
            },
            ScheduleSpec::Burst {
                fail_at: 1,
                wake_at: 3,
                count: 2,
                seed: 3,
            },
            ScheduleSpec::CutTargeting { period: 4 },
            ScheduleSpec::Churn {
                period: 2,
                swaps: 1,
                fail_pct: 25,
                max_down: 2,
                seed: 4,
            },
        ];
        assert!(specs[0].build().is_none(), "static builds no schedule");
        for spec in &specs[1..] {
            let mut s = spec.build().expect("dynamic specs build");
            assert!(!spec.label().is_empty());
            assert!(!s.label().is_empty());
            let mut g = generators::torus(2, 4).unwrap();
            let _ = collect(s.as_mut(), &mut g, 6);
            s.reset();
        }
    }
}
