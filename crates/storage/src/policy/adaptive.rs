//! Adaptive replacement: an expert-mixture policy (EEvA-style, after
//! arXiv:2405.00154).
//!
//! The paper's central observation is that no single replacement policy
//! wins across IR workloads: RAP wins on feedback-refinement streams,
//! LRU wins on recency-dominated ones, MRU on repeated scans.
//! [`ExpertMixturePolicy`] recovers the per-workload winner online,
//! without being told which workload is running. It runs a panel of
//! existing experts against the live reference stream. Every expert
//! keeps a *real* instance (tracking the pool's actual resident set, so
//! leadership can change without replay) and a *shadow* simulation
//! (what the pool would hold if that expert ran it alone, scored by
//! would-have-hit counts). The current leader — the expert with the
//! best decayed shadow score — chooses victims.
//!
//! It is driven entirely through the ordinary [`ReplacementPolicy`]
//! events: a pool's `on_hit` + `on_insert` calls *are* the full
//! reference stream (hit → `on_hit`, miss → `on_insert`), so shadow
//! simulation needs no extra plumbing, and the decision stream is a
//! pure function of the reference stream — which keeps the chaos
//! matrix's determinism and fault-transparency contracts intact
//! (recovered faults never reach the policy).

use super::{PolicyKind, ReplacementPolicy};
use crate::page::Page;
use ir_observe::{Counter, Gauge, Registry};
use ir_types::{PageId, TermId};
use std::collections::{HashMap, HashSet};

/// Default expert panel for [`ExpertMixturePolicy`]: the paper's three
/// policies plus the §6 extensions, LRU first so the cold-start leader
/// is the conventional default.
pub const DEFAULT_PANEL: [PolicyKind; 6] = [
    PolicyKind::Lru,
    PolicyKind::Mru,
    PolicyKind::Rap,
    PolicyKind::TwoQ,
    PolicyKind::Lru2,
    PolicyKind::Clock,
];

/// Shadow simulation of one expert running the whole pool alone: its
/// own policy instance plus the resident set it *would* have, bounded
/// by the real pool's capacity. A reference that lands in the shadow
/// resident set is a would-have-hit and scores the expert.
#[derive(Debug)]
struct Shadow {
    kind: PolicyKind,
    policy: Box<dyn ReplacementPolicy>,
    resident: HashSet<PageId>,
    capacity: usize,
    /// Decayed long-run score (halved every decay window).
    score: u64,
    /// Cumulative would-have-hits, exported as
    /// `adaptive.shadow_hits.<NAME>` once attached to a registry.
    hits_counter: Counter,
}

impl Shadow {
    fn new(kind: PolicyKind, capacity: usize) -> Shadow {
        Shadow {
            kind,
            policy: kind.build(capacity),
            resident: HashSet::new(),
            capacity: capacity.max(1),
            score: 0,
            hits_counter: Counter::new(),
        }
    }

    /// Feeds one page reference through the shadow pool. Returns `true`
    /// on a would-have-hit.
    fn reference(&mut self, page: &Page, value_hint: Option<f64>) -> bool {
        let id = page.id();
        if self.resident.contains(&id) {
            self.policy.on_hit(page);
            self.score += 1;
            self.hits_counter.inc();
            true
        } else {
            if self.resident.len() >= self.capacity {
                if let Some(victim) = self.policy.choose_victim(&|_| false) {
                    self.resident.remove(&victim);
                }
            }
            let _ = self.policy.on_insert_hinted(page, value_hint);
            self.resident.insert(id);
            false
        }
    }

    fn begin_query(&mut self, weights: &HashMap<TermId, f64>) {
        if self.policy.uses_query_context() {
            self.policy.begin_query(weights);
        }
    }

    fn clear(&mut self) {
        self.policy.clear();
        self.resident.clear();
        self.score = 0;
    }
}

/// How many events between score decays (and leader elections happen
/// per event, so this only bounds how long stale history lingers):
/// a few multiples of the pool size, floored so tiny pools still get a
/// meaningful window.
fn decay_window(capacity: usize) -> u64 {
    (capacity as u64 * 4).max(64)
}

/// An expert-mixture replacement policy: a panel of experts all tracking
/// the real resident set, shadow-scored by would-have-hit counts, with
/// the current leader choosing victims.
#[derive(Debug)]
pub struct ExpertMixturePolicy {
    /// Real instances — every expert sees the true insert/hit/remove
    /// stream, so any of them can take over victim selection instantly.
    experts: Vec<(PolicyKind, Box<dyn ReplacementPolicy>)>,
    shadows: Vec<Shadow>,
    leader: usize,
    events: u64,
    decay_every: u64,
    uses_context: bool,
    switches: Counter,
    leader_gauge: Gauge,
}

impl ExpertMixturePolicy {
    /// A mixture over [`DEFAULT_PANEL`] for a pool of `capacity` pages.
    pub fn new(capacity: usize) -> ExpertMixturePolicy {
        ExpertMixturePolicy::with_panel(&DEFAULT_PANEL, capacity)
    }

    /// A mixture over an explicit expert panel. Panics on an empty
    /// panel. Panel order is the deterministic tie-break: the first
    /// expert is the cold-start leader, and a challenger must *strictly*
    /// out-score the incumbent to take over.
    pub fn with_panel(panel: &[PolicyKind], capacity: usize) -> ExpertMixturePolicy {
        assert!(!panel.is_empty(), "expert panel must not be empty");
        let experts: Vec<_> = panel.iter().map(|&k| (k, k.build(capacity))).collect();
        let uses_context = experts.iter().any(|(_, p)| p.uses_query_context());
        ExpertMixturePolicy {
            shadows: panel.iter().map(|&k| Shadow::new(k, capacity)).collect(),
            experts,
            leader: 0,
            events: 0,
            decay_every: decay_window(capacity),
            uses_context,
            switches: Counter::new(),
            leader_gauge: Gauge::new(),
        }
    }

    /// The currently leading expert.
    pub fn leader(&self) -> PolicyKind {
        self.experts[self.leader].0
    }

    /// Leader changes so far (also exported as `adaptive.switches`).
    pub fn switches(&self) -> u64 {
        self.switches.get()
    }

    /// Advances the event clock: decay scores at window boundaries,
    /// then re-elect. The incumbent keeps the lead on ties, so election
    /// is deterministic and flap-free.
    fn tick(&mut self) {
        self.events += 1;
        if self.events.is_multiple_of(self.decay_every) {
            for s in &mut self.shadows {
                s.score >>= 1;
            }
        }
        let mut best = self.leader;
        for (i, s) in self.shadows.iter().enumerate() {
            if s.score > self.shadows[best].score {
                best = i;
            }
        }
        if best != self.leader {
            self.leader = best;
            self.switches.inc();
            self.leader_gauge.set(best as i64);
        }
    }

    fn feed(&mut self, page: &Page, value_hint: Option<f64>) {
        for s in &mut self.shadows {
            s.reference(page, value_hint);
        }
        self.tick();
    }
}

impl ReplacementPolicy for ExpertMixturePolicy {
    fn name(&self) -> &'static str {
        "ADAPTIVE"
    }

    fn on_insert(&mut self, page: &Page) {
        let _ = self.on_insert_hinted(page, None);
    }

    fn on_hit(&mut self, page: &Page) {
        for (_, p) in &mut self.experts {
            p.on_hit(page);
        }
        self.feed(page, None);
    }

    fn choose_victim(&mut self, exclude: &dyn Fn(PageId) -> bool) -> Option<PageId> {
        let leader = self.leader;
        let victim = self.experts[leader].1.choose_victim(exclude)?;
        for (i, (_, p)) in self.experts.iter_mut().enumerate() {
            if i != leader {
                p.remove(victim);
            }
        }
        Some(victim)
    }

    fn remove(&mut self, id: PageId) {
        for (_, p) in &mut self.experts {
            p.remove(id);
        }
    }

    fn clear(&mut self) {
        for (_, p) in &mut self.experts {
            p.clear();
        }
        for s in &mut self.shadows {
            s.clear();
        }
        self.events = 0;
        self.leader = 0;
        self.leader_gauge.set(0);
    }

    fn begin_query(&mut self, weights: &HashMap<TermId, f64>) {
        for (_, p) in &mut self.experts {
            if p.uses_query_context() {
                p.begin_query(weights);
            }
        }
        for s in &mut self.shadows {
            s.begin_query(weights);
        }
    }

    fn uses_query_context(&self) -> bool {
        self.uses_context
    }

    fn on_insert_hinted(&mut self, page: &Page, value_hint: Option<f64>) -> Option<f64> {
        let mut assigned = None;
        let leader = self.leader;
        for (i, (_, p)) in self.experts.iter_mut().enumerate() {
            let v = p.on_insert_hinted(page, value_hint);
            if i == leader {
                assigned = v;
            }
        }
        self.feed(page, value_hint);
        assigned
    }

    fn attach_metrics(&mut self, registry: &Registry) {
        self.switches = registry.counter("adaptive.switches");
        self.leader_gauge = registry.gauge("adaptive.leader");
        self.leader_gauge.set(self.leader as i64);
        for s in &mut self.shadows {
            s.hits_counter = registry.counter(&format!("adaptive.shadow_hits.{}", s.kind));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::page;
    use super::*;

    /// Victim streams of a single-expert mixture and the bare expert
    /// must be identical under an arbitrary interleaving of inserts,
    /// hits and evictions.
    #[test]
    fn single_expert_mixture_matches_the_expert() {
        for kind in [PolicyKind::Lru, PolicyKind::Mru, PolicyKind::Rap] {
            let mut mix = ExpertMixturePolicy::with_panel(&[kind], 8);
            let mut solo = kind.build(8);
            let pages: Vec<Page> = (0..24).map(|i| page(i / 6, i % 6, i + 1, 1.0)).collect();
            let mut state = 0x9E3779B97F4A7C15u64;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            for step in 0..400 {
                let pg = &pages[next() % pages.len()];
                match next() % 3 {
                    0 => {
                        assert_eq!(
                            mix.on_insert_hinted(pg, Some(0.5)),
                            solo.on_insert_hinted(pg, Some(0.5)),
                            "step {step}: assigned values diverge"
                        );
                    }
                    1 => {
                        mix.on_hit(pg);
                        solo.on_hit(pg);
                    }
                    _ => {
                        assert_eq!(
                            mix.choose_victim(&|_| false),
                            solo.choose_victim(&|_| false),
                            "step {step}: victims diverge"
                        );
                    }
                }
            }
            assert_eq!(mix.switches(), 0, "one expert can never lose the lead");
        }
    }

    /// A looping scan one page wider than the pool starves LRU (every
    /// reference misses) while MRU retains most of the loop; the
    /// mixture's leadership must move off LRU.
    #[test]
    fn leader_moves_off_lru_on_a_sequential_flood() {
        let capacity = 8;
        let mut mix =
            ExpertMixturePolicy::with_panel(&[PolicyKind::Lru, PolicyKind::Mru], capacity);
        let loop_pages: Vec<Page> = (0..capacity as u32 + 1)
            .map(|p| page(0, p, 1, 1.0))
            .collect();
        let mut resident: Vec<PageId> = Vec::new();
        for _ in 0..200 {
            for pg in &loop_pages {
                if resident.contains(&pg.id()) {
                    mix.on_hit(pg);
                } else {
                    if resident.len() >= capacity {
                        let v = mix.choose_victim(&|_| false).expect("pool is full");
                        resident.retain(|&id| id != v);
                    }
                    mix.on_insert(pg);
                    resident.push(pg.id());
                }
            }
        }
        assert_eq!(mix.leader(), PolicyKind::Mru);
        assert!(mix.switches() >= 1);
    }

    /// Shadow pools respect the real capacity: the ghost resident set
    /// never grows past the pool size.
    #[test]
    fn shadow_resident_set_is_bounded() {
        let mut s = Shadow::new(PolicyKind::Lru, 4);
        for i in 0..64u32 {
            s.reference(&page(0, i, 1, 1.0), None);
            assert!(s.resident.len() <= 4);
        }
        assert_eq!(s.score, 0, "distinct pages never re-hit");
        let hit = s.reference(&page(0, 63, 1, 1.0), None);
        assert!(hit, "most recent page is shadow-resident under LRU");
    }

    /// Metric attachment rewires counters without disturbing state, and
    /// leader changes show up in `adaptive.switches`.
    #[test]
    fn switches_are_visible_through_an_attached_registry() {
        let registry = Registry::new();
        let capacity = 4;
        let mut mix =
            ExpertMixturePolicy::with_panel(&[PolicyKind::Lru, PolicyKind::Mru], capacity);
        mix.attach_metrics(&registry);
        let loop_pages: Vec<Page> = (0..capacity as u32 + 1)
            .map(|p| page(0, p, 1, 1.0))
            .collect();
        let mut resident: Vec<PageId> = Vec::new();
        for _ in 0..300 {
            for pg in &loop_pages {
                if resident.contains(&pg.id()) {
                    mix.on_hit(pg);
                } else {
                    if resident.len() >= capacity {
                        let v = mix.choose_victim(&|_| false).expect("pool is full");
                        resident.retain(|&id| id != v);
                    }
                    mix.on_insert(pg);
                    resident.push(pg.id());
                }
            }
        }
        let snap = registry.snapshot();
        assert!(snap.counter("adaptive.switches").unwrap() >= 1);
        assert!(snap.counter("adaptive.shadow_hits.MRU").unwrap() > 0);
        assert_eq!(snap.gauge("adaptive.leader"), Some(1));
    }
}
