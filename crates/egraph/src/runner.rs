//! The saturation driver.
//!
//! Implements the match-and-insert loop of Figure 8 with two application
//! strategies from §3.1:
//!
//! * **depth-first** — apply *every* match of every rule each iteration
//!   (the strategy that blows up on AC rules and times out on GLM/SVM in
//!   the paper's Figure 16), and
//! * **sampling** — cap the number of matches applied per rule per
//!   iteration, sampling uniformly, which "encourages each rule to be
//!   considered equally often and prevents any single rule from exploding
//!   the graph".

use crate::analysis::Analysis;
use crate::egraph::EGraph;
use crate::hash::FxHashSet;
use crate::language::{Id, Language, RecExpr};
use crate::pattern::{MatchRows, Subst};
use crate::relational::MatchingMode;
use crate::rewrite::Rewrite;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Match application strategy (§3.1 "Dealing with Expansive Rules").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Apply all matches of all rules every iteration.
    DepthFirst,
    /// Apply at most `match_limit` sampled matches per rule per iteration.
    Sampling { match_limit: usize, seed: u64 },
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::Sampling {
            match_limit: 40,
            seed: 0xC0FFEE,
        }
    }
}

/// Per-rule backoff (ROADMAP "Per-rule scheduling").
///
/// AC rules keep re-finding the same matches long after they stop
/// producing unions; searching them every iteration is pure overhead. The
/// runner watches each rule's [`RuleIterStats`]: once a rule has matched
/// without contributing a union for `fruitless_threshold` consecutive
/// iterations, it is muted — search is skipped entirely — for
/// `mute_iters` iterations, then re-admitted. With `exponential` set
/// (the default), a rule that resumes its fruitless streak after being
/// re-admitted is muted for twice as long each time, capped at
/// `max_mute_iters`, so persistently useless rules converge to paying
/// one probe per cap window instead of one per fixed-K window.
///
/// Muting never changes the fixpoint: a zero-union iteration only counts
/// as saturation when no rule is muted; otherwise every rule is unmuted
/// and the iteration retried, so [`StopReason::Saturated`] keeps its
/// meaning (the e-graph is closed under *all* rules).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Consecutive match-without-union iterations before muting.
    pub fruitless_threshold: usize,
    /// How many iterations a muted rule sits out (the base length).
    pub mute_iters: usize,
    /// Double the mute length on every repeated fruitless streak.
    pub exponential: bool,
    /// Cap on the (exponentially grown) mute length.
    pub max_mute_iters: usize,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            fruitless_threshold: 3,
            mute_iters: 4,
            exponential: true,
            max_mute_iters: 64,
        }
    }
}

impl BackoffConfig {
    /// Fixed-K muting (the PR-2 scheduler): every mute lasts `mute_iters`.
    pub fn fixed(fruitless_threshold: usize, mute_iters: usize) -> BackoffConfig {
        BackoffConfig {
            fruitless_threshold,
            mute_iters,
            exponential: false,
            max_mute_iters: mute_iters,
        }
    }

    /// Mute length for the `streak`-th consecutive fruitless streak.
    fn mute_len(&self, streak: u32) -> usize {
        if !self.exponential {
            return self.mute_iters;
        }
        let doubled = self.mute_iters.saturating_mul(1usize << streak.min(16));
        doubled.min(self.max_mute_iters.max(self.mute_iters))
    }
}

/// Per-region (per-root) convergence freezing for multi-root runs
/// (workload mode's "freeze saturated statement regions").
///
/// Each root of a multi-root run spans a *region*: the classes its root
/// can realize ([`EGraph::reachability_masks`]). A region whose reachable
/// set has produced no dirty classes for `quiet_iters` consecutive
/// iterations is **frozen**: classes reachable only from frozen roots
/// are dropped from every rule's candidate set (delta and full sweeps
/// alike). With `per_region_budget`, `Scheduler::Sampling`'s
/// `match_limit` is enforced *per region* (matches bucketed by the
/// lowest-numbered region of their root class — a freeze-independent
/// fairness partition, see `sample_per_region`) instead of one pooled
/// cap — so every live statement progresses at the per-statement
/// pipeline's application rate, no single hot statement can consume a
/// multiplied budget, and a frozen region's *exclusive* classes lose
/// their budget along with their candidates.
///
/// Classes shared with an active region stay active (regions overlap
/// exactly where cross-statement CSE lives). Freezing is deliberately
/// *lossy* in the same way per-statement stalls are: a frozen region
/// never thaws, late dirt that parent-closes into its exclusive classes
/// is discarded, and the run stops on
/// [`StopReason::RegionsConverged`] once every region has individually
/// stalled — exactly the work a per-statement pipeline would also have
/// left undone (the tier-1 `workload_cse` suite bounds the resulting
/// plan cost against the per-statement sum). Only with
/// [`Runner::with_exact_saturation`] does a zero-union iteration
/// instead unfreeze everything and run verification sweeps until a
/// genuine all-rules fixpoint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RegionConfig {
    /// Consecutive iterations a region's reachable set must stay free of
    /// dirty classes before the region is frozen.
    pub quiet_iters: usize,
    /// Enforce the sampling cap per region instead of globally. (With
    /// more than 64 roots, region tracking is unavailable and this
    /// falls back to one pooled cap of `match_limit × regions`.)
    pub per_region_budget: bool,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            quiet_iters: 2,
            per_region_budget: true,
        }
    }
}

/// Parallel search configuration: phase 1 of the two-phase iteration
/// (read-only search fan-out; apply/rebuild stay exclusive).
///
/// `threads == 1` runs search inline on the caller's thread — no task
/// materialization, no pool, byte-for-byte the historical serial path.
/// Results are **bit-identical at any thread count**: every rule's
/// candidate list is enumerated serially in ascending id order, shards
/// partition that list, per-shard match buffers are merged back into
/// ascending-class order, and the sampling RNG stays keyed by (seed,
/// iteration, rule name) — never by shard or thread (see
/// [`search_rules_parallel`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for the search phase (clamped to ≥ 1).
    pub threads: usize,
    /// Rules with at most this many candidates run as a single task, so
    /// tiny searches never pay fan-out overhead; larger candidate lists
    /// are split into shards of at least this size.
    pub min_shard_size: usize,
}

impl Default for ParallelConfig {
    /// Thread count from the `SPORES_THREADS` environment variable if
    /// set (the CI determinism matrix runs the whole suite at 1 and 8),
    /// else the host's available parallelism. Embedders that already
    /// run saturations on a worker pool clamp this further so the two
    /// pools never oversubscribe (see `spores-service`).
    fn default() -> Self {
        let threads = std::env::var("SPORES_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        ParallelConfig {
            threads: threads.max(1),
            min_shard_size: 64,
        }
    }
}

impl ParallelConfig {
    /// Single-threaded search, ignoring the environment.
    pub fn serial() -> Self {
        ParallelConfig {
            threads: 1,
            min_shard_size: 64,
        }
    }
}

/// Shared reachability map: class -> bitmask of roots that reach it.
type RegionMasks = std::rc::Rc<crate::hash::FxHashMap<Id, u64>>;

/// Bitmask with a bit set for every unfrozen region.
fn active_region_mask(frozen: &[bool]) -> u64 {
    frozen
        .iter()
        .enumerate()
        .fold(0u64, |m, (r, &f)| if f { m } else { m | (1u64 << r) })
}

/// Mutable backoff bookkeeping for one rule.
#[derive(Clone, Debug, Default)]
struct BackoffState {
    /// Consecutive iterations with matches but no unions.
    fruitless: usize,
    /// Muted while the iteration index is below this.
    muted_until: usize,
    /// Completed fruitless streaks since the rule last produced a union
    /// (drives the exponential mute-length growth).
    streak: u32,
}

/// Why the runner stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// No rule changed the graph: the e-graph represents the full
    /// transitive closure of the rules applied to the input.
    Saturated,
    /// Multi-root runs with [`RegionConfig`] only: every statement
    /// region individually reached its sampled fixpoint and froze —
    /// the workload analogue of each per-statement pipeline stopping on
    /// its own stall. (With [`Runner::with_exact_saturation`] the run
    /// instead proceeds to a full verification sweep and can only stop
    /// as [`StopReason::Saturated`] or on a limit.)
    RegionsConverged,
    IterationLimit(usize),
    NodeLimit(usize),
    TimeLimit(Duration),
}

/// Per-rule statistics for one saturation iteration.
#[derive(Clone, Debug, Default)]
pub struct RuleIterStats {
    pub rule: String,
    /// Classes the op-head index proposed for this rule's lhs (the
    /// classes actually visited by the compiled matcher).
    pub candidates: usize,
    /// Match rows (one per distinct (root class, binding)) found.
    pub matches: usize,
    /// Instances applied after scheduling (sampling may drop some).
    pub applied: usize,
    /// Unions this rule's applications produced directly (congruence
    /// unions surfaced later by `rebuild` are not attributed).
    pub unions: usize,
    /// True when backoff muted this rule for this iteration (its search
    /// was skipped entirely).
    pub muted: bool,
    /// True when this rule searched in delta mode (candidates restricted
    /// to classes dirty since the previous iteration). `candidates`
    /// counts the classes actually visited either way, so delta and
    /// full-sweep numbers aggregate comparably.
    pub delta: bool,
}

/// Statistics for one saturation iteration.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    pub matches_found: usize,
    pub matches_applied: usize,
    pub unions: usize,
    pub egraph_nodes: usize,
    pub egraph_classes: usize,
    pub search_time: Duration,
    pub apply_time: Duration,
    pub rebuild_time: Duration,
    /// Per-rule candidate/match/apply counts, in rule order.
    pub rules: Vec<RuleIterStats>,
    /// Per-root frozen flags for this iteration (empty unless region
    /// tracking is enabled via [`Runner::with_regions`]).
    pub frozen_regions: Vec<bool>,
}

/// Equality-saturation runner with limits and statistics.
pub struct Runner<L: Language, A: Analysis<L>> {
    pub egraph: EGraph<L, A>,
    pub roots: Vec<Id>,
    pub iterations: Vec<Iteration>,
    pub stop_reason: Option<StopReason>,
    scheduler: Scheduler,
    backoff: Option<BackoffConfig>,
    /// Static explosiveness priors: initial fruitless-streak seed per
    /// rule name (see [`Runner::with_rule_priors`]).
    rule_priors: Option<crate::hash::FxHashMap<String, u32>>,
    /// Delta (dirty-class) search between full sweeps (on by default).
    delta: bool,
    /// Exact verification sweeps (off by default; see
    /// [`Runner::with_exact_saturation`]).
    exact: bool,
    regions: Option<RegionConfig>,
    parallel: ParallelConfig,
    /// Which e-matching backend the search phase runs (structural
    /// machine or relational generic join). Never changes results —
    /// only how much work a sweep does.
    matching: MatchingMode,
    iter_limit: usize,
    node_limit: usize,
    time_limit: Duration,
}

impl<L: Language, A: Analysis<L> + Default> Default for Runner<L, A> {
    fn default() -> Self {
        Runner::new(A::default())
    }
}

impl<L: Language, A: Analysis<L>> Runner<L, A> {
    pub fn new(analysis: A) -> Self {
        Runner {
            egraph: EGraph::new(analysis),
            roots: Vec::new(),
            iterations: Vec::new(),
            stop_reason: None,
            scheduler: Scheduler::default(),
            backoff: Some(BackoffConfig::default()),
            rule_priors: None,
            delta: true,
            exact: false,
            regions: None,
            parallel: ParallelConfig::default(),
            matching: MatchingMode::default(),
            iter_limit: 30,
            node_limit: 50_000,
            time_limit: Duration::from_secs(10),
        }
    }

    pub fn with_egraph(mut self, egraph: EGraph<L, A>) -> Self {
        self.egraph = egraph;
        self
    }

    /// Add a root expression to optimize.
    pub fn with_expr(mut self, expr: &RecExpr<L>) -> Self {
        let id = self.egraph.add_expr(expr);
        self.roots.push(id);
        self
    }

    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Set the per-rule backoff policy (on by default).
    pub fn with_backoff(mut self, backoff: BackoffConfig) -> Self {
        self.backoff = Some(backoff);
        self
    }

    /// Disable per-rule backoff: search every rule every iteration.
    pub fn without_backoff(mut self) -> Self {
        self.backoff = None;
        self
    }

    /// Seed each named rule's backoff with an initial fruitless-streak
    /// count (typically the static explosiveness priors computed by
    /// `spores-ruleaudit`). A rule with prior `k` gets its first mute
    /// lengthened as if it had already sat out `k` fruitless streaks, so
    /// statically explosive rules (AC permutations, self-feeding
    /// expanders) are paced down sooner. Pacing only: muting delays
    /// *when* a rule is searched, never whether its matches are
    /// eventually applied, so the saturation fixpoint is unchanged.
    /// Rules absent from the map start at the usual zero. No-op when
    /// backoff is disabled.
    pub fn with_rule_priors(mut self, priors: crate::hash::FxHashMap<String, u32>) -> Self {
        self.rule_priors = Some(priors);
        self
    }

    /// Disable delta (dirty-class) search: every unmuted rule does a
    /// full sweep every iteration (the pre-incremental behaviour, kept
    /// for differential tests and benches).
    pub fn without_delta_search(mut self) -> Self {
        self.delta = false;
        self
    }

    /// Make verification sweeps *exact*: instead of a sampled
    /// application pass, each rule applies its entire match pool
    /// (capped at `match_limit` scaled *unions* — fruitless
    /// applications insert no nodes, so draining them is free and
    /// bounded), and saturation is only declared when a sweep drains
    /// every pool without a single union. This upgrades
    /// [`StopReason::Saturated`] from the sampled-fixpoint criterion of
    /// §3.1 (a full sweep whose *sampled* applications produced no
    /// union — the default, matching the paper's runs) to a guarantee
    /// that the e-graph is genuinely closed under every rule. Costs
    /// more iterations on AC-heavy inputs; used where closure equality
    /// matters more than compile time.
    pub fn with_exact_saturation(mut self) -> Self {
        self.exact = true;
        self
    }

    /// Enable per-region convergence freezing over this runner's roots
    /// (workload mode). No-op for single-root runs; region tracking
    /// needs ≤ 64 roots (beyond that only the match-limit scaling
    /// applies, with every region considered active).
    pub fn with_regions(mut self, regions: RegionConfig) -> Self {
        self.regions = Some(regions);
        self
    }

    /// Set the parallel-search configuration (defaults to
    /// [`ParallelConfig::default`]: `SPORES_THREADS` or the host's
    /// available parallelism). Thread count never changes results.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Pick the e-matching backend for the search phase (structural by
    /// default). Matches, stats, and plans are bit-identical either
    /// way; relational mode trades per-sweep join-plan construction for
    /// guard-pruned class scans.
    pub fn with_matching(mut self, matching: MatchingMode) -> Self {
        self.matching = matching;
        self
    }

    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.iter_limit = limit;
        self
    }

    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Did the run stop because the rules were exhausted?
    pub fn saturated(&self) -> bool {
        matches!(self.stop_reason, Some(StopReason::Saturated))
    }

    /// Run saturation to convergence or until a limit trips.
    ///
    /// Search is *incremental* by default: each iteration takes the
    /// e-graph's dirty-class set (everything touched since the previous
    /// iteration, closed over parents) and each rule only re-searches
    /// those classes ([`Rewrite::search_delta_with_stats`]). A rule
    /// full-sweeps only on its first search and on verification sweeps;
    /// while muted it *banks* the dirty snapshots it sleeps through and
    /// delta-searches the accumulated set on re-admission, so no delta
    /// is ever missed. [`StopReason::Saturated`] is still only declared
    /// on a full-sweep fixpoint with every rule active and every region
    /// unfrozen (region-tracked non-exact runs instead stop on
    /// [`StopReason::RegionsConverged`] once every statement region has
    /// individually stalled).
    ///
    /// Each iteration is two-phase: phase 1 searches all unmuted rules
    /// against the immutable e-graph — fanned across a scoped thread
    /// pool per [`ParallelConfig`] — and phase 2 drains the merged
    /// match buffers through the exclusive apply path and a single
    /// rebuild. The `Sync` bounds let phase 1 share `&EGraph` across
    /// threads; they are vacuous for any analysis built from plain
    /// data.
    pub fn run(mut self, rules: &[Rewrite<L, A>]) -> Self
    where
        L: Sync,
        A: Sync,
        A::Data: Sync,
    {
        let start = Instant::now();
        if !self.egraph.is_clean() {
            self.egraph.rebuild();
        }
        let mut backoff_state: Vec<BackoffState> = rules
            .iter()
            .map(|r| BackoffState {
                streak: self
                    .rule_priors
                    .as_ref()
                    .and_then(|p| p.get(&r.name).copied())
                    .unwrap_or(0),
                ..BackoffState::default()
            })
            .collect();
        // Every rule's first search is a full sweep — this is the
        // "dirty set seeded with all classes" base case, and it also
        // covers e-graphs passed in via `with_egraph` whose dirty set
        // was already taken by an earlier run.
        let mut pending_full = vec![true; rules.len()];
        // Dirty classes a muted rule missed while sitting out: on
        // re-admission it delta-searches this accumulated set (plus the
        // current snapshot) instead of a full sweep, so muting never
        // resurrects already-tried fruitless matches from quiescent
        // classes. (Merged-away ids in here are harmless: every union
        // marks its surviving root in a later snapshot, which is also
        // accumulated.)
        let mut missed: Vec<FxHashSet<Id>> = vec![FxHashSet::default(); rules.len()];

        // Region tracking (only meaningful with several roots; the
        // bitmask reachability map supports at most 64 of them).
        let n_regions = self.roots.len();
        let region_cfg = self.regions.filter(|_| n_regions > 1);
        let track_regions = region_cfg.is_some() && n_regions <= 64;
        let mut frozen = vec![false; n_regions];
        let mut quiet = vec![0usize; n_regions];
        // True for the iteration right after a pseudo-fixpoint: freeze
        // decisions are suspended so the verification sweep really
        // covers the whole graph (the previous iteration had zero
        // unions, so every region would otherwise look quiet).
        let mut verify_sweep = false;
        // Reachability masks cache: the DFS over the whole graph is
        // only re-run when the graph actually changed (union count or
        // node count moved) — converging tails reuse the previous
        // iteration's masks. Rc-shared so cache hits cost nothing.
        let mut masks_cache: Option<(usize, usize, RegionMasks)> = None;

        loop {
            if self.iterations.len() >= self.iter_limit {
                self.stop_reason = Some(StopReason::IterationLimit(self.iter_limit));
                break;
            }
            if self.egraph.total_number_of_nodes() > self.node_limit {
                self.stop_reason = Some(StopReason::NodeLimit(self.node_limit));
                break;
            }
            if start.elapsed() > self.time_limit {
                self.stop_reason = Some(StopReason::TimeLimit(self.time_limit));
                break;
            }

            let mut iter = Iteration::default();
            let iter_ix = self.iterations.len();

            // --- dirty snapshot + region bookkeeping -----------------
            // Changes applied from here on accumulate into a fresh dirty
            // set for the next iteration.
            let mut dirty = self.egraph.take_dirty();
            let mut frozen_classes: FxHashSet<Id> = FxHashSet::default();
            let mut active_regions = n_regions.max(1);
            let this_verify = std::mem::take(&mut verify_sweep);
            // class -> region bitmask, for freezing and the per-region
            // sampling budget (None when region tracking is off).
            let mut region_masks: Option<RegionMasks> = None;
            if let Some(cfg) = &region_cfg {
                if track_regions {
                    let fingerprint = (self.egraph.n_unions(), self.egraph.total_number_of_nodes());
                    let masks = match masks_cache.take() {
                        Some((u, n, m)) if (u, n) == fingerprint => m,
                        _ => std::rc::Rc::new(self.egraph.reachability_masks(&self.roots)),
                    };
                    if !this_verify {
                        // Charge each dirty class to its lowest *active*
                        // region, so churn in a shared class keeps one
                        // region awake, not every region that can reach
                        // it. Regions freeze top-down; the last active
                        // owner of a shared core holds its convergence.
                        // (The budget bucketing in `sample_per_region`
                        // deliberately uses a different partition — see
                        // its docs.)
                        let active_mask_prev = active_region_mask(&frozen);
                        let mut region_dirty = vec![false; n_regions];
                        for id in &dirty {
                            let mask = masks.get(id).copied().unwrap_or(0) & active_mask_prev;
                            if mask != 0 {
                                region_dirty[mask.trailing_zeros() as usize] = true;
                            }
                        }
                        for (r, (frozen_r, quiet_r)) in
                            frozen.iter_mut().zip(quiet.iter_mut()).enumerate()
                        {
                            if *frozen_r {
                                continue;
                            }
                            if region_dirty[r] {
                                *quiet_r = 0;
                            } else {
                                *quiet_r += 1;
                                if *quiet_r >= cfg.quiet_iters {
                                    *frozen_r = true;
                                }
                            }
                        }
                        if frozen.iter().any(|&f| f) {
                            let active_mask = active_region_mask(&frozen);
                            // Freeze classes reachable from frozen roots
                            // only; shared classes (and classes reachable
                            // from no root) stay active.
                            for (&id, &mask) in masks.iter() {
                                if mask != 0 && mask & active_mask == 0 {
                                    frozen_classes.insert(id);
                                }
                            }
                            dirty.retain(|id| !frozen_classes.contains(id));
                        }
                        active_regions = frozen.iter().filter(|&&f| !f).count().max(1);
                    }
                    masks_cache = Some((fingerprint.0, fingerprint.1, std::rc::Rc::clone(&masks)));
                    region_masks = Some(masks);
                }
                iter.frozen_regions = frozen.clone();
            }
            // Every region individually reached its sampled fixpoint:
            // the workload is done (the per-statement pipelines would
            // each have stopped on exactly this per-region stall). Exact
            // mode instead falls through — the searches below find
            // nothing (every reachable class is frozen), and the
            // resulting pseudo-fixpoint triggers an unfreeze-everything
            // verification sweep.
            if track_regions && !self.exact && frozen.iter().all(|&f| f) {
                self.stop_reason = Some(StopReason::RegionsConverged);
                break;
            }
            // Pooled-cap scale for the fallbacks that cannot budget per
            // region: the exact-verification union quota, and >64-root
            // runs without reachability masks.
            let pooled_scale = if region_cfg.is_some() {
                active_regions
            } else {
                1
            };
            let per_region = region_cfg.as_ref().is_some_and(|c| c.per_region_budget);

            // --- search phase (phase 1: read-only) -------------------
            // Candidate enumeration stays serial (it is cheap and needs
            // the Rc'd region masks, which must not cross threads); the
            // compiled-machine runs over the lists fan out.
            //
            // The iteration span opens here, after the early-stop checks
            // above, so every `saturation.iter` span contains exactly one
            // search/apply/rebuild triple (the trace checker and the ML
            // integration test rely on those counts being equal).
            let mut iter_span = spores_telemetry::span!("saturation.iter", iter = iter_ix);
            let search_span = spores_telemetry::span!("saturation.search");
            let t = Instant::now();
            // One sorted dirty snapshot shared by every delta rule (the
            // per-rule search used to re-sort the set each time).
            let mut dirty_sorted: Vec<Id> = dirty.iter().copied().collect();
            dirty_sorted.sort_unstable();
            // Per-rule candidate plan: `None` = muted (search skipped),
            // `Some` = the exact id list a serial search would visit.
            let mut plan: Vec<Option<Vec<Id>>> = Vec::with_capacity(rules.len());
            let mut full_flags = vec![false; rules.len()];
            for (i, rule) in rules.iter().enumerate() {
                if self.backoff.is_some() && iter_ix < backoff_state[i].muted_until {
                    // muted: skip the search entirely, but bank this
                    // iteration's dirty snapshot so re-admission can
                    // delta-search everything the mute skipped.
                    missed[i].extend(dirty.iter().copied());
                    plan.push(None);
                    continue;
                }
                let full = pending_full[i] || !self.delta;
                full_flags[i] = full;
                let ids = if full {
                    pending_full[i] = false;
                    missed[i].clear();
                    rule.except_candidate_ids(&self.egraph, &frozen_classes)
                } else if missed[i].is_empty() {
                    rule.delta_candidate_ids(&self.egraph, &dirty_sorted)
                } else {
                    let banked = std::mem::take(&mut missed[i]);
                    let mut banked_sorted: Vec<Id> = banked
                        .into_iter()
                        .filter(|id| !frozen_classes.contains(id))
                        .chain(dirty.iter().copied())
                        .collect();
                    banked_sorted.sort_unstable();
                    banked_sorted.dedup();
                    rule.delta_candidate_ids(&self.egraph, &banked_sorted)
                };
                plan.push(Some(ids));
            }
            let searched = search_rules_parallel(
                &self.egraph,
                rules,
                &plan,
                region_masks.as_deref(),
                self.parallel,
                self.matching,
            );
            // Each rule's matches stay flat rows; a `Subst` is only
            // built for the rows the scheduler actually applies.
            let mut per_rule: Vec<Option<MatchRows>> = Vec::with_capacity(rules.len());
            for ((rule, result), full) in rules.iter().zip(searched).zip(full_flags) {
                let Some((rows, candidates)) = result else {
                    iter.rules.push(RuleIterStats {
                        rule: rule.name.clone(),
                        muted: true,
                        ..RuleIterStats::default()
                    });
                    per_rule.push(None);
                    continue;
                };
                iter.matches_found += rows.len();
                iter.rules.push(RuleIterStats {
                    rule: rule.name.clone(),
                    candidates,
                    matches: rows.len(),
                    delta: !full,
                    ..RuleIterStats::default()
                });
                per_rule.push(Some(rows));
            }
            iter.search_time = t.elapsed();
            drop(search_span);

            // --- scheduling + apply phase ----------------------------
            let apply_span = spores_telemetry::span!("saturation.apply");
            let t = Instant::now();
            let mut subst = Subst::default();
            for (i, (rule, rows)) in rules.iter().zip(per_rule).enumerate() {
                let Some(rows) = rows else { continue };
                let mut union_quota = usize::MAX;
                // Row indices to apply, in application order: every row
                // unless the scheduler samples.
                let n_rows = u32::try_from(rows.len()).expect("fewer than 2^32 matches per rule");
                let mut order: Vec<u32> = (0..n_rows).collect();
                if let Scheduler::Sampling { match_limit, seed } = self.scheduler {
                    if this_verify && self.exact {
                        // Exact verification sweep: apply the *whole*
                        // pool — fruitless applications insert no
                        // nodes, so draining them is free and a
                        // zero-union sweep certifies a genuine
                        // all-rules fixpoint — but cap the *productive*
                        // applications at the sampling limit so a
                        // falsified pseudo-fixpoint grows the graph no
                        // faster than a normal sampled iteration (no
                        // §3.1 depth-first explosion).
                        union_quota = match_limit.saturating_mul(pooled_scale).max(1);
                    } else {
                        // Each rule samples from its own RNG stream
                        // derived from the seed, the iteration, and the
                        // rule *name*, so which matches a rule applies
                        // is stable under rule reordering. With a
                        // per-region budget, the cap applies to each
                        // live statement region separately, so every
                        // statement progresses at the per-statement
                        // pipeline's application rate and no hot
                        // region can consume a pooled multiple.
                        let mut rng = rule_rng(seed, iter_ix as u64, &rule.name);
                        match (&region_masks, per_region) {
                            (Some(masks), true) => {
                                order = sample_per_region(
                                    &rows,
                                    masks,
                                    n_regions,
                                    match_limit,
                                    &mut rng,
                                );
                            }
                            _ => {
                                let limit = match_limit.saturating_mul(pooled_scale);
                                sample_in_place(&mut order, limit, &mut rng);
                            }
                        }
                    }
                }
                let sampled_out = order.len() < rows.len();
                let mut rule_unions = 0;
                let mut applied = 0;
                for &r in &order {
                    let r = r as usize;
                    subst.refill(rule.searcher.row_vars(), rows.row(r));
                    rule_unions += rule.apply_match(&mut self.egraph, rows.class(r), &subst);
                    applied += 1;
                    if rule_unions >= union_quota {
                        break;
                    }
                }
                iter.matches_applied += applied;
                // Unapplied rows re-mark their root classes (each class
                // once) so a later delta sweep re-finds them:
                // * quota-deferred rows (exact verification sweeps,
                //   which never sample) always — the rest of the pool is
                //   handed to the following delta iterations;
                // * sampled-out rows only for a *productive* rule — they
                //   are pending, not gone (full re-search used to give
                //   every match a fresh chance each iteration). A rule
                //   whose whole sample applied without one union signals
                //   a stale pool: its drops decay instead of re-marking,
                //   so a converging run's dirt dies out rather than
                //   self-sustaining (the information lost is exactly what
                //   the pre-incremental sampled stall also lost).
                let deferred = applied < order.len();
                if deferred || (sampled_out && rule_unions > 0) {
                    mark_unapplied(&mut self.egraph, &rows, &order[..applied]);
                }
                iter.rules[i].applied = applied;
                iter.rules[i].unions = rule_unions;
                iter.unions += rule_unions;
            }
            iter.apply_time = t.elapsed();
            drop(apply_span);

            // --- rebuild phase ---------------------------------------
            let rebuild_span = spores_telemetry::span!("saturation.rebuild");
            let t = Instant::now();
            iter.unions += self.egraph.rebuild();
            iter.rebuild_time = t.elapsed();
            drop(rebuild_span);

            // --- backoff bookkeeping ---------------------------------
            let mut any_muted = false;
            if let Some(cfg) = self.backoff {
                for (i, state) in backoff_state.iter_mut().enumerate() {
                    let stats = &iter.rules[i];
                    if stats.muted {
                        any_muted = true;
                        continue;
                    }
                    // `applied > 0` guards the verification-sweep early
                    // exit: a rule whose pool was deferred untried must
                    // not be counted fruitless.
                    if stats.matches > 0 && stats.applied > 0 && stats.unions == 0 {
                        state.fruitless += 1;
                        if state.fruitless >= cfg.fruitless_threshold {
                            state.muted_until = iter_ix + 1 + cfg.mute_len(state.streak);
                            state.streak = state.streak.saturating_add(1);
                            state.fruitless = 0;
                        }
                    } else {
                        state.fruitless = 0;
                        if stats.unions > 0 {
                            // productive again: restart the exponential ladder
                            state.streak = 0;
                        }
                    }
                }
            }

            iter.egraph_nodes = self.egraph.total_number_of_nodes();
            iter.egraph_classes = self.egraph.number_of_classes();
            let saturated = iter.unions == 0;
            // In exact mode only a verification sweep (whole pools
            // applied) may declare saturation — a sampled zero-union
            // sweep is just a pseudo-fixpoint to verify.
            let partial_view = any_muted
                || frozen.iter().any(|&f| f)
                || iter.rules.iter().any(|r| r.delta)
                || (self.exact && !this_verify);
            iter_span.arg("unions", iter.unions);
            iter_span.arg("nodes", iter.egraph_nodes);
            drop(iter_span);
            if spores_telemetry::enabled() {
                // Per-rule counters mirror `RuleIterStats` into the
                // metrics registry, labeled by rule name, so the text
                // exposition can attribute candidate/match volume without
                // walking `Runner::iterations`.
                let registry = spores_telemetry::global().registry();
                for r in &iter.rules {
                    let labels = [("rule", r.rule.as_str())];
                    registry
                        .counter_labeled("saturation.rule.candidates", &labels)
                        .add(r.candidates as u64);
                    registry
                        .counter_labeled("saturation.rule.matches", &labels)
                        .add(r.matches as u64);
                    registry
                        .counter_labeled("saturation.rule.applied", &labels)
                        .add(r.applied as u64);
                    registry
                        .counter_labeled("saturation.rule.unions", &labels)
                        .add(r.unions as u64);
                }
            }
            self.iterations.push(iter);

            if saturated {
                if partial_view {
                    if track_regions && !self.exact {
                        // Workload mode converges *per region*: the
                        // freeze accounting decides when each statement
                        // is done ([`StopReason::RegionsConverged`]), so
                        // a zero-union iteration just lets the quiet
                        // counters tick — a global verification sweep
                        // here would unfreeze everything and refill
                        // every drained match pool right as the
                        // workload finishes.
                        continue;
                    }
                    // A fixpoint of a *partial* view only (muted rules,
                    // frozen regions, or delta-restricted candidates —
                    // delta can also have dropped sampled-out matches):
                    // re-admit every rule, unfreeze every region, force
                    // full sweeps, and try again before declaring
                    // saturation. Each rule keeps its fruitless-streak
                    // ladder: re-admission is for the fixpoint check,
                    // not evidence the rule became productive, so a
                    // still-fruitless rule goes back to its grown mute
                    // length instead of restarting from the base.
                    for state in &mut backoff_state {
                        state.muted_until = 0;
                        state.fruitless = 0;
                    }
                    pending_full.fill(true);
                    frozen.fill(false);
                    quiet.fill(0);
                    verify_sweep = true;
                    continue;
                }
                self.stop_reason = Some(StopReason::Saturated);
                break;
            }
        }
        // Report canonical roots.
        for root in &mut self.roots {
            *root = self.egraph.find(*root);
        }
        self
    }
}

/// Phase 1 of the two-phase iteration: run every (rule ×
/// candidate-shard) search task against the immutable `&EGraph` and
/// merge the per-shard row buffers back into serial order.
///
/// `plan[i]` is rule `i`'s candidate id list in ascending order (`None`
/// = muted, skipped). Returns, per rule, exactly what
/// [`Rewrite::search_rows`] over the unsharded list returns, at any
/// thread count and under any shard structure:
///
/// * each shard is an ascending sub-list of the candidates and each
///   class's rows stay inside one shard, so merging the shard buffers
///   by root class ([`MatchRows::merge_by_class`]) restores the serial
///   row order — also when region grouping makes shards interleave
///   instead of covering contiguous id ranges (per-class row order is
///   computed within a shard and already canonical);
/// * visited counts sum over a partition, so per-rule candidate totals
///   are exact, not approximate;
/// * nothing downstream is keyed by shard or thread — the sampling RNG
///   stays a function of (seed, iteration, rule name).
///
/// With `threads == 1` no tasks are materialized and every rule runs
/// inline — the serial fast path single-core hosts take.
pub fn search_rules_parallel<L, A>(
    egraph: &EGraph<L, A>,
    rules: &[Rewrite<L, A>],
    plan: &[Option<Vec<Id>>],
    masks: Option<&crate::hash::FxHashMap<Id, u64>>,
    cfg: ParallelConfig,
    matching: MatchingMode,
) -> Vec<Option<(MatchRows, usize)>>
where
    L: Language + Sync,
    A: Analysis<L> + Sync,
    A::Data: Sync,
{
    assert_eq!(rules.len(), plan.len());
    // One traced search task: a whole rule (serial) or one shard.
    let search_task = |rule: &Rewrite<L, A>, ids: &[Id]| {
        let mut span = spores_telemetry::span!(
            "saturation.search.shard",
            rule = rule.name.as_str(),
            candidates = ids.len(),
        );
        let result = rule.search_rows(egraph, ids, matching);
        span.arg("matches", result.0.len());
        result
    };
    let threads = cfg.threads.max(1);
    if threads == 1 {
        return rules
            .iter()
            .zip(plan)
            .map(|(rule, ids)| ids.as_ref().map(|ids| search_task(rule, ids)))
            .collect();
    }
    // Materialize the (rule, shard) task list on this thread — the
    // shard assignment consults the region masks, which live behind an
    // `Rc` and must not be captured by the pool's closures.
    let mut tasks: Vec<(usize, Vec<Id>)> = Vec::new();
    let mut shards_of: Vec<std::ops::Range<usize>> = Vec::with_capacity(plan.len());
    for (i, ids) in plan.iter().enumerate() {
        let start = tasks.len();
        if let Some(ids) = ids {
            for shard in shard_candidates(ids, masks, threads, cfg.min_shard_size) {
                tasks.push((i, shard));
            }
        }
        shards_of.push(start..tasks.len());
    }
    let results = spores_pool::scoped_map(threads, tasks.len(), |t| {
        let (rule_ix, ids) = &tasks[t];
        search_task(&rules[*rule_ix], ids)
    });
    let mut results = results.into_iter();
    let mut out = Vec::with_capacity(plan.len());
    for ((rule, ids), range) in rules.iter().zip(plan).zip(shards_of) {
        if ids.is_none() {
            out.push(None);
            continue;
        }
        let mut parts: Vec<MatchRows> = Vec::with_capacity(range.len());
        let mut visited = 0usize;
        for _ in range {
            let (rows, v) = results.next().expect("one result per task");
            parts.push(rows);
            visited += v;
        }
        let width = rule.searcher.row_vars().len();
        out.push(Some((MatchRows::merge_by_class(width, parts), visited)));
    }
    out
}

/// Split one rule's candidate list into search shards.
///
/// In workload mode candidates are grouped by *anchor region* first —
/// the lowest-numbered root that reaches the class, the same partition
/// [`sample_per_region`] buckets matches by — so a shard's classes
/// mostly belong to one statement region and traverse that statement's
/// slice of the graph. Single-root runs (no masks) just chunk the
/// ascending candidate list. Either way shards partition the input,
/// each shard lists its ids in ascending order, and the caller merges
/// shard rows by class, so shard structure never leaks into results;
/// the grouping only exists for locality.
fn shard_candidates(
    ids: &[Id],
    masks: Option<&crate::hash::FxHashMap<Id, u64>>,
    threads: usize,
    min_shard_size: usize,
) -> Vec<Vec<Id>> {
    if ids.is_empty() {
        return Vec::new();
    }
    let min_shard = min_shard_size.max(1);
    if ids.len() <= min_shard {
        return vec![ids.to_vec()];
    }
    let mut ordered = ids.to_vec();
    if let Some(masks) = masks {
        // Stable sort: ascending id order is preserved within each
        // region bucket (mask 0 / absent sorts last as bucket 64).
        ordered.sort_by_key(|id| masks.get(id).copied().unwrap_or(0).trailing_zeros());
    }
    // About two tasks per thread so work stealing can balance uneven
    // shard costs, but never shards smaller than the configured floor.
    // A chunk can straddle two region buckets, so each shard is sorted
    // back to ascending ids: the by-class merge needs every shard's
    // rows in ascending class order.
    let target = min_shard.max(ordered.len().div_ceil(threads * 2));
    ordered
        .chunks(target)
        .map(|c| {
            let mut shard = c.to_vec();
            shard.sort_unstable();
            shard
        })
        .collect()
}

/// Deterministic RNG stream for one rule in one iteration: a hash of the
/// scheduler seed, the iteration number, and the rule name. Independent
/// of the rule's position in the rule list.
fn rule_rng(seed: u64, iteration: u64, name: &str) -> StdRng {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write(name.as_bytes());
    h.write_u64(seed);
    h.write_u64(iteration);
    StdRng::seed_from_u64(h.finish())
}

/// Per-region sampling: bucket rows by the lowest-numbered region of
/// their root class (classes reachable from no root share one extra
/// bucket), keep a uniform sample of `limit` per bucket, and return the
/// kept row indices in application order (bucket by bucket). Rows of a
/// class are contiguous, so each class's mask is looked up once.
///
/// The bucketing is a *fairness partition*, deliberately independent of
/// freeze state: a shared class keeps its anchor bucket even when that
/// anchor region freezes, so the shared core's application budget stays
/// stable as exclusive fringes converge (re-anchoring shared matches to
/// the lowest *active* region was tried and measurably starves the
/// remaining hot statements' own buckets on ALS). A frozen region still
/// loses the budget of its *exclusive* classes — they are excluded from
/// every candidate set, so no rows land in any bucket for them.
/// The freeze accounting in `run` charges dirt to the lowest *active*
/// region instead, because convergence must never be attributed to a
/// region that is no longer searched.
fn sample_per_region(
    rows: &MatchRows,
    masks: &crate::hash::FxHashMap<Id, u64>,
    n_regions: usize,
    limit: usize,
    rng: &mut StdRng,
) -> Vec<u32> {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_regions + 1];
    for (class, range) in rows.runs() {
        let mask = masks.get(&class).copied().unwrap_or(0);
        let b = if mask == 0 {
            n_regions
        } else {
            mask.trailing_zeros() as usize
        };
        buckets[b].extend(range.start as u32..range.end as u32);
    }
    let mut kept = Vec::new();
    for mut bucket in buckets {
        sample_in_place(&mut bucket, limit, rng);
        kept.extend(bucket);
    }
    kept
}

/// Keep a uniform sample of `limit` elements of `v` (partial
/// Fisher-Yates), in draw order. Draws nothing when `v` already fits.
fn sample_in_place<T>(v: &mut Vec<T>, limit: usize, rng: &mut StdRng) {
    if v.len() <= limit {
        return;
    }
    for i in 0..limit {
        let j = rng.random_range(i..v.len());
        v.swap(i, j);
    }
    v.truncate(limit);
}

/// Mark dirty, once each, the root classes of every row not in
/// `applied` (row indices, any order). Compares per-class row counts
/// with per-class applied counts, so the cost is one pass over the
/// class runs plus a sort of the (small) applied set — never a hash
/// insert per unapplied row.
fn mark_unapplied<L: Language, A: Analysis<L>>(
    egraph: &mut EGraph<L, A>,
    rows: &MatchRows,
    applied: &[u32],
) {
    let mut applied = applied.to_vec();
    applied.sort_unstable();
    let mut k = 0;
    for (class, range) in rows.runs() {
        let first = k;
        while k < applied.len() && (applied[k] as usize) < range.end {
            k += 1;
        }
        if k - first < range.len() {
            egraph.mark_dirty(class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::parse_rec_expr;
    use crate::language::test_lang::Arith;

    fn rules() -> Vec<Rewrite<Arith, ()>> {
        vec![
            Rewrite::new("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::new("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::new("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
            Rewrite::new("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
            Rewrite::new("factor", "(+ (* ?a ?b) (* ?a ?c))", "(* ?a (+ ?b ?c))").unwrap(),
        ]
    }

    #[test]
    fn rule_priors_never_change_the_fixpoint() {
        let expr = parse_rec_expr("(* (+ x y) (+ y z))").unwrap();
        let plain = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        let mut priors = crate::hash::FxHashMap::default();
        priors.insert("comm-add".to_owned(), 3);
        priors.insert("distribute".to_owned(), 2);
        let primed = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_rule_priors(priors)
            .run(&rules());
        assert!(plain.saturated() && primed.saturated());
        assert_eq!(
            plain.egraph.number_of_classes(),
            primed.egraph.number_of_classes()
        );
        assert_eq!(
            plain.egraph.total_number_of_nodes(),
            primed.egraph.total_number_of_nodes()
        );
    }

    #[test]
    fn saturates_small_input() {
        let expr = parse_rec_expr("(+ x y)").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        assert!(runner.saturated(), "{:?}", runner.stop_reason);
        let flipped = parse_rec_expr::<Arith>("(+ y x)").unwrap();
        assert_eq!(runner.egraph.lookup_expr(&flipped), Some(runner.roots[0]));
    }

    #[test]
    fn proves_distributivity_composition() {
        // (x + y) * z == x*z + y*z requires comm + distribute
        let lhs = parse_rec_expr("(* (+ x y) z)").unwrap();
        let rhs = parse_rec_expr::<Arith>("(+ (* x z) (* y z))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&lhs)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        assert_eq!(
            runner
                .egraph
                .lookup_expr(&rhs)
                .map(|id| runner.egraph.find(id)),
            Some(runner.roots[0])
        );
    }

    #[test]
    fn iteration_limit_respected() {
        let expr = parse_rec_expr("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_iter_limit(2)
            .run(&rules());
        assert!(runner.iterations.len() <= 2);
    }

    #[test]
    fn node_limit_stops_explosion() {
        let expr =
            parse_rec_expr("(* (* (* (* (* (* a b) c) d) e) f) (* (* g h) (* i j)))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_node_limit(200)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        assert!(matches!(
            runner.stop_reason,
            Some(StopReason::NodeLimit(_)) | Some(StopReason::Saturated)
        ));
    }

    #[test]
    fn sampling_still_converges_on_small_input() {
        // §4.3: "sampling always preserves convergence in practice"
        let expr = parse_rec_expr("(* (+ x y) z)").unwrap();
        let rhs = parse_rec_expr::<Arith>("(+ (* x z) (* y z))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::Sampling {
                match_limit: 4,
                seed: 7,
            })
            .with_iter_limit(100)
            .run(&rules());
        assert!(runner.saturated());
        assert_eq!(
            runner
                .egraph
                .lookup_expr(&rhs)
                .map(|id| runner.egraph.find(id)),
            Some(runner.roots[0])
        );
    }

    #[test]
    fn stats_are_recorded() {
        let expr = parse_rec_expr("(* (+ x y) z)").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .run(&rules());
        assert!(!runner.iterations.is_empty());
        let last = runner.iterations.last().unwrap();
        assert!(last.egraph_nodes > 0);
        assert_eq!(last.unions, 0, "last iteration must be a fixpoint");
    }

    #[test]
    fn per_rule_stats_are_recorded() {
        let expr = parse_rec_expr("(* (+ x y) z)").unwrap();
        let rules = rules();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules);
        let first = &runner.iterations[0];
        assert_eq!(first.rules.len(), rules.len());
        for (stat, rule) in first.rules.iter().zip(&rules) {
            assert_eq!(stat.rule, rule.name);
            if stat.matches > 0 {
                assert!(stat.candidates > 0, "matches require candidates");
            }
            assert_eq!(
                stat.applied, stat.matches,
                "depth-first applies every match"
            );
        }
        // (* (+ x y) z): one class matches comm-mul, one comm-add
        assert_eq!(first.rules[0].matches, 1, "comm-add");
        assert_eq!(first.rules[1].matches, 1, "comm-mul");
        let total: usize = first.rules.iter().map(|r| r.matches).sum();
        assert_eq!(total, first.matches_found);
    }

    /// The default rules plus an identity rewrite: it matches every `+`
    /// class each iteration and never produces a union — exactly the
    /// fruitless-but-matching shape backoff exists to mute.
    fn rules_with_identity() -> Vec<Rewrite<Arith, ()>> {
        let mut rs = rules();
        rs.push(Rewrite::new("identity-add", "(+ ?a ?b)", "(+ ?a ?b)").unwrap());
        rs
    }

    #[test]
    fn backoff_mutes_fruitless_rules_and_saturation_is_preserved() {
        let expr = parse_rec_expr("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))").unwrap();
        let cfg = BackoffConfig {
            fruitless_threshold: 2,
            mute_iters: 3,
            ..BackoffConfig::default()
        };
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_backoff(cfg)
            .with_iter_limit(50)
            .run(&rules_with_identity());
        assert!(runner.saturated(), "{:?}", runner.stop_reason);
        let muted_iters: usize = runner
            .iterations
            .iter()
            .flat_map(|it| &it.rules)
            .filter(|r| r.muted)
            .count();
        assert!(muted_iters > 0, "backoff never muted any rule");
        // the final iteration must be a full-rule fixpoint: nothing muted
        let last = runner.iterations.last().unwrap();
        assert!(last.rules.iter().all(|r| !r.muted));
        assert_eq!(last.unions, 0);
        // and the e-graph is the same closure the no-backoff run reaches
        let plain = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .without_backoff()
            .with_iter_limit(50)
            .run(&rules_with_identity());
        assert!(plain.saturated());
        assert_eq!(
            runner.egraph.total_number_of_nodes(),
            plain.egraph.total_number_of_nodes()
        );
        assert_eq!(
            runner.egraph.number_of_classes(),
            plain.egraph.number_of_classes()
        );
    }

    #[test]
    fn muted_rules_skip_search_work() {
        let expr = parse_rec_expr("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .with_backoff(BackoffConfig {
                fruitless_threshold: 1,
                mute_iters: 2,
                ..BackoffConfig::default()
            })
            .with_iter_limit(50)
            .run(&rules_with_identity());
        for it in &runner.iterations {
            for r in &it.rules {
                if r.muted {
                    assert_eq!(r.candidates, 0, "muted rule searched candidates");
                    assert_eq!(r.matches, 0);
                    assert_eq!(r.applied, 0);
                }
            }
        }
    }

    /// Total candidate classes the matcher visited for one rule.
    fn rule_candidates(runner: &Runner<Arith, ()>, name: &str) -> usize {
        runner
            .iterations
            .iter()
            .flat_map(|it| &it.rules)
            .filter(|r| r.rule == name)
            .map(|r| r.candidates)
            .sum()
    }

    #[test]
    fn exponential_backoff_wastes_fewer_candidates_than_fixed_k() {
        // AC-heavy input: the comm/assoc closure of a 6-leaf sum takes
        // many sampled iterations to saturate, during which the identity
        // rule keeps matching every `+` class without ever producing a
        // union — the pure-waste shape backoff exists for.
        // Exact saturation (match_limit 8): both runs must converge to
        // the *same* final e-graph — the genuine closure — so the
        // equal-closure control below is deterministic rather than a
        // trajectory coincidence. At limit 2 the closure needs
        // thousands of sampled applications, beyond the budget.
        let expr = parse_rec_expr("(+ (+ a b) (+ (+ c d) (+ e f)))").unwrap();
        let run = |cfg: BackoffConfig| -> Runner<Arith, ()> {
            Runner::<Arith, ()>::default()
                .with_expr(&expr)
                .with_scheduler(Scheduler::Sampling {
                    match_limit: 8,
                    seed: 5,
                })
                .with_backoff(cfg)
                .with_exact_saturation()
                .with_iter_limit(600)
                .with_node_limit(100_000)
                .run(&rules_with_identity())
        };
        let fixed = run(BackoffConfig::fixed(1, 2));
        let expo = run(BackoffConfig {
            fruitless_threshold: 1,
            mute_iters: 2,
            exponential: true,
            max_mute_iters: 64,
        });
        assert!(fixed.saturated(), "{:?}", fixed.stop_reason);
        assert!(expo.saturated(), "{:?}", expo.stop_reason);
        // saturation is the same closure either way
        assert_eq!(
            fixed.egraph.total_number_of_nodes(),
            expo.egraph.total_number_of_nodes()
        );
        assert_eq!(
            fixed.egraph.number_of_classes(),
            expo.egraph.number_of_classes()
        );
        // ... but the doubling mute visits far fewer wasted candidates
        let wasted_fixed = rule_candidates(&fixed, "identity-add");
        let wasted_expo = rule_candidates(&expo, "identity-add");
        assert!(
            wasted_expo < wasted_fixed,
            "exponential backoff must probe the fruitless rule less: {wasted_expo} vs {wasted_fixed}"
        );
    }

    /// `candidates_visited` must aggregate consistently across search
    /// modes: every rule appears exactly once per iteration (no
    /// double-count when an un-mute's catch-up search and a later
    /// verification sweep land in different iterations), muted rules
    /// report zero visits, and a delta-mode run never visits more
    /// candidates than the same run with delta disabled (full sweeps
    /// every iteration), while reaching the same exact closure.
    #[test]
    fn delta_candidate_counts_are_consistent_with_full_sweeps() {
        let expr = parse_rec_expr("(+ (+ a b) (+ (+ c d) (+ e f)))").unwrap();
        let run = |delta: bool| -> Runner<Arith, ()> {
            let runner = Runner::<Arith, ()>::default()
                .with_expr(&expr)
                .with_scheduler(Scheduler::Sampling {
                    match_limit: 8,
                    seed: 3,
                })
                .with_backoff(BackoffConfig {
                    fruitless_threshold: 1,
                    mute_iters: 2,
                    ..BackoffConfig::default()
                })
                .with_exact_saturation()
                .with_iter_limit(2000)
                .with_node_limit(100_000);
            let runner = if delta {
                runner
            } else {
                runner.without_delta_search()
            };
            runner.run(&rules_with_identity())
        };
        let with_delta = run(true);
        let without = run(false);
        assert!(with_delta.saturated(), "{:?}", with_delta.stop_reason);
        assert!(without.saturated(), "{:?}", without.stop_reason);
        // same exact closure either way
        assert_eq!(
            with_delta.egraph.total_number_of_nodes(),
            without.egraph.total_number_of_nodes()
        );
        let n_rules = rules_with_identity().len();
        for it in &with_delta.iterations {
            // one stats row per rule per iteration — a mode switch never
            // records (and so never counts) a rule twice
            assert_eq!(it.rules.len(), n_rules);
            let mut names: Vec<&str> = it.rules.iter().map(|r| r.rule.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n_rules, "duplicate rule rows in iteration");
            for r in &it.rules {
                if r.muted {
                    assert_eq!(r.candidates, 0, "muted rule visited candidates");
                    assert!(!r.delta, "muted rows are not delta rows");
                }
                // candidates are counted at search time; egraph_classes
                // after rebuild, where each union merges away a class
                assert!(
                    r.candidates <= it.egraph_classes + it.unions,
                    "visited more candidates than classes existed at search time"
                );
            }
        }
        // both modes actually exercised: the delta run mixes delta rows
        // and full-sweep rows (first search, verification sweeps), the
        // no-delta run records none — and the aggregate is the plain
        // row sum either way, so BENCH_* numbers aggregate identically
        // across modes
        let rows = |r: &Runner<Arith, ()>, delta: bool| -> usize {
            r.iterations
                .iter()
                .flat_map(|it| &it.rules)
                .filter(|row| row.delta == delta && !row.muted)
                .count()
        };
        assert!(rows(&with_delta, true) > 0, "delta mode never used");
        assert!(rows(&with_delta, false) > 0, "no full sweeps recorded");
        assert_eq!(rows(&without, true), 0, "no-delta run recorded delta rows");
        // a delta row visits at most the classes the full sweep of the
        // same iteration would have visited — spot-check the identity
        // rule, which matches every `+` class on a full sweep
        for it in &with_delta.iterations {
            let full_add: Option<usize> = it
                .rules
                .iter()
                .find(|r| r.rule == "comm-add" && !r.delta && !r.muted)
                .map(|r| r.candidates);
            if let (Some(full), Some(delta_row)) = (
                full_add,
                it.rules
                    .iter()
                    .find(|r| r.rule == "identity-add" && r.delta),
            ) {
                assert!(
                    delta_row.candidates <= full,
                    "delta visited more + classes than a same-iteration full sweep"
                );
            }
        }
    }

    /// Per-region convergence freezing (workload mode): with one root
    /// that saturates almost immediately and one that needs many
    /// sampled iterations, the fast region must freeze — visibly, in
    /// `Iteration::frozen_regions` — and stay frozen to the end, the
    /// run must stop on `RegionsConverged`, and the extracted best
    /// terms must match a run without region tracking (freezing does
    /// not change the plans).
    #[test]
    fn converged_region_freezes_and_plans_are_unchanged() {
        let fast = parse_rec_expr("(+ p q)").unwrap();
        // AC-heavy with redundant double negations: the best term is
        // strictly smaller than the input, so plan equality below is
        // not vacuous.
        let slow =
            parse_rec_expr("(+ (+ a (neg (neg b))) (+ (+ c d) (+ (neg (neg e)) f)))").unwrap();
        let mut rules = rules();
        rules.push(Rewrite::new("neg-neg", "(neg (neg ?a))", "?a").unwrap());
        let run = |regions: bool| -> Runner<Arith, ()> {
            let runner = Runner::<Arith, ()>::default()
                .with_expr(&fast)
                .with_expr(&slow)
                .with_scheduler(Scheduler::Sampling {
                    match_limit: 2,
                    seed: 11,
                })
                .with_iter_limit(400)
                .with_node_limit(100_000);
            let runner = if regions {
                runner.with_regions(RegionConfig::default())
            } else {
                runner
            };
            runner.run(&rules)
        };
        let frozen_run = run(true);
        assert_eq!(
            frozen_run.stop_reason,
            Some(StopReason::RegionsConverged),
            "every region must converge"
        );
        // the fast region freezes while the slow one still works …
        let first_freeze = frozen_run
            .iterations
            .iter()
            .position(|it| it.frozen_regions == vec![true, false])
            .expect("fast region must freeze before the slow one");
        // … and never thaws (region mode has no unfreeze-retry)
        for it in &frozen_run.iterations[first_freeze..] {
            assert!(it.frozen_regions[0], "fast region thawed");
        }
        // after the freeze, the fast region's exclusive classes are out
        // of every candidate set: no candidate total may exceed the
        // graph minus that region's exclusive classes
        let masks = frozen_run.egraph.reachability_masks(&frozen_run.roots);
        let fast_exclusive = masks.values().filter(|&&m| m == 0b01).count();
        assert!(fast_exclusive > 0, "fast region has exclusive classes");
        for it in &frozen_run.iterations[first_freeze..] {
            for r in &it.rules {
                assert!(
                    r.candidates <= it.egraph_classes - fast_exclusive.min(it.egraph_classes),
                    "a rule searched a frozen region: {} candidates, {} classes, {} frozen",
                    r.candidates,
                    it.egraph_classes,
                    fast_exclusive
                );
            }
        }
        // freezing changes how much is searched, not what is extracted:
        // the fast root's best term is identical, and the slow root's
        // best cost matches (AC tie-breaking between equal-size trees
        // may differ; both runs must find the neg-neg-free minimum)
        let plain = run(false);
        let best = |r: &Runner<Arith, ()>| -> Vec<(f64, String)> {
            let ext = crate::extract::Extractor::new(&r.egraph, crate::extract::AstSize);
            r.roots
                .iter()
                .map(|&root| {
                    let (cost, term) = ext.find_best(root).expect("extractable");
                    (cost, term.to_string())
                })
                .collect()
        };
        let (frozen_best, plain_best) = (best(&frozen_run), best(&plain));
        assert_eq!(frozen_best[0], plain_best[0], "fast plan changed");
        assert_eq!(frozen_best[1].0, plain_best[1].0, "slow plan cost changed");
        // 6 leaves under + (11 nodes), both neg-negs rewritten away
        assert_eq!(frozen_best[1].0, 11.0, "double negations survived");
        // and the total matching work is strictly lower with freezing
        let visits = |r: &Runner<Arith, ()>| -> usize {
            r.iterations
                .iter()
                .flat_map(|it| &it.rules)
                .map(|r| r.candidates)
                .sum()
        };
        assert!(visits(&frozen_run) < visits(&plain));
    }

    #[test]
    fn per_rule_unions_sum_to_apply_unions() {
        let expr = parse_rec_expr("(* (+ x y) z)").unwrap();
        let runner = Runner::<Arith, ()>::default()
            .with_expr(&expr)
            .with_scheduler(Scheduler::DepthFirst)
            .run(&rules());
        for it in &runner.iterations {
            let per_rule: usize = it.rules.iter().map(|r| r.unions).sum();
            assert!(per_rule <= it.unions, "rebuild can only add unions");
        }
    }

    /// Which flipped `(+ b a)` forms exist after one sampled iteration —
    /// the observable trace of *which* matches the sampler picked.
    fn sampled_flips(rule_order: &[Rewrite<Arith, ()>]) -> Vec<String> {
        let mut runner = Runner::<Arith, ()>::default().with_scheduler(Scheduler::Sampling {
            match_limit: 2,
            seed: 99,
        });
        let pairs = [
            ("a", "b"),
            ("c", "d"),
            ("e", "f"),
            ("g", "h"),
            ("i", "j"),
            ("k", "l"),
        ];
        for (l, r) in pairs {
            let e = parse_rec_expr(&format!("(+ {l} {r})")).unwrap();
            runner = runner.with_expr(&e);
        }
        let runner = runner.with_iter_limit(1).run(rule_order);
        let mut flipped = Vec::new();
        for (l, r) in pairs {
            let e = parse_rec_expr::<Arith>(&format!("(+ {r} {l})")).unwrap();
            if runner.egraph.lookup_expr(&e).is_some() {
                flipped.push(format!("(+ {r} {l})"));
            }
        }
        flipped
    }

    #[test]
    fn sampling_is_deterministic_per_rule_under_reordering() {
        let fwd = rules();
        let mut rev = rules();
        rev.reverse();
        let a = sampled_flips(&fwd);
        let b = sampled_flips(&rev);
        assert!(!a.is_empty(), "match_limit 2 of 6 must flip something");
        assert!(
            a.len() < 6,
            "sampling must not apply every comm-add match in one iteration"
        );
        assert_eq!(
            a, b,
            "which matches a rule samples must not depend on rule order"
        );
        // and repeated runs are identical outright
        assert_eq!(a, sampled_flips(&fwd));
    }
}
