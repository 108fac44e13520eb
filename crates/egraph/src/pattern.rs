//! Patterns and e-matching.
//!
//! A pattern is a term with holes (`?a`, `?b`, …). Searching matches the
//! pattern against every e-class (the `match` of Figure 8 in the paper);
//! applying instantiates the pattern under a substitution and inserts it.
//!
//! Both compiled backends (the structural bind/compare machine here and
//! the relational plans in [`crate::relational`]) write matches as flat
//! [`MatchRows`]: one row of e-class ids per match, one id per pattern
//! variable in the pattern's sorted [`Pattern::row_vars`] order, plus
//! the row's root class. Within a class rows are sorted and
//! deduplicated, so the buffer is already in the canonical order the
//! saturation driver samples from. A [`Subst`] is only built for a row
//! that is actually applied ([`Pattern::row_subst`]); the
//! [`SearchMatches`] views returned by `search*` are built from rows for
//! tests and callers that want per-class substitution lists, and
//! [`Pattern::naive_search`] stays the interpreted oracle.

use crate::analysis::Analysis;
use crate::egraph::EGraph;
use crate::language::{Id, Language, OpKey, RecExpr};
use crate::relational::{MatchingMode, RelPlan, RelQuery};
use spores_ir::{SExp, Symbol};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

/// A pattern variable, e.g. `?a`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Symbol);

impl Var {
    /// Make a variable from its spelling (with or without leading `?`).
    pub fn new(name: &str) -> Var {
        let name = name.strip_prefix('?').unwrap_or(name);
        Var(Symbol::new(name))
    }

    pub fn symbol(self) -> Symbol {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A substitution from pattern variables to e-class ids.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Subst {
    vec: Vec<(Var, Id)>,
}

impl Subst {
    pub fn get(&self, var: Var) -> Option<Id> {
        self.vec.iter().find(|(v, _)| *v == var).map(|&(_, id)| id)
    }

    pub fn insert(&mut self, var: Var, id: Id) {
        debug_assert!(self.get(var).is_none(), "{var} already bound");
        self.vec.push((var, id));
    }

    /// Canonical ordering so equal substitutions compare equal.
    fn normalize(&mut self) {
        self.vec.sort_unstable();
    }

    /// Overwrite with the bindings of one match row (`vars` sorted, as
    /// [`Pattern::row_vars`]), reusing the allocation. The result is
    /// already in canonical order.
    pub(crate) fn refill(&mut self, vars: &[Var], row: &[Id]) {
        debug_assert_eq!(vars.len(), row.len());
        self.vec.clear();
        self.vec
            .extend(vars.iter().copied().zip(row.iter().copied()));
    }

    pub fn iter(&self) -> impl Iterator<Item = (Var, Id)> + '_ {
        self.vec.iter().copied()
    }
}

/// One node of a pattern: either a language node or a hole.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ENodeOrVar<L> {
    ENode(L),
    Var(Var),
}

impl<L: Language> Language for ENodeOrVar<L> {
    fn children(&self) -> &[Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children(),
            ENodeOrVar::Var(_) => &[],
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children_mut(),
            ENodeOrVar::Var(_) => &mut [],
        }
    }

    fn matches(&self, other: &Self) -> bool {
        match (self, other) {
            (ENodeOrVar::ENode(a), ENodeOrVar::ENode(b)) => a.matches(b),
            (ENodeOrVar::Var(a), ENodeOrVar::Var(b)) => a == b,
            _ => false,
        }
    }

    fn op_display(&self) -> String {
        match self {
            ENodeOrVar::ENode(n) => n.op_display(),
            ENodeOrVar::Var(v) => v.to_string(),
        }
    }

    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, String> {
        if let Some(rest) = op.strip_prefix('?') {
            if !children.is_empty() {
                return Err(format!("pattern variable ?{rest} cannot have children"));
            }
            Ok(ENodeOrVar::Var(Var::new(rest)))
        } else {
            L::from_op(op, children).map(ENodeOrVar::ENode)
        }
    }

    fn op_key(&self) -> OpKey {
        match self {
            // Delegate so a pattern head keys identically to the e-nodes
            // it matches (the default would hash ENodeOrVar's own
            // discriminant instead of the inner language's).
            ENodeOrVar::ENode(n) => n.op_key(),
            // Variables never consult the op index; any stable key works.
            ENodeOrVar::Var(v) => {
                use std::hash::{Hash, Hasher};
                let mut h = crate::hash::FxHasher::default();
                v.hash(&mut h);
                OpKey::from_raw(h.finish())
            }
        }
    }
}

/// One sweep's matches of one pattern, flattened.
///
/// Each match is one *row* of `width` e-class ids — the binding of every
/// pattern variable, in the pattern's sorted [`Pattern::row_vars`]
/// order — stored back to back in a single `Vec<Id>`, with the row's
/// root class in a parallel vector. Rows of one class are contiguous,
/// sorted, and deduplicated (the order per-class substitution lists
/// used to be normalized to), and classes appear in the order the sweep
/// visited them: ascending ids for every search entry point and for the
/// merged output of [`crate::search_rules_parallel`].
///
/// A ground (zero-variable) pattern has width 0: its rows are empty and
/// deduplication leaves at most one row per class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchRows {
    width: usize,
    ids: Vec<Id>,
    row_class: Vec<Id>,
}

/// Scratch buffers for sorting one class's rows, reused across a sweep.
#[derive(Default)]
struct RowSorter {
    order: Vec<u32>,
    tmp: Vec<Id>,
}

impl MatchRows {
    /// An empty buffer for rows of `width` ids.
    pub fn new(width: usize) -> MatchRows {
        MatchRows {
            width,
            ids: Vec::new(),
            row_class: Vec::new(),
        }
    }

    /// Ids per row (the pattern's variable count).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows (matches).
    pub fn len(&self) -> usize {
        self.row_class.len()
    }

    pub fn is_empty(&self) -> bool {
        self.row_class.is_empty()
    }

    /// The bindings of row `i`, in [`Pattern::row_vars`] order.
    pub fn row(&self, i: usize) -> &[Id] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    /// The root class of row `i`.
    pub fn class(&self, i: usize) -> Id {
        self.row_class[i]
    }

    /// Maximal runs of rows sharing a root class, as `(class, rows)`.
    pub fn runs(&self) -> impl Iterator<Item = (Id, std::ops::Range<usize>)> + '_ {
        let mut start = 0;
        std::iter::from_fn(move || {
            let &class = self.row_class.get(start)?;
            let len = self.row_class[start..]
                .iter()
                .take_while(|&&c| c == class)
                .count();
            let range = start..start + len;
            start = range.end;
            Some((class, range))
        })
    }

    /// Append one row rooted at `class`.
    pub(crate) fn push(&mut self, class: Id, row: impl Iterator<Item = Id>) {
        self.ids.extend(row);
        self.row_class.push(class);
        debug_assert_eq!(self.ids.len(), self.row_class.len() * self.width);
    }

    /// Sort and deduplicate the rows from `start` on — one class's
    /// output. Most classes yield at most one row, or rows already in
    /// ascending order, and skip the sort.
    fn finish_class(&mut self, start: usize, sorter: &mut RowSorter) {
        let n = self.len() - start;
        if n < 2 {
            return;
        }
        let w = self.width;
        if w == 0 {
            self.row_class.truncate(start + 1);
            return;
        }
        let base = start * w;
        let rows = &self.ids[base..];
        if rows
            .chunks_exact(w)
            .zip(rows[w..].chunks_exact(w))
            .all(|(a, b)| a < b)
        {
            return;
        }
        let row = |i: u32| &rows[i as usize * w..][..w];
        sorter.order.clear();
        sorter.order.extend(0..n as u32);
        sorter.order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        sorter.order.dedup_by(|a, b| row(*a) == row(*b));
        sorter.tmp.clear();
        for &i in &sorter.order {
            sorter.tmp.extend_from_slice(row(i));
        }
        self.ids.truncate(base);
        self.ids.extend_from_slice(&sorter.tmp);
        self.row_class.truncate(start + sorter.order.len());
    }

    /// Merge per-shard buffers of one rule into ascending class order.
    /// Each part must be in ascending class order and no class may
    /// appear in two parts (shards partition the candidate list), so
    /// the result is exactly the unsharded sweep's buffer however the
    /// candidates were split — contiguous id ranges or region groups.
    pub fn merge_by_class(width: usize, parts: Vec<MatchRows>) -> MatchRows {
        let mut parts: Vec<MatchRows> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        match parts.len() {
            0 => return MatchRows::new(width),
            1 => return parts.pop().expect("one part"),
            _ => {}
        }
        let total = parts.iter().map(MatchRows::len).sum();
        let mut out = MatchRows {
            width,
            ids: Vec::with_capacity(total * width),
            row_class: Vec::with_capacity(total),
        };
        let mut heads: Vec<_> = parts.iter().map(|p| p.runs().peekable()).collect();
        loop {
            let next = (0..heads.len())
                .filter_map(|p| heads[p].peek().map(|&(class, _)| (class, p)))
                .min();
            let Some((_, p)) = next else { break };
            let (class, range) = heads[p].next().expect("peeked run");
            debug_assert!(out.row_class.last().is_none_or(|&c| c < class));
            out.ids
                .extend_from_slice(&parts[p].ids[range.start * width..range.end * width]);
            out.row_class
                .extend(std::iter::repeat_n(class, range.len()));
        }
        out
    }
}

/// One instruction of the compiled pattern machine. Registers hold
/// e-class ids; `Bind` is the only backtracking point.
#[derive(Clone, Debug)]
enum Insn<L> {
    /// For each e-node of the class in register `reg` whose head matches
    /// `node`, write its children into registers `out..out + arity` and
    /// continue; exhausting the nodes backtracks.
    Bind { reg: usize, node: L, out: usize },
    /// Backtrack unless registers `a` and `b` hold the same class
    /// (non-linear patterns such as `(* ?x ?x)`).
    Compare { a: usize, b: usize },
}

/// A pattern lowered once into a flat instruction sequence, executed
/// directly against each candidate class's node vector. Replaces the
/// per-match recursive interpretation of the AST: no recursion over
/// pattern nodes, no re-canonicalization of already-canonical children,
/// and head tests against pre-extracted operator templates.
#[derive(Clone, Debug)]
struct Program<L> {
    insns: Vec<Insn<L>>,
    /// Register holding each pattern variable's binding, in sorted
    /// variable order (the column order of a match row).
    row_regs: Vec<usize>,
    n_regs: usize,
}

/// Sort `(var, register)` bindings by variable and keep the registers:
/// the column order of a match row.
pub(crate) fn row_registers(mut bindings: Vec<(Var, usize)>) -> Vec<usize> {
    bindings.sort_unstable_by_key(|&(v, _)| v);
    bindings.into_iter().map(|(_, r)| r).collect()
}

impl<L: Language> Program<L> {
    /// Lower `ast` breadth-first: register 0 is the candidate root class;
    /// every `Bind` allocates a contiguous block for its children, so all
    /// registers are written before any instruction reads them.
    fn compile(ast: &RecExpr<ENodeOrVar<L>>) -> Program<L> {
        let mut insns = Vec::new();
        let mut subst_regs: Vec<(Var, usize)> = Vec::new();
        let mut n_regs = 1usize;
        let mut work: VecDeque<(Id, usize)> = VecDeque::from([(ast.root(), 0)]);
        while let Some((pat, reg)) = work.pop_front() {
            match ast.node(pat) {
                ENodeOrVar::Var(v) => match subst_regs.iter().find(|(u, _)| u == v) {
                    Some(&(_, bound)) => insns.push(Insn::Compare { a: bound, b: reg }),
                    None => subst_regs.push((*v, reg)),
                },
                ENodeOrVar::ENode(n) => {
                    let out = n_regs;
                    n_regs += n.children().len();
                    insns.push(Insn::Bind {
                        reg,
                        node: n.clone(),
                        out,
                    });
                    for (i, &child) in n.children().iter().enumerate() {
                        work.push_back((child, out + i));
                    }
                }
            }
        }
        Program {
            insns,
            row_regs: row_registers(subst_regs),
            n_regs,
        }
    }

    /// Run the program with `eclass` (canonical) in the root register,
    /// appending one row per successful execution path to `out`. `regs`
    /// is scratch reused across the sweep: most candidates produce no
    /// match, and those executions must not pay any allocation.
    fn run<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        eclass: Id,
        regs: &mut Vec<Id>,
        out: &mut MatchRows,
    ) {
        regs.clear();
        regs.resize(self.n_regs, eclass);
        self.exec(egraph, 0, regs, out);
    }

    fn exec<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        pc: usize,
        regs: &mut [Id],
        out: &mut MatchRows,
    ) {
        let Some(insn) = self.insns.get(pc) else {
            out.push(regs[0], self.row_regs.iter().map(|&r| regs[r]));
            return;
        };
        match insn {
            Insn::Bind { reg, node, out: o } => {
                // Every register is canonical on a clean graph: the root
                // comes from a canonical candidate stream, and bound
                // children are canonical after rebuild — so the per-Bind
                // union-find lookup is skipped entirely.
                let class = egraph.class_canonical(regs[*reg]);
                let arity = node.children().len();
                for enode in class.iter() {
                    if !node.matches(enode) {
                        continue;
                    }
                    debug_assert_eq!(enode.children().len(), arity);
                    regs[*o..*o + arity].copy_from_slice(enode.children());
                    self.exec(egraph, pc + 1, regs, out);
                }
            }
            Insn::Compare { a, b } => {
                debug_assert_eq!(regs[*a], egraph.find(regs[*a]));
                debug_assert_eq!(regs[*b], egraph.find(regs[*b]));
                if regs[*a] == regs[*b] {
                    self.exec(egraph, pc + 1, regs, out);
                }
            }
        }
    }
}

/// A compiled pattern: the s-expression AST plus what is derived from it
/// (both matcher lowerings and the row column order).
///
/// The fields are private so they cannot drift apart: the only way to
/// build a `Pattern` is [`Pattern::new`]/[`Pattern::parse`], which
/// derive everything else from the AST.
#[derive(Clone, Debug)]
pub struct Pattern<L> {
    ast: RecExpr<ENodeOrVar<L>>,
    program: Program<L>,
    /// The same pattern lowered for the relational (generic-join)
    /// backend; which lowering runs is the caller's [`MatchingMode`].
    relational: RelQuery<L>,
    /// The pattern's variables, sorted: the column order of its rows.
    row_vars: Vec<Var>,
}

/// All matches of a pattern inside one e-class: a per-class view of
/// [`MatchRows`], with one [`Subst`] per row.
#[derive(Clone, Debug)]
pub struct SearchMatches {
    pub eclass: Id,
    pub substs: Vec<Subst>,
}

impl<L: Language> Pattern<L> {
    pub fn new(ast: RecExpr<ENodeOrVar<L>>) -> Self {
        let program = Program::compile(&ast);
        let relational = RelQuery::compile(&ast);
        let mut row_vars: Vec<Var> = ast
            .nodes()
            .iter()
            .filter_map(|n| match n {
                ENodeOrVar::Var(v) => Some(*v),
                ENodeOrVar::ENode(_) => None,
            })
            .collect();
        row_vars.sort_unstable();
        row_vars.dedup();
        Pattern {
            ast,
            program,
            relational,
            row_vars,
        }
    }

    /// The pattern's abstract syntax tree.
    pub fn ast(&self) -> &RecExpr<ENodeOrVar<L>> {
        &self.ast
    }

    /// Parse a pattern from s-expression syntax, e.g. `(* ?a (+ ?b ?c))`.
    pub fn parse(src: &str) -> Result<Self, String> {
        let sexp = spores_ir::parse_sexp(src).map_err(|e| e.to_string())?;
        let mut ast = RecExpr::default();
        add_pattern_sexp::<L>(&sexp, &mut ast)?;
        Ok(Pattern::new(ast))
    }

    /// The variables appearing in this pattern.
    pub fn vars(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for node in self.ast.nodes() {
            if let ENodeOrVar::Var(v) = node {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        vars
    }

    /// The pattern's variables in sorted order: the column order of the
    /// [`MatchRows`] its searches produce.
    pub fn row_vars(&self) -> &[Var] {
        &self.row_vars
    }

    /// The substitution a match row stands for.
    pub fn row_subst(&self, row: &[Id]) -> Subst {
        let mut subst = Subst::default();
        subst.refill(&self.row_vars, row);
        subst
    }

    /// Per-class [`SearchMatches`] views of a row buffer, in row order.
    pub fn matches_from_rows(&self, rows: &MatchRows) -> Vec<SearchMatches> {
        rows.runs()
            .map(|(eclass, range)| SearchMatches {
                eclass,
                substs: range.map(|i| self.row_subst(rows.row(i))).collect(),
            })
            .collect()
    }

    /// The candidate classes the op-head index yields for this pattern:
    /// classes containing a node with the pattern root's head, or every
    /// class when the root is a variable. Sorted (deterministic order).
    fn candidates<'g, A: Analysis<L>>(&self, egraph: &'g EGraph<L, A>) -> Cow<'g, [Id]> {
        match self.ast.node(self.ast.root()) {
            ENodeOrVar::ENode(n) => Cow::Borrowed(egraph.classes_with_op(n.op_key())),
            ENodeOrVar::Var(_) => Cow::Owned(egraph.class_ids()),
        }
    }

    /// Search for matches, visiting only the classes the op-head index
    /// proposes for the pattern root instead of every e-class.
    pub fn search<A: Analysis<L>>(&self, egraph: &EGraph<L, A>) -> Vec<SearchMatches> {
        self.search_with_stats(egraph).0
    }

    /// Like [`Pattern::search`], also reporting how many candidate
    /// classes the op-head index proposed (the classes actually visited).
    pub fn search_with_stats<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
    ) -> (Vec<SearchMatches>, usize) {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let candidates = self.candidates(egraph);
        self.search_ids_with_stats(egraph, &candidates)
    }

    /// Delta search: like [`Pattern::search_with_stats`] but restricted
    /// to the classes in `dirty` — the op-head candidates for the
    /// pattern root intersected with the dirty set.
    ///
    /// Because the e-graph closes the dirty set over the parent
    /// relation ([`EGraph::dirty_classes`]), a match is new only if its
    /// *root* class is dirty — a change at any bound child position
    /// dirties every ancestor, so the root-level intersection already
    /// covers sub-term changes and no per-child dirty test is needed.
    /// Matches rooted in clean classes are exactly the matches the
    /// previous full sweep already returned (modulo id canonicalization),
    /// which is the property `tests/proptest_delta.rs` checks
    /// differentially against [`Pattern::naive_search`].
    pub fn search_delta_with_stats<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        dirty: &crate::hash::FxHashSet<Id>,
    ) -> (Vec<SearchMatches>, usize) {
        let mut sorted: Vec<Id> = dirty.iter().copied().collect();
        sorted.sort_unstable();
        let ids = self.delta_candidate_ids(egraph, &sorted);
        self.search_ids_with_stats(egraph, &ids)
    }

    /// The exact candidate list delta search visits: the op-head
    /// candidates for the pattern root intersected with the dirty set,
    /// in ascending id order. `dirty_sorted` must be sorted and
    /// deduplicated; the saturation driver sorts each iteration's dirty
    /// snapshot once and shares it across every rule, and the parallel
    /// search phase shards the returned list across its pool —
    /// [`Pattern::search_ids_with_stats`] over the whole list is
    /// exactly [`Pattern::search_delta_with_stats`].
    pub fn delta_candidate_ids<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        dirty_sorted: &[Id],
    ) -> Vec<Id> {
        debug_assert!(dirty_sorted.windows(2).all(|w| w[0] < w[1]));
        match self.ast.node(self.ast.root()) {
            ENodeOrVar::ENode(n) => {
                let bucket = egraph.classes_with_op(n.op_key());
                // Intersect from the smaller side; either way the
                // candidates come out in ascending id order, so match
                // order is deterministic and mode-independent.
                if dirty_sorted.len() < bucket.len() {
                    dirty_sorted
                        .iter()
                        .copied()
                        .filter(|id| bucket.binary_search(id).is_ok())
                        .collect()
                } else {
                    bucket
                        .iter()
                        .copied()
                        .filter(|id| dirty_sorted.binary_search(id).is_ok())
                        .collect()
                }
            }
            ENodeOrVar::Var(_) => {
                // Canonicalize + dedup: a banked dirty set can hold a
                // merged-away id alongside its canonical survivor (the
                // ENode arm is screened by the rebuilt op-index, this
                // arm is not), and visiting both would duplicate the
                // class's matches.
                let mut ids: Vec<Id> = dirty_sorted.iter().map(|&id| egraph.find(id)).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
        }
    }

    /// Like [`Pattern::search_with_stats`] but skipping the classes in
    /// `excluded` (workload mode's frozen regions). With an empty
    /// exclusion set this is exactly a full sweep.
    pub fn search_except_with_stats<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        excluded: &crate::hash::FxHashSet<Id>,
    ) -> (Vec<SearchMatches>, usize) {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let ids = self.except_candidate_ids(egraph, excluded);
        self.search_ids_with_stats(egraph, &ids)
    }

    /// The exact candidate list a frozen-filtered full sweep visits
    /// (ascending class ids): [`Pattern::search_ids_with_stats`] over
    /// the returned list is exactly
    /// [`Pattern::search_except_with_stats`].
    pub fn except_candidate_ids<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        excluded: &crate::hash::FxHashSet<Id>,
    ) -> Vec<Id> {
        let candidates = self.candidates(egraph);
        if excluded.is_empty() {
            return candidates.into_owned();
        }
        candidates
            .iter()
            .copied()
            .filter(|id| !excluded.contains(id))
            .collect()
    }

    /// Run the compiled machine over an explicit candidate id list —
    /// the shard form of the search entry points. The ids must be
    /// canonical and on a clean graph, as produced by
    /// [`Pattern::delta_candidate_ids`] /
    /// [`Pattern::except_candidate_ids`].
    pub fn search_ids_with_stats<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        ids: &[Id],
    ) -> (Vec<SearchMatches>, usize) {
        self.search_ids_with_stats_mode(egraph, ids, MatchingMode::Structural)
    }

    /// [`Pattern::search_ids_with_stats`] with an explicit backend,
    /// as per-class views of [`Pattern::search_rows`].
    pub fn search_ids_with_stats_mode<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        ids: &[Id],
        mode: MatchingMode,
    ) -> (Vec<SearchMatches>, usize) {
        let (rows, visited) = self.search_rows(egraph, ids, mode);
        (self.matches_from_rows(&rows), visited)
    }

    /// Full sweep on the relational backend (the generic-join analogue
    /// of [`Pattern::search`]).
    pub fn search_relational<A: Analysis<L>>(&self, egraph: &EGraph<L, A>) -> Vec<SearchMatches> {
        self.search_relational_with_stats(egraph).0
    }

    /// Like [`Pattern::search_with_stats`] but executing the
    /// generic-join plan instead of the structural machine.
    pub fn search_relational_with_stats<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
    ) -> (Vec<SearchMatches>, usize) {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let candidates = self.candidates(egraph);
        self.search_ids_with_stats_mode(egraph, &candidates, MatchingMode::Relational)
    }

    /// The search funnel every entry point and the saturation driver go
    /// through: run the chosen backend over `ids` (canonical, on a clean
    /// graph) and return the matches as rows, with how many candidates
    /// were visited — always `ids.len()`, in both modes, so
    /// `candidates_visited` stays comparable across modes. Both
    /// backends return bit-identical rows; see
    /// `tests/proptest_relational.rs`.
    pub fn search_rows<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        ids: &[Id],
        mode: MatchingMode,
    ) -> (MatchRows, usize) {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let mut out = MatchRows::new(self.row_vars.len());
        let mut regs: Vec<Id> = Vec::new();
        let mut sorter = RowSorter::default();
        match mode {
            MatchingMode::Structural => {
                for &id in ids {
                    debug_assert_eq!(id, egraph.find(id), "candidate ids are canonical");
                    let start = out.len();
                    self.program.run(egraph, id, &mut regs, &mut out);
                    out.finish_class(start, &mut sorter);
                }
            }
            MatchingMode::Relational => {
                // Adaptive planning: sweeps too small to amortize
                // per-sweep selectivity planning run the query's
                // precompiled static plan. Purely a cost decision — both
                // paths accept identical bindings (see
                // `relational::PLANNED_SWEEP_MIN`).
                let plan = if ids.len() >= crate::relational::PLANNED_SWEEP_MIN {
                    let plan = RelPlan::build(&self.relational, egraph, ids.len());
                    if plan.is_impossible() {
                        return (out, ids.len());
                    }
                    Some(plan)
                } else {
                    // Semi-join precheck against the index columns: an
                    // inapplicable pattern skips the sweep after
                    // O(#atoms) hash lookups, while still reporting
                    // every candidate as visited.
                    if self.relational.sweep_is_impossible(egraph) {
                        return (out, ids.len());
                    }
                    None
                };
                for &id in ids {
                    debug_assert_eq!(id, egraph.find(id), "candidate ids are canonical");
                    let start = out.len();
                    match &plan {
                        Some(plan) => plan.run(egraph, id, &mut regs, &mut out),
                        None => self.relational.run_static(egraph, id, &mut regs, &mut out),
                    }
                    out.finish_class(start, &mut sorter);
                }
            }
        }
        (out, ids.len())
    }

    /// Search one e-class for matches by executing the compiled program.
    /// The graph must be clean (rebuilt) — the machine relies on
    /// canonical class node vectors.
    pub fn search_eclass<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        let eclass = egraph.find(eclass);
        let (rows, _) = self.search_rows(egraph, &[eclass], MatchingMode::Structural);
        self.matches_from_rows(&rows).pop()
    }

    /// Search every e-class with the interpreted matcher — the reference
    /// implementation the compiled machine is differentially tested (and
    /// benchmarked) against. Prefer [`Pattern::search`].
    pub fn naive_search<A: Analysis<L>>(&self, egraph: &EGraph<L, A>) -> Vec<SearchMatches> {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let mut out = Vec::new();
        for id in egraph.class_ids() {
            if let Some(m) = self.naive_search_eclass(egraph, id) {
                out.push(m);
            }
        }
        out
    }

    /// Search one e-class by interpreting the pattern AST (see
    /// [`Pattern::naive_search`]). Substitutions are normalized, sorted
    /// and deduplicated, so they compare equal to the compiled
    /// backends' rows.
    pub fn naive_search_eclass<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        let mut substs = self.match_id(egraph, self.ast.root(), eclass, Subst::default());
        for s in &mut substs {
            s.normalize();
        }
        substs.sort_unstable_by(|a, b| a.vec.cmp(&b.vec));
        substs.dedup();
        if substs.is_empty() {
            None
        } else {
            Some(SearchMatches {
                eclass: egraph.find(eclass),
                substs,
            })
        }
    }

    fn match_id<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        pat: Id,
        eclass: Id,
        subst: Subst,
    ) -> Vec<Subst> {
        let eclass = egraph.find(eclass);
        match self.ast.node(pat) {
            ENodeOrVar::Var(v) => match subst.get(*v) {
                Some(bound) => {
                    if egraph.find(bound) == eclass {
                        vec![subst]
                    } else {
                        vec![]
                    }
                }
                None => {
                    let mut s = subst;
                    s.insert(*v, eclass);
                    vec![s]
                }
            },
            ENodeOrVar::ENode(pnode) => {
                let mut out = Vec::new();
                for enode in egraph.class(eclass).iter() {
                    if !pnode.matches(enode) {
                        continue;
                    }
                    debug_assert_eq!(pnode.children().len(), enode.children().len());
                    let mut partial = vec![subst.clone()];
                    for (&pc, &ec) in pnode.children().iter().zip(enode.children()) {
                        let mut next = Vec::new();
                        for s in partial {
                            next.extend(self.match_id(egraph, pc, ec, s));
                        }
                        partial = next;
                        if partial.is_empty() {
                            break;
                        }
                    }
                    out.extend(partial);
                }
                out
            }
        }
    }

    /// Instantiate the pattern under `subst`, inserting it into the graph.
    /// Returns the class of the instantiated root.
    pub fn apply<A: Analysis<L>>(&self, egraph: &mut EGraph<L, A>, subst: &Subst) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(self.ast.len());
        for node in self.ast.nodes() {
            let id = match node {
                ENodeOrVar::Var(v) => subst
                    .get(*v)
                    .unwrap_or_else(|| panic!("unbound pattern variable {v}")),
                ENodeOrVar::ENode(n) => {
                    let n = n.clone().map_children(|c| ids[c.index()]);
                    egraph.add(n)
                }
            };
            ids.push(id);
        }
        *ids.last().expect("non-empty pattern")
    }

    /// Instantiate the pattern into a concrete [`RecExpr`] using a mapping
    /// from variables to concrete sub-expressions.
    pub fn instantiate(&self, bindings: &dyn Fn(Var) -> RecExpr<L>) -> RecExpr<L> {
        let mut out = RecExpr::default();
        let mut ids: Vec<Id> = Vec::with_capacity(self.ast.len());
        for node in self.ast.nodes() {
            let id = match node {
                ENodeOrVar::Var(v) => {
                    let sub = bindings(*v);
                    let mut map = Vec::with_capacity(sub.len());
                    for n in sub.nodes() {
                        let n = n.clone().map_children(|c| map[c.index()]);
                        map.push(out.add(n));
                    }
                    *map.last().expect("non-empty binding")
                }
                ENodeOrVar::ENode(n) => {
                    let n = n.clone().map_children(|c| ids[c.index()]);
                    out.add(n)
                }
            };
            ids.push(id);
        }
        out
    }
}

impl<L: Language> fmt::Display for Pattern<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ast)
    }
}

impl<L: Language> std::str::FromStr for Pattern<L> {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pattern::parse(s)
    }
}

fn add_pattern_sexp<L: Language>(
    sexp: &SExp,
    ast: &mut RecExpr<ENodeOrVar<L>>,
) -> Result<Id, String> {
    match sexp {
        SExp::Atom(a) => {
            let node = ENodeOrVar::from_op(a, vec![])?;
            Ok(ast.add(node))
        }
        SExp::List(items) => {
            let (op, rest) = items
                .split_first()
                .ok_or_else(|| "empty list in pattern".to_owned())?;
            let op = op
                .as_atom()
                .ok_or_else(|| format!("operator must be an atom, got {op}"))?;
            let children = rest
                .iter()
                .map(|c| add_pattern_sexp(c, ast))
                .collect::<Result<Vec<_>, _>>()?;
            let node = ENodeOrVar::from_op(op, children)?;
            Ok(ast.add(node))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::parse_rec_expr;
    use crate::language::test_lang::Arith;

    type EG = EGraph<Arith, ()>;

    fn add_str(eg: &mut EG, s: &str) -> Id {
        eg.add_expr(&parse_rec_expr(s).unwrap())
    }

    #[test]
    fn parse_and_vars() {
        let p: Pattern<Arith> = "(* ?a (+ ?b ?a))".parse().unwrap();
        assert_eq!(p.to_string(), "(* ?a (+ ?b ?a))");
        assert_eq!(p.vars().len(), 2);
    }

    #[test]
    fn simple_match() {
        let mut eg = EG::default();
        let root = add_str(&mut eg, "(* x (+ y 2))");
        eg.rebuild();
        let p: Pattern<Arith> = "(* ?a (+ ?b ?c))".parse().unwrap();
        let matches = p.search(&eg);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(root));
        assert_eq!(matches[0].substs.len(), 1);
    }

    #[test]
    fn nonlinear_pattern_requires_same_class() {
        let mut eg = EG::default();
        add_str(&mut eg, "(* x x)");
        add_str(&mut eg, "(* x y)");
        eg.rebuild();
        let p: Pattern<Arith> = "(* ?a ?a)".parse().unwrap();
        let matches = p.search(&eg);
        assert_eq!(matches.len(), 1, "only (* x x) matches (* ?a ?a)");
    }

    #[test]
    fn nonlinear_matches_after_union() {
        let mut eg = EG::default();
        let x = add_str(&mut eg, "x");
        let y = add_str(&mut eg, "y");
        add_str(&mut eg, "(* x y)");
        let p: Pattern<Arith> = "(* ?a ?a)".parse().unwrap();
        eg.rebuild();
        assert_eq!(p.search(&eg).len(), 0);
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(p.search(&eg).len(), 1, "x=y makes (* x y) match (* ?a ?a)");
    }

    #[test]
    fn multiple_substs_in_one_class() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(+ x y)");
        let b = add_str(&mut eg, "(+ y x)");
        eg.union(a, b);
        eg.rebuild();
        let p: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
        let m = p.search_eclass(&eg, a).unwrap();
        assert_eq!(m.substs.len(), 2);
    }

    #[test]
    fn apply_inserts_instantiation() {
        let mut eg = EG::default();
        let root = add_str(&mut eg, "(* x (+ y 2))");
        eg.rebuild();
        let lhs: Pattern<Arith> = "(* ?a (+ ?b ?c))".parse().unwrap();
        let rhs: Pattern<Arith> = "(+ (* ?a ?b) (* ?a ?c))".parse().unwrap();
        let m = &lhs.search(&eg)[0];
        let new = rhs.apply(&mut eg, &m.substs[0]);
        eg.union(root, new);
        eg.rebuild();
        let want = parse_rec_expr::<Arith>("(+ (* x y) (* x 2))").unwrap();
        assert_eq!(eg.lookup_expr(&want), Some(eg.find(root)));
        eg.check_invariants();
    }

    #[test]
    fn leaf_patterns_match_constants() {
        let mut eg = EG::default();
        add_str(&mut eg, "(+ 1 x)");
        eg.rebuild();
        let p: Pattern<Arith> = "(+ 1 ?x)".parse().unwrap();
        assert_eq!(p.search(&eg).len(), 1);
        let p2: Pattern<Arith> = "(+ 2 ?x)".parse().unwrap();
        assert_eq!(p2.search(&eg).len(), 0);
    }

    #[test]
    fn instantiate_to_recexpr() {
        let p: Pattern<Arith> = "(+ ?a (* ?a 2))".parse().unwrap();
        let x: RecExpr<Arith> = parse_rec_expr("(neg z)").unwrap();
        let e = p.instantiate(&|_| x.clone());
        assert_eq!(e.to_string(), "(+ (neg z) (* (neg z) 2))");
    }

    /// The patterns the compiled/indexed matcher is checked against the
    /// interpreted reference on, across all unit-test graph shapes.
    fn differential_patterns() -> Vec<Pattern<Arith>> {
        [
            "?a",
            "(+ ?a ?b)",
            "(+ ?a ?a)",
            "(* ?a (+ ?b ?c))",
            "(+ (neg ?a) ?b)",
            "(neg (neg ?a))",
            "(+ 1 ?x)",
            "(* ?a 2)",
            "x",
            "7",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
    }

    #[test]
    fn compiled_matcher_agrees_with_naive() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(* x (+ y 2))");
        let b = add_str(&mut eg, "(+ (neg x) (* x 2))");
        add_str(&mut eg, "(+ 1 (neg (neg y)))");
        eg.union(a, b);
        eg.rebuild();
        let x = add_str(&mut eg, "x");
        let y = add_str(&mut eg, "y");
        eg.union(x, y);
        eg.rebuild();
        for p in differential_patterns() {
            let (indexed, candidates) = p.search_with_stats(&eg);
            let naive = p.naive_search(&eg);
            assert_eq!(indexed.len(), naive.len(), "pattern {p}");
            for (i, n) in indexed.iter().zip(&naive) {
                assert_eq!(i.eclass, n.eclass, "pattern {p}");
                assert_eq!(i.substs, n.substs, "pattern {p}");
            }
            assert!(candidates <= eg.number_of_classes(), "pattern {p}");
        }
    }

    fn ids(v: &[usize]) -> Vec<Id> {
        v.iter().map(|&i| Id::from(i)).collect()
    }

    #[test]
    fn rows_are_sorted_and_deduplicated_per_class() {
        let mut sorter = RowSorter::default();
        let mut rows = MatchRows::new(2);
        let c = Id::from(7usize);
        for r in [[3, 1], [1, 2], [3, 1], [1, 0]] {
            rows.push(c, ids(&r).into_iter());
        }
        rows.finish_class(0, &mut sorter);
        assert_eq!(rows.len(), 3);
        let got: Vec<&[Id]> = (0..rows.len()).map(|i| rows.row(i)).collect();
        assert_eq!(got, vec![&ids(&[1, 0])[..], &ids(&[1, 2]), &ids(&[3, 1])]);
        // width 0 (ground pattern): every row is the empty row, so one
        // survives per class
        let mut ground = MatchRows::new(0);
        for _ in 0..3 {
            ground.push(c, std::iter::empty());
        }
        ground.finish_class(0, &mut sorter);
        assert_eq!(ground.len(), 1);
        assert_eq!(ground.runs().collect::<Vec<_>>(), vec![(c, 0..1)]);
    }

    #[test]
    fn merge_by_class_interleaves_shards() {
        // Region-grouped shards are ascending inside but interleave
        // across each other; the merge restores one ascending stream.
        let shard = |classes: &[usize]| {
            let mut rows = MatchRows::new(1);
            for &c in classes {
                rows.push(Id::from(c), ids(&[c * 10]).into_iter());
                rows.push(Id::from(c), ids(&[c * 10 + 1]).into_iter());
            }
            rows
        };
        let merged = MatchRows::merge_by_class(1, vec![shard(&[2, 9]), shard(&[]), shard(&[1, 5])]);
        assert_eq!(merged, shard(&[1, 2, 5, 9]));
        assert_eq!(MatchRows::merge_by_class(3, Vec::new()), MatchRows::new(3));
    }

    #[test]
    fn index_narrows_candidates_for_nonvar_roots() {
        let mut eg = EG::default();
        add_str(&mut eg, "(* (+ x y) (neg z))");
        eg.rebuild();
        // exactly one class holds a `+` node; the index must propose
        // only that class, not all six
        let p: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
        let (matches, candidates) = p.search_with_stats(&eg);
        assert_eq!(candidates, 1);
        assert_eq!(matches.len(), 1);
        // a variable root cannot be narrowed: every class is a candidate
        let pv: Pattern<Arith> = "?a".parse().unwrap();
        let (_, all) = pv.search_with_stats(&eg);
        assert_eq!(all, eg.number_of_classes());
        // a head that occurs nowhere proposes nothing
        let pm: Pattern<Arith> = "(* (* ?a ?b) ?c)".parse().unwrap();
        let (none, multiplies) = pm.search_with_stats(&eg);
        assert_eq!(multiplies, 1, "one class holds a `*` node");
        assert!(none.is_empty());
    }

    #[test]
    fn index_stays_consistent_across_union_rebuild() {
        let mut eg = EG::default();
        let a = add_str(&mut eg, "(+ x y)");
        let b = add_str(&mut eg, "(* x y)");
        let p: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
        eg.rebuild();
        assert_eq!(p.search(&eg).len(), 1);
        // merging the + class into the * class must leave the + head
        // discoverable under the merged class id
        eg.union(a, b);
        eg.rebuild();
        let m = p.search(&eg);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].eclass, eg.find(a));
        assert_eq!(m[0].eclass, eg.find(b));
        eg.check_invariants();
    }
}
