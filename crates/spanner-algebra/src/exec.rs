//! The physical operator executor: one Volcano-style pipeline behind every
//! evaluation path.
//!
//! Before this module existed the workspace had three divergent ways of
//! evaluating an RA tree on a document: the recursive ad-hoc compilation of
//! `evaluate_ra`, `CompiledPlan`'s per-document automaton *recomposition*
//! for dynamic (difference / black-box) nodes, and the static-only
//! `PlanStream`. They are now one layer:
//!
//! * [`PhysOp`] is the physical operator tree. Leaves are
//!   [`PhysOp::CompiledScan`] (a static RA subtree compiled **once** into a
//!   shared [`CompiledVsa`], enumerated with polynomial delay — Theorem 5.2)
//!   and [`PhysOp::BlackBoxScan`] (a Corollary 5.3 black box). Inner nodes
//!   are relational operators over mapping streams:
//!   [`PhysOp::HashJoin`], [`PhysOp::UnionAll`] (with set-semantics dedup),
//!   [`PhysOp::Difference`] (an anti-join over a materialized probe side —
//!   no per-document `Vsa` recomposition), and [`PhysOp::Project`].
//! * [`PhysicalPlan::lower`] obtains the operator tree of a
//!   [`CompiledPlan`]; lowering happens exactly once at plan-compile time
//!   and the operators share their automata through `Arc`, so the handle is
//!   cheap and every consumer (`evaluate_ra`, `CompiledPlan::evaluate` /
//!   `stream`, the corpus engine, `PreparedQuery`) runs through the same
//!   executor.
//! * Every operator exposes both a materializing [`PhysOp::execute`] (bulk
//!   relational evaluation — hash join, hash anti-join, builder-based union)
//!   and a pull-iterator [`PhysOp::stream`] ([`OpStream`]). A fully static
//!   plan streams straight off its compiled automaton with polynomial
//!   delay, exactly as before; plans with a difference at the root now
//!   stream too (the probe side is materialized once, the input side is
//!   enumerated lazily and filtered), which the old recomposition path
//!   could not do.
//!
//! The executor evaluates difference and black-box composition at the
//! *relation* level (the `spanner-core` operators, which are the paper's
//! semantics by definition), while static subtrees keep the paper's
//! automaton-level compilation (union / FPT join product / automaton
//! projection). The ad-hoc constructions of Section 4
//! (`difference_adhoc`, `difference_product`) remain available as library
//! functions and as the differential baseline (`compile_ra`), but no plan
//! evaluates through them anymore.

use crate::plan::CompiledPlan;
use crate::spanner::SpannerRef;
use spanner_core::{Document, FxHashSet, Mapping, MappingSet, SpannerResult, VarSet};
use spanner_enum::{enumerate_compiled, Enumerator};
use spanner_vset::{CompiledVsa, PreScan, Vsa};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Per-operator execution trace (re-exported from `spanner-obs`): one
/// [`TraceNode`](spanner_obs::TraceNode) per physical operator, produced
/// by [`PhysOp::execute_traced_bounded`].
pub use spanner_obs::TraceNode as ExecTrace;

/// A node of the physical operator tree (see the module docs).
///
/// Operators are read-only after lowering and share their compiled automata
/// through `Arc`, so a `PhysOp` tree is `Send + Sync` and cheap to clone —
/// one plan serves any number of worker threads.
#[derive(Clone)]
pub enum PhysOp {
    /// A maximal static RA subtree, compiled once into a shared automaton;
    /// enumerated per document with polynomial delay.
    CompiledScan {
        /// The construction-time automaton (kept for schema/size reporting
        /// and the empty-language fast path).
        vsa: Arc<Vsa>,
        /// The compile-once evaluation form the enumerator runs on.
        compiled: Arc<CompiledVsa>,
        /// Whether the scan fast path (prefilters + lazy-DFA boolean
        /// pre-pass) is consulted before enumeration
        /// ([`RaOptions::scan_fast_path`](crate::RaOptions)).
        fast_path: bool,
    },
    /// A tractable, degree-bounded black-box spanner (Corollary 5.3),
    /// evaluated per document through its own `eval`.
    BlackBoxScan(SpannerRef),
    /// Projection `π_keep` with set-semantics dedup.
    Project {
        /// Variables to keep.
        keep: VarSet,
        /// Input operator.
        input: Box<PhysOp>,
    },
    /// N-ary union with set-semantics dedup.
    UnionAll(Vec<PhysOp>),
    /// Natural join; the materializing path runs as a hash join on the
    /// common-variable span vector whenever both inputs bind all common
    /// variables.
    HashJoin {
        /// Probe side (streamed by [`PhysOp::stream`]).
        left: Box<PhysOp>,
        /// Build side (always materialized).
        right: Box<PhysOp>,
    },
    /// The paper's difference operator as an anti-join: the probe side is
    /// materialized once and every input mapping survives iff it is
    /// incompatible with all probe mappings. No automaton recomposition.
    Difference {
        /// Input side (streamed by [`PhysOp::stream`]).
        input: Box<PhysOp>,
        /// Probe side (always materialized).
        probe: Box<PhysOp>,
    },
}

impl PhysOp {
    /// Evaluates the operator on one document into a materialized relation,
    /// with no bound on intermediate sizes (see [`PhysOp::execute_bounded`]).
    pub fn execute(&self, doc: &Document) -> SpannerResult<MappingSet> {
        self.execute_bounded(doc, usize::MAX)
    }

    /// [`PhysOp::execute`] with a resource guard: every relation that feeds
    /// a relational operator (a dynamic operator's input or probe/build
    /// side) may hold at most `limit` mappings — the executor's counterpart
    /// of the automaton state limits of the ad-hoc pipeline
    /// (`RaOptions::max_signatures` is threaded through here by
    /// [`CompiledPlan`]). The *root* result is not bounded: like the old
    /// pipeline's final enumeration, the caller asked for it.
    pub fn execute_bounded(&self, doc: &Document, limit: usize) -> SpannerResult<MappingSet> {
        self.run::<()>(doc, limit).0
    }

    /// A zero-valued [`ExecTrace`] with the shape and labels of this plan.
    ///
    /// The traced executor attaches a skeleton for every subtree it
    /// short-circuits (a skipped join build side, a skipped difference
    /// probe side, union inputs after an error), so **every** trace of a
    /// given plan has exactly this shape — which is what lets traces from
    /// different documents and different worker shards
    /// [`merge`](ExecTrace::merge) into one aggregate.
    pub fn trace_skeleton(&self) -> ExecTrace {
        let mut node = ExecTrace::new(self.label());
        node.children = self
            .children()
            .into_iter()
            .map(PhysOp::trace_skeleton)
            .collect();
        node
    }

    /// [`PhysOp::execute_traced_bounded`] without a resource guard.
    pub fn execute_traced(&self, doc: &Document) -> (SpannerResult<MappingSet>, ExecTrace) {
        self.execute_traced_bounded(doc, usize::MAX)
    }

    /// [`PhysOp::execute_bounded`] with per-operator instrumentation.
    ///
    /// Both run the same recursion, generic over its observer: here the
    /// observer is an [`ExecTrace`], while the untraced path instantiates
    /// it with `()`, which compiles to the bare recursion. Results, errors
    /// and short-circuits are therefore identical. The trace is returned
    /// alongside the result — also on error, so a `LimitExceeded` trip is
    /// visible in the trace of the operator whose guard fired
    /// (`limit_trips`). Per node: `rows` (mappings produced), `nanos`
    /// (inclusive wall time), and operator-specific counters —
    /// `prescan_skip`/`prescan_reject`/`prescan_accept` and
    /// `bool_dfa`/`bool_nfa` on compiled scans, `build_rows`/
    /// `build_skipped` on joins, `probe_rows`/`probe_skipped` on
    /// differences.
    pub fn execute_traced_bounded(
        &self,
        doc: &Document,
        limit: usize,
    ) -> (SpannerResult<MappingSet>, ExecTrace) {
        self.run(doc, limit)
    }

    /// The one materializing recursion: evaluates this operator under a
    /// fresh observer `O` and returns the observer with the result.
    fn run<O: Observer>(&self, doc: &Document, limit: usize) -> (SpannerResult<MappingSet>, O) {
        O::around(self, |node| self.run_body(doc, limit, node))
    }

    fn run_body<O: Observer>(
        &self,
        doc: &Document,
        limit: usize,
        node: &mut O,
    ) -> SpannerResult<MappingSet> {
        match self {
            PhysOp::CompiledScan {
                vsa,
                compiled,
                fast_path,
            } => {
                if vsa.accepting_states().is_empty() {
                    node.count("prescan_skip", 1);
                    return Ok(MappingSet::new());
                }
                // The boolean pre-pass: documents with no accepting run are
                // rejected without building enumeration machinery. Exact, so
                // results are unchanged (see `spanner_vset::scan`).
                if *fast_path {
                    let verdict = compiled.prescan(doc);
                    // The pre-pass ran its boolean scan unless a static
                    // prefilter skipped first.
                    if verdict != PreScan::Skip {
                        node.bool_tier(compiled);
                    }
                    let counter = match verdict {
                        PreScan::Skip => "prescan_skip",
                        PreScan::Reject => "prescan_reject",
                        PreScan::Accept => "prescan_accept",
                    };
                    node.count(counter, 1);
                    if verdict != PreScan::Accept {
                        return Ok(MappingSet::new());
                    }
                }
                spanner_enum::evaluate_compiled(compiled, doc)
            }
            PhysOp::BlackBoxScan(s) => s.eval(doc),
            PhysOp::Project { keep, input } => Ok(input.run_input(doc, limit, node)?.project(keep)),
            PhysOp::UnionAll(inputs) => {
                let mut out = MappingSet::builder();
                for (i, op) in inputs.iter().enumerate() {
                    match op.run_input(doc, limit, node) {
                        Ok(set) => out.extend(set),
                        Err(e) => {
                            // Keep the trace shape stable past the error.
                            inputs[i + 1..].iter().for_each(|op| node.skipped(op));
                            return Err(e);
                        }
                    }
                }
                Ok(out.finish())
            }
            PhysOp::HashJoin { left, right } => {
                let sides = run_pair(left, right, BUILD_COUNTERS, doc, limit, node)?;
                Ok(match sides {
                    (left, Some(right)) => left.join(&right),
                    // ∅ ⋈ R = ∅ — the build side was skipped.
                    (left, None) => left,
                })
            }
            PhysOp::Difference { input, probe } => {
                let sides = run_pair(input, probe, PROBE_COUNTERS, doc, limit, node)?;
                Ok(match sides {
                    (input, Some(probe)) => input.anti_join(&probe),
                    // ∅ \ R = ∅ — the probe side was skipped (with the scan
                    // pre-pass this makes misses on the input side free).
                    (input, None) => input,
                })
            }
        }
    }

    /// Runs this operator as an input of `node`: attaches its observer and
    /// applies the resource guard, counting a trip on the guarding operator
    /// (`limit_trips`).
    fn run_input<O: Observer>(
        &self,
        doc: &Document,
        limit: usize,
        node: &mut O,
    ) -> SpannerResult<MappingSet> {
        let (result, child) = self.run(doc, limit);
        node.input(child);
        checked(result?, limit).inspect_err(|_| node.count("limit_trips", 1))
    }

    /// Opens a pull iterator over the operator's mappings on one document,
    /// with no bound on materialized sides (see [`PhysOp::stream_bounded`]).
    pub fn stream<'a>(&'a self, doc: &'a Document) -> SpannerResult<OpStream<'a>> {
        self.stream_bounded(doc, usize::MAX)
    }

    /// [`PhysOp::stream`] with the [`PhysOp::execute_bounded`] resource
    /// guard applied to the sides the stream materializes at open time (a
    /// join's build side, a difference's probe side).
    ///
    /// The stream is duplicate-free. A [`PhysOp::CompiledScan`] streams with
    /// polynomial delay; [`PhysOp::Difference`] and [`PhysOp::HashJoin`]
    /// materialize only their probe/build side and stream the other;
    /// [`PhysOp::Project`] and [`PhysOp::UnionAll`] stream their inputs
    /// through a dedup filter.
    pub fn stream_bounded<'a>(
        &'a self,
        doc: &'a Document,
        limit: usize,
    ) -> SpannerResult<OpStream<'a>> {
        let kind = match self {
            PhysOp::CompiledScan {
                vsa,
                compiled,
                fast_path,
            } => {
                if vsa.accepting_states().is_empty()
                    || (*fast_path && compiled.prescan(doc) != PreScan::Accept)
                {
                    StreamKind::Empty
                } else {
                    StreamKind::Scan(Box::new(enumerate_compiled(compiled, doc)?))
                }
            }
            PhysOp::BlackBoxScan(s) => StreamKind::Drain(s.eval(doc)?.into_iter()),
            PhysOp::Project { keep, input } => StreamKind::Project {
                input: Box::new(input.stream_bounded(doc, limit)?),
                keep,
                seen: FxHashSet::default(),
            },
            PhysOp::UnionAll(inputs) => StreamKind::Union {
                inputs: inputs
                    .iter()
                    .map(|op| op.stream_bounded(doc, limit))
                    .collect::<SpannerResult<Vec<_>>>()?,
                idx: 0,
                seen: FxHashSet::default(),
            },
            PhysOp::HashJoin { left, right } => {
                let probe = left.stream_bounded(doc, limit)?;
                if matches!(probe.kind, StreamKind::Empty) {
                    // ∅ ⋈ R = ∅ — skip materializing the build side.
                    StreamKind::Empty
                } else {
                    StreamKind::Join {
                        probe: Box::new(probe),
                        build: RelationIndex::new(checked(
                            right.execute_bounded(doc, limit)?,
                            limit,
                        )?),
                        pending: VecDeque::new(),
                        seen: FxHashSet::default(),
                    }
                }
            }
            PhysOp::Difference { input, probe } => {
                let input = input.stream_bounded(doc, limit)?;
                if matches!(input.kind, StreamKind::Empty) {
                    // ∅ \ R = ∅ — skip materializing the probe side.
                    StreamKind::Empty
                } else {
                    StreamKind::AntiJoin {
                        input: Box::new(input),
                        probe: RelationIndex::new(checked(
                            probe.execute_bounded(doc, limit)?,
                            limit,
                        )?),
                    }
                }
            }
        };
        Ok(OpStream { kind })
    }

    /// The operator's direct inputs.
    pub fn children(&self) -> Vec<&PhysOp> {
        match self {
            PhysOp::CompiledScan { .. } | PhysOp::BlackBoxScan(_) => Vec::new(),
            PhysOp::Project { input, .. } => vec![input],
            PhysOp::UnionAll(inputs) => inputs.iter().collect(),
            PhysOp::HashJoin { left, right } => vec![left, right],
            PhysOp::Difference { input, probe } => vec![input, probe],
        }
    }

    /// One-line label for outlines and debugging.
    pub fn label(&self) -> String {
        match self {
            PhysOp::CompiledScan { vsa, .. } => format!(
                "CompiledScan({} states, vars {{{}}})",
                vsa.state_count(),
                vsa.vars()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            PhysOp::BlackBoxScan(s) => format!("BlackBoxScan({})", s.name()),
            PhysOp::Project { keep, .. } => format!(
                "Project{{{}}}",
                keep.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            PhysOp::UnionAll(inputs) => format!("UnionAll({} inputs, dedup)", inputs.len()),
            PhysOp::HashJoin { .. } => "HashJoin".to_string(),
            PhysOp::Difference { .. } => "Difference(anti-join)".to_string(),
        }
    }

    /// Number of operators in the tree.
    pub fn operator_count(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(PhysOp::operator_count)
            .sum::<usize>()
    }

    /// Document-level boolean pre-pass for multi-document engines: returns
    /// `Some(verdict)` when the pre-pass *proves* the operator yields no
    /// mappings on `doc` ([`PreScan::Skip`] = a static prefilter fired
    /// without scanning a state, [`PreScan::Reject`] = a boolean scan ran
    /// and rejected), or `None` when the document must be evaluated. The
    /// proof composes through the relational operators (`∅ \ R`, `∅ ⋈ R`
    /// and `π(∅)` are empty; a union is empty iff all inputs are) and only
    /// consults scans with the fast path enabled, so it returns `None`
    /// everywhere when [`RaOptions::scan_fast_path`](crate::RaOptions) is
    /// off.
    pub fn prescan_reject(&self, doc: &Document) -> Option<PreScan> {
        match self {
            PhysOp::CompiledScan {
                vsa,
                compiled,
                fast_path,
            } => {
                if !*fast_path {
                    return None;
                }
                if vsa.accepting_states().is_empty() {
                    return Some(PreScan::Skip);
                }
                match compiled.prescan(doc) {
                    PreScan::Accept => None,
                    verdict => Some(verdict),
                }
            }
            PhysOp::BlackBoxScan(_) => None,
            PhysOp::Project { input, .. } => input.prescan_reject(doc),
            PhysOp::UnionAll(inputs) => {
                // Empty iff every input is provably empty; report Reject if
                // any input needed an actual scan to prove it.
                let mut verdict = PreScan::Skip;
                for op in inputs {
                    if op.prescan_reject(doc)? == PreScan::Reject {
                        verdict = PreScan::Reject;
                    }
                }
                Some(verdict)
            }
            PhysOp::HashJoin { left, right } => left
                .prescan_reject(doc)
                .or_else(|| right.prescan_reject(doc)),
            PhysOp::Difference { input, .. } => input.prescan_reject(doc),
        }
    }

    /// Byte strings that every document with a *non-empty* result must
    /// contain as a factor — the document-independent counterpart of
    /// [`PhysOp::prescan_reject`], consumed by corpus-level indexes to
    /// prune documents without visiting them. The proof composes the same
    /// way: a join result needs both sides non-empty (union of the sides'
    /// literals), a union result needs some input non-empty (a literal
    /// survives only if *every* input requires it — witnessed by an
    /// extracted literal containing it), difference and projection are
    /// bounded by their input, and a black-box scan constrains nothing.
    /// Unlike the pre-pass this is pure static analysis, sound for any
    /// `scan_fast_path` setting. An empty set means "no constraint".
    pub fn required_literals(&self) -> Vec<Vec<u8>> {
        let mut literals = match self {
            PhysOp::CompiledScan { compiled, .. } => {
                compiled.scan_plan().required_literals().to_vec()
            }
            PhysOp::BlackBoxScan(_) => Vec::new(),
            PhysOp::Project { input, .. } => input.required_literals(),
            PhysOp::UnionAll(inputs) => {
                let sets: Vec<Vec<Vec<u8>>> =
                    inputs.iter().map(PhysOp::required_literals).collect();
                if sets.iter().any(Vec::is_empty) {
                    // One unconstrained branch makes the union unconstrained.
                    return Vec::new();
                }
                // A literal is required by the union iff every branch
                // requires it; a branch requiring a superstring requires
                // every factor of it.
                let mut candidates: Vec<Vec<u8>> = sets.concat();
                candidates.retain(|l| sets.iter().all(|s| s.iter().any(|k| contains_factor(k, l))));
                candidates
            }
            PhysOp::HashJoin { left, right } => {
                let mut literals = left.required_literals();
                literals.extend(right.required_literals());
                literals
            }
            PhysOp::Difference { input, .. } => input.required_literals(),
        };
        dedup_subsumed(&mut literals);
        literals
    }
}

/// Whether `needle` occurs in `haystack` as a contiguous factor.
fn contains_factor(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Keeps the longest literals, dropping duplicates and literals occurring
/// inside a kept one (they constrain nothing extra).
fn dedup_subsumed(literals: &mut Vec<Vec<u8>>) {
    literals.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let mut kept: Vec<Vec<u8>> = Vec::new();
    for lit in literals.drain(..) {
        if !kept.iter().any(|k| contains_factor(k, &lit)) {
            kept.push(lit);
        }
    }
    *literals = kept;
}

impl fmt::Debug for PhysOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The lowered, executable form of a [`CompiledPlan`]: a shared physical
/// operator tree (see the module docs).
#[derive(Clone)]
pub struct PhysicalPlan {
    root: Arc<PhysOp>,
    /// Resource guard: maximum size of any relation feeding a relational
    /// operator (see [`PhysOp::execute_bounded`]).
    max_intermediate: usize,
}

impl PhysicalPlan {
    pub(crate) fn with_limit(root: PhysOp, max_intermediate: usize) -> PhysicalPlan {
        PhysicalPlan {
            root: Arc::new(root),
            max_intermediate,
        }
    }

    /// The lowering step from the compiled logical plan to the physical
    /// operator tree.
    ///
    /// Lowering itself runs exactly once, inside [`CompiledPlan::compile`]
    /// (every static subtree is compiled to its shared automaton there);
    /// this accessor hands out the shared operator tree, so it is cheap and
    /// can be called per consumer.
    pub fn lower(plan: &CompiledPlan) -> PhysicalPlan {
        plan.physical().clone()
    }

    /// The root operator.
    pub fn root(&self) -> &PhysOp {
        &self.root
    }

    /// Whether the whole plan lowered to a single compiled scan (no
    /// per-document composition work at all).
    pub fn is_fully_compiled(&self) -> bool {
        matches!(*self.root, PhysOp::CompiledScan { .. })
    }

    /// Number of physical operators.
    pub fn operator_count(&self) -> usize {
        self.root.operator_count()
    }

    /// Evaluates the plan on one document into a materialized relation
    /// (intermediate relations bounded by the plan's resource guard).
    pub fn execute(&self, doc: &Document) -> SpannerResult<MappingSet> {
        self.root.execute_bounded(doc, self.max_intermediate)
    }

    /// [`PhysicalPlan::execute`] with per-operator instrumentation (see
    /// [`PhysOp::execute_traced_bounded`]). Both run one recursion, generic
    /// over its observer; untraced execution instantiates the no-op
    /// observer, which compiles away, so it pays nothing for tracing.
    pub fn execute_traced(&self, doc: &Document) -> (SpannerResult<MappingSet>, ExecTrace) {
        self.root.execute_traced_bounded(doc, self.max_intermediate)
    }

    /// A zero-valued trace with this plan's shape
    /// (see [`PhysOp::trace_skeleton`]).
    pub fn trace_skeleton(&self) -> ExecTrace {
        self.root.trace_skeleton()
    }

    /// Opens a pull iterator over the plan's mappings on one document
    /// (materialized sides bounded by the plan's resource guard).
    pub fn stream<'a>(&'a self, doc: &'a Document) -> SpannerResult<OpStream<'a>> {
        self.root.stream_bounded(doc, self.max_intermediate)
    }

    /// The document-level pre-pass of the root operator
    /// (see [`PhysOp::prescan_reject`]).
    pub fn prescan_reject(&self, doc: &Document) -> Option<PreScan> {
        self.root.prescan_reject(doc)
    }

    /// The root operator's required literals
    /// (see [`PhysOp::required_literals`]).
    pub fn required_literals(&self) -> Vec<Vec<u8>> {
        self.root.required_literals()
    }

    /// Renders the operator tree as an indented multi-line outline (the
    /// physical half of the query-language `explain` output).
    pub fn describe(&self) -> String {
        fn walk(op: &PhysOp, prefix: &str, out: &mut String) {
            let children = op.children();
            for (i, child) in children.iter().enumerate() {
                let last = i + 1 == children.len();
                out.push('\n');
                out.push_str(prefix);
                out.push_str(if last { "└─ " } else { "├─ " });
                out.push_str(&child.label());
                let extended = format!("{prefix}{}", if last { "   " } else { "│  " });
                walk(child, &extended, out);
            }
        }
        let mut out = self.root.label();
        walk(&self.root, "", &mut out);
        out
    }
}

impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// Enforces the intermediate-relation resource guard of
/// [`PhysOp::execute_bounded`].
fn checked(set: MappingSet, limit: usize) -> SpannerResult<MappingSet> {
    if set.len() > limit {
        return Err(spanner_core::SpannerError::LimitExceeded {
            what: "executor intermediate relation",
            limit,
            actual: set.len(),
        });
    }
    Ok(set)
}

/// The second-side row and skip counters of a join (its build side) and of
/// a difference (its probe side).
const BUILD_COUNTERS: [&str; 2] = ["build_rows", "build_skipped"];
const PROBE_COUNTERS: [&str; 2] = ["probe_rows", "probe_skipped"];

/// Runs the two inputs of a join or difference as inputs of `node`: the
/// second one only when the first came back non-empty (`∅ ⋈ R = ∅ \ R =
/// ∅`). `rows` and `skipped` name the second side's row counter and skip
/// counter. Returns the first relation and the second, or `None` when the
/// second side was skipped.
fn run_pair<O: Observer>(
    first: &PhysOp,
    second: &PhysOp,
    [rows, skipped]: [&str; 2],
    doc: &Document,
    limit: usize,
    node: &mut O,
) -> SpannerResult<(MappingSet, Option<MappingSet>)> {
    let first = match first.run_input(doc, limit, node) {
        Ok(set) if !set.is_empty() => set,
        outcome => {
            if outcome.is_ok() {
                node.count(skipped, 1);
            }
            node.skipped(second);
            return outcome.map(|empty| (empty, None));
        }
    };
    let second = second.run_input(doc, limit, node)?;
    node.count(rows, second.len() as u64);
    Ok((first, Some(second)))
}

/// What the materializing recursion reports about each operator it runs.
///
/// `()` observes nothing: every method is an empty body, so the recursion
/// instantiated with it has no clock reads, no skeleton traces and no
/// automaton probes. [`ExecTrace`] records one trace node per operator.
trait Observer: Sized {
    /// Runs one operator's `body` under a fresh observer for that operator.
    fn around(
        op: &PhysOp,
        body: impl FnOnce(&mut Self) -> SpannerResult<MappingSet>,
    ) -> (SpannerResult<MappingSet>, Self);
    /// Adds `value` to the operator's named counter.
    fn count(&mut self, counter: &str, value: u64);
    /// Attaches the observer of an input that ran.
    fn input(&mut self, child: Self);
    /// Attaches a zero-valued stand-in for an input that was short-circuited.
    fn skipped(&mut self, op: &PhysOp);
    /// Records which boolean tier answered a scan's pre-pass.
    fn bool_tier(&mut self, compiled: &CompiledVsa);
}

impl Observer for () {
    fn around(
        _: &PhysOp,
        body: impl FnOnce(&mut ()) -> SpannerResult<MappingSet>,
    ) -> (SpannerResult<MappingSet>, ()) {
        (body(&mut ()), ())
    }
    fn count(&mut self, _: &str, _: u64) {}
    fn input(&mut self, _: ()) {}
    fn skipped(&mut self, _: &PhysOp) {}
    fn bool_tier(&mut self, _: &CompiledVsa) {}
}

impl Observer for ExecTrace {
    fn around(
        op: &PhysOp,
        body: impl FnOnce(&mut ExecTrace) -> SpannerResult<MappingSet>,
    ) -> (SpannerResult<MappingSet>, ExecTrace) {
        let start = Instant::now();
        let mut node = ExecTrace::new(op.label());
        let result = body(&mut node);
        if let Ok(set) = &result {
            node.rows = set.len() as u64;
        }
        node.observe_elapsed(start.elapsed());
        (result, node)
    }
    fn count(&mut self, counter: &str, value: u64) {
        self.add(counter, value);
    }
    fn input(&mut self, child: ExecTrace) {
        self.children.push(child);
    }
    fn skipped(&mut self, op: &PhysOp) {
        self.children.push(op.trace_skeleton());
    }
    fn bool_tier(&mut self, compiled: &CompiledVsa) {
        // `dfa_states` is the non-forcing probe, so recording never builds
        // machinery the untraced path would not.
        match compiled.scan_plan().dfa_states() {
            Some(Some(_)) => self.add("bool_dfa", 1),
            Some(None) => self.add("bool_nfa", 1),
            None => {}
        }
    }
}

/// A materialized relation with lazily-built hash indexes for compatibility
/// lookups, keyed by the *overlap* — the variables a streamed mapping
/// shares with the relation's active domain.
///
/// Two mappings are compatible iff they agree on their common variables;
/// when every indexed mapping binds all of a given overlap set, agreement
/// reduces to equality of the overlap's span vector, so the lookup is one
/// hash probe (the streaming counterpart of the `MappingSet::join` /
/// `anti_join` fast paths). Overlaps where some mapping misses a variable
/// fall back to the wildcard-correct linear scan. One index is built per
/// distinct overlap set encountered, each in one pass over the relation.
struct RelationIndex {
    mappings: Vec<Mapping>,
    /// Active domain of the relation (union of all mapping domains).
    domain: VarSet,
    /// Per overlap set: a span-vector index, or `None` when some mapping
    /// misses an overlap variable (scan fallback).
    by_overlap: spanner_core::FxHashMap<VarSet, Option<OverlapIndex>>,
}

type OverlapIndex = spanner_core::FxHashMap<Vec<spanner_core::Span>, Vec<u32>>;

impl RelationIndex {
    fn new(set: MappingSet) -> RelationIndex {
        RelationIndex {
            domain: set.active_domain(),
            mappings: set.into_iter().collect(),
            by_overlap: spanner_core::FxHashMap::default(),
        }
    }

    fn overlap_with(&self, m: &Mapping) -> VarSet {
        m.domain().intersection(&self.domain)
    }

    /// Builds (once) and returns the index for `overlap`, or `None` when
    /// hashing is unsound for it.
    fn index_for(&mut self, overlap: &VarSet) -> Option<&OverlapIndex> {
        let mappings = &self.mappings;
        self.by_overlap
            .entry(overlap.clone())
            .or_insert_with(|| {
                let total = mappings
                    .iter()
                    .all(|b| overlap.iter().all(|v| b.contains(v)));
                total.then(|| {
                    let mut idx = OverlapIndex::default();
                    for (i, b) in mappings.iter().enumerate() {
                        let key: Vec<spanner_core::Span> = overlap
                            .iter()
                            .map(|v| b.get(v).expect("checked total"))
                            .collect();
                        idx.entry(key).or_default().push(i as u32);
                    }
                    idx
                })
            })
            .as_ref()
    }

    /// Whether some mapping of the relation is compatible with `m`.
    fn has_compatible(&mut self, m: &Mapping) -> bool {
        let overlap = self.overlap_with(m);
        let key: Vec<spanner_core::Span> = overlap
            .iter()
            .map(|v| m.get(v).expect("overlap ⊆ dom(m)"))
            .collect();
        if self.index_for(&overlap).is_some() {
            let idx = self.by_overlap[&overlap].as_ref().expect("just built");
            idx.contains_key(&key)
        } else {
            self.mappings.iter().any(|b| m.is_compatible_with(b))
        }
    }

    /// Pushes the union of `m` with every compatible mapping through `emit`.
    fn for_each_join(&mut self, m: &Mapping, mut emit: impl FnMut(Mapping)) {
        let overlap = self.overlap_with(m);
        let key: Vec<spanner_core::Span> = overlap
            .iter()
            .map(|v| m.get(v).expect("overlap ⊆ dom(m)"))
            .collect();
        if self.index_for(&overlap).is_some() {
            let idx = self.by_overlap[&overlap].as_ref().expect("just built");
            if let Some(matches) = idx.get(&key) {
                for &i in matches {
                    let u = m
                        .union(&self.mappings[i as usize])
                        .expect("indexed mappings agree on the whole overlap");
                    emit(u);
                }
            }
        } else {
            for b in &self.mappings {
                if let Some(u) = m.union(b) {
                    emit(u);
                }
            }
        }
    }
}

/// A pull iterator over one operator's mappings (the item type matches the
/// polynomial-delay [`Enumerator`]): duplicate-free, fused after the first
/// error.
pub struct OpStream<'a> {
    kind: StreamKind<'a>,
}

enum StreamKind<'a> {
    /// The operator provably produces nothing on this document.
    Empty,
    /// Lazy polynomial-delay enumeration off a shared compiled automaton.
    Scan(Box<Enumerator<'a>>),
    /// Drains a relation that was materialized when the stream opened.
    Drain(<MappingSet as IntoIterator>::IntoIter),
    /// Restricts the input stream, deduplicating collapsed mappings.
    Project {
        input: Box<OpStream<'a>>,
        keep: &'a VarSet,
        seen: FxHashSet<Mapping>,
    },
    /// Chains the input streams, deduplicating across them.
    Union {
        inputs: Vec<OpStream<'a>>,
        idx: usize,
        seen: FxHashSet<Mapping>,
    },
    /// Streams the probe side against a materialized, hash-indexed build
    /// side.
    Join {
        probe: Box<OpStream<'a>>,
        build: RelationIndex,
        pending: VecDeque<Mapping>,
        seen: FxHashSet<Mapping>,
    },
    /// Streams the input side, dropping every mapping compatible with some
    /// mapping of the materialized, hash-indexed probe side.
    AntiJoin {
        input: Box<OpStream<'a>>,
        probe: RelationIndex,
    },
}

impl OpStream<'_> {
    fn advance(&mut self) -> Option<SpannerResult<Mapping>> {
        match &mut self.kind {
            StreamKind::Empty => None,
            StreamKind::Scan(e) => e.next(),
            StreamKind::Drain(iter) => iter.next().map(Ok),
            StreamKind::Project { input, keep, seen } => loop {
                match input.next() {
                    None => return None,
                    Some(Err(e)) => return Some(Err(e)),
                    Some(Ok(m)) => {
                        let restricted = m.restrict(keep);
                        if seen.insert(restricted.clone()) {
                            return Some(Ok(restricted));
                        }
                    }
                }
            },
            StreamKind::Union { inputs, idx, seen } => {
                while *idx < inputs.len() {
                    match inputs[*idx].next() {
                        None => *idx += 1,
                        Some(Err(e)) => return Some(Err(e)),
                        Some(Ok(m)) => {
                            if seen.insert(m.clone()) {
                                return Some(Ok(m));
                            }
                        }
                    }
                }
                None
            }
            StreamKind::Join {
                probe,
                build,
                pending,
                seen,
            } => loop {
                if let Some(m) = pending.pop_front() {
                    return Some(Ok(m));
                }
                match probe.next() {
                    None => return None,
                    Some(Err(e)) => return Some(Err(e)),
                    Some(Ok(m1)) => {
                        build.for_each_join(&m1, |u| {
                            if seen.insert(u.clone()) {
                                pending.push_back(u);
                            }
                        });
                    }
                }
            },
            StreamKind::AntiJoin { input, probe } => loop {
                match input.next() {
                    None => return None,
                    Some(Err(e)) => return Some(Err(e)),
                    Some(Ok(m1)) => {
                        if !probe.has_compatible(&m1) {
                            return Some(Ok(m1));
                        }
                    }
                }
            },
        }
    }
}

impl Iterator for OpStream<'_> {
    type Item = SpannerResult<Mapping>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.advance();
        if matches!(item, Some(Err(_))) {
            // Fuse after an error: the underlying state may be inconsistent.
            self.kind = StreamKind::Empty;
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::TokenizerSpanner;
    use crate::ratree::{evaluate_ra_materialized, Instantiation, RaOptions, RaTree};
    use spanner_rgx::parse;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn physical_plan_is_send_and_sync() {
        assert_send_sync::<PhysOp>();
        assert_send_sync::<PhysicalPlan>();
    }

    fn lower(tree: &RaTree, inst: &Instantiation) -> PhysicalPlan {
        let plan = CompiledPlan::compile(tree, inst, RaOptions::default()).unwrap();
        PhysicalPlan::lower(&plan)
    }

    #[test]
    fn static_tree_lowers_to_one_compiled_scan() {
        let tree = RaTree::project(
            VarSet::from_iter(["x"]),
            RaTree::union(RaTree::leaf(0), RaTree::leaf(1)),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}{y:b*}").unwrap())
            .with(1, parse("{y:a*}{x:b+}").unwrap());
        let physical = lower(&tree, &inst);
        assert!(physical.is_fully_compiled());
        assert_eq!(physical.operator_count(), 1);
        assert!(physical.describe().starts_with("CompiledScan("));
    }

    #[test]
    fn difference_lowers_to_anti_join_over_compiled_scans() {
        let tree = RaTree::difference(
            RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
            RaTree::leaf(2),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}b*").unwrap())
            .with(1, parse("{x:a+}{y:b*}").unwrap())
            .with(2, parse("{x:a}b").unwrap());
        let physical = lower(&tree, &inst);
        assert!(!physical.is_fully_compiled());
        // The static join collapsed into one compiled scan; the difference
        // is a physical anti-join over two scans, not a recomposed Vsa.
        assert_eq!(physical.operator_count(), 3);
        let outline = physical.describe();
        assert!(outline.starts_with("Difference(anti-join)"), "{outline}");
        assert_eq!(outline.matches("CompiledScan(").count(), 2, "{outline}");
        for text in ["ab", "aab", "a", ""] {
            let doc = Document::new(text);
            assert_eq!(
                physical.execute(&doc).unwrap(),
                evaluate_ra_materialized(&tree, &inst, &doc).unwrap(),
                "text {text:?}"
            );
        }
    }

    #[test]
    fn black_box_lowers_to_a_scan_operator() {
        let tree = RaTree::union(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(r"{t:\l+}").unwrap())
            .with_black_box(1, TokenizerSpanner::new("t"));
        let physical = lower(&tree, &inst);
        let outline = physical.describe();
        assert!(outline.contains("UnionAll(2 inputs, dedup)"), "{outline}");
        assert!(outline.contains("BlackBoxScan(tokenize(t))"), "{outline}");
    }

    #[test]
    fn streams_are_duplicate_free_and_match_execute() {
        // A projection over a union whose operands overlap heavily: the
        // stream must dedup both across union inputs and across collapsed
        // projections.
        let tree = RaTree::project(
            VarSet::from_iter(["x"]),
            RaTree::union(
                RaTree::difference(RaTree::leaf(0), RaTree::leaf(2)),
                RaTree::difference(RaTree::leaf(1), RaTree::leaf(2)),
            ),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}{y:b*}").unwrap())
            .with(1, parse("{x:a+}{z:b*}").unwrap())
            .with(2, parse("{x:aa}bb").unwrap());
        let physical = lower(&tree, &inst);
        for text in ["aabb", "aab", "ab", ""] {
            let doc = Document::new(text);
            let streamed: Vec<Mapping> = physical
                .stream(&doc)
                .unwrap()
                .collect::<SpannerResult<_>>()
                .unwrap();
            let unique: MappingSet = streamed.iter().cloned().collect();
            assert_eq!(streamed.len(), unique.len(), "duplicates on {text:?}");
            assert_eq!(unique, physical.execute(&doc).unwrap(), "on {text:?}");
        }
    }

    #[test]
    fn intermediate_relation_limit_is_enforced() {
        // On "abcd" the left scan yields all 15 subspan mappings — past a
        // tight `max_signatures`, both evaluate and stream must fail fast
        // with a limit error instead of materializing unbounded inputs.
        let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(".*{x:.*}.*").unwrap())
            .with(1, parse("{x:zz}").unwrap());
        let tight = RaOptions {
            max_signatures: 3,
            ..RaOptions::default()
        };
        let plan = CompiledPlan::compile(&tree, &inst, tight).unwrap();
        let doc = Document::new("abcd");
        let err = plan.evaluate(&doc).unwrap_err();
        assert!(
            matches!(err, spanner_core::SpannerError::LimitExceeded { .. }),
            "{err}"
        );
        // A difference root only materializes its probe side (0 mappings
        // here, under the limit); the input side streams lazily, so the
        // stream opens and drains fine — the guard bounds materialization,
        // not lazy enumeration.
        assert!(plan.stream(&doc).is_ok());
        // A join build side past the limit fails at stream open.
        let join_tree = RaTree::join(
            RaTree::difference(RaTree::leaf(0), RaTree::leaf(1)),
            RaTree::leaf(0),
        );
        let join_plan = CompiledPlan::compile(&join_tree, &inst, tight).unwrap();
        assert!(join_plan.evaluate(&doc).is_err());
        assert!(join_plan.stream(&doc).is_err());
        // The default limit is far away: the same plans evaluate fine.
        let plan = CompiledPlan::compile(&join_tree, &inst, RaOptions::default()).unwrap();
        assert!(plan.evaluate(&doc).is_ok());
    }

    #[test]
    fn traced_execution_matches_untraced_and_keeps_shape() {
        let tree = RaTree::project(
            VarSet::from_iter(["x"]),
            RaTree::difference(
                RaTree::join(RaTree::leaf(0), RaTree::leaf(1)),
                RaTree::leaf(2),
            ),
        );
        let inst = Instantiation::new()
            .with(0, parse("{x:a+}b*").unwrap())
            .with(1, parse("{x:a+}{y:b*}").unwrap())
            .with(2, parse("{x:aa}").unwrap());
        let physical = lower(&tree, &inst);
        let skeleton = physical.trace_skeleton();
        let mut merged = physical.trace_skeleton();
        for text in ["ab", "aab", "a", "", "zzz"] {
            let doc = Document::new(text);
            let (traced, trace) = physical.execute_traced(&doc);
            assert_eq!(
                traced.unwrap(),
                physical.execute(&doc).unwrap(),
                "traced result differs on {text:?}"
            );
            // Shape (labels + child arity) is data-independent: the trace of
            // a skipped document merges cleanly with a fully-evaluated one.
            merged.merge(&trace);
            assert_eq!(trace.label, skeleton.label, "on {text:?}");
        }
        assert_eq!(merged.label, skeleton.label);
        // "zzz" and "" must have been pruned or rejected by the scan
        // pre-pass somewhere in the tree; "aab" survives to enumeration.
        let flat = merged.render();
        assert!(flat.contains("prescan_accept"), "{flat}");
        assert!(merged.total_rows() > 0 && flat.contains("rows="), "{flat}");
    }

    #[test]
    fn traced_execution_records_prescan_and_limit_counters() {
        // Difference with a tight limit: the input side yields 15 mappings
        // on "abcd" (> 3), so the guard trips on the Difference node and
        // the trace says so — while the result is the same error as the
        // untraced path.
        let tree = RaTree::difference(RaTree::leaf(0), RaTree::leaf(1));
        let inst = Instantiation::new()
            .with(0, parse(".*{x:.*}.*").unwrap())
            .with(1, parse("{x:zz}").unwrap());
        let tight = RaOptions {
            max_signatures: 3,
            ..RaOptions::default()
        };
        let plan = CompiledPlan::compile(&tree, &inst, tight).unwrap();
        let doc = Document::new("abcd");
        let (result, trace) = plan.evaluate_traced(&doc);
        assert!(matches!(
            result,
            Err(spanner_core::SpannerError::LimitExceeded { .. })
        ));
        assert_eq!(trace.counter("limit_trips"), 1, "{}", trace.render());
        assert_eq!(
            trace.children.len(),
            2,
            "skeleton keeps the skipped probe side: {}",
            trace.render()
        );
        // A scan that the pre-pass rejects reports the verdict and which
        // boolean tier answered.
        let miss = Instantiation::new().with(0, parse("q{x:a+}").unwrap());
        let physical = lower(&RaTree::leaf(0), &miss);
        let (result, trace) = physical.execute_traced(&Document::new("aaa"));
        assert!(result.unwrap().is_empty());
        assert_eq!(
            trace.counter("prescan_skip") + trace.counter("prescan_reject"),
            1,
            "{}",
            trace.render()
        );
    }

    #[test]
    fn stream_errors_fuse_the_iterator() {
        // A plan over more variables than the enumerator supports fails at
        // stream-open time with a clean error.
        let mut parts = Vec::new();
        for i in 0..=spanner_enum::MAX_VARS {
            parts.push(format!("{{v{i:02}:a?}}"));
        }
        let inst = Instantiation::new().with(0, parse(&parts.concat()).unwrap());
        let physical = lower(&RaTree::leaf(0), &inst);
        let doc = Document::new("aaa");
        assert!(physical.stream(&doc).is_err());
        assert!(physical.execute(&doc).is_err());
    }
}
