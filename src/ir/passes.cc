#include "src/ir/passes.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/dataflow.h"
#include "src/ir/verify.h"

namespace bagalg::ir {

namespace {

PassMutation g_mutation = PassMutation::kNone;

/// True iff every top-level column reference of both filter programs can be
/// remapped through the gather list `g` (i.e. the filter can move below a
/// gather projection).
bool CanRemapThrough(const RowProgram& program,
                     const std::vector<size_t>& gather) {
  const auto refs = program.ColumnRefs();
  if (!refs.has_value()) return false;
  for (size_t c : *refs) {
    if (c < 1 || c > gather.size()) return false;
  }
  return true;
}

/// Pass 1: bubble filters towards the front of a node's stage list. A
/// filter commutes with another filter trivially, and with a gather-shaped
/// projection by remapping its column references through the gather —
/// filter(f) ∘ project(g) ≡ project(g) ∘ filter(f∘g) on every row, counts
/// untouched.
void ReorderStages(IrNode* node, PassStats* stats) {
  auto& stages = node->stages;
  if (g_mutation == PassMutation::kDropFilterDuringReorder) {
    // Mutation: "move" a filter past a gather by deleting it.
    for (size_t i = 1; i < stages.size(); ++i) {
      if (stages[i].kind == StageKind::kFilter &&
          stages[i - 1].kind == StageKind::kProject &&
          stages[i - 1].program.Gather().has_value()) {
        stages.erase(stages.begin() + static_cast<std::ptrdiff_t>(i));
        stats->filters_pushed++;
        return;
      }
    }
  }
  for (size_t i = 1; i < stages.size(); ++i) {
    if (stages[i].kind != StageKind::kFilter) continue;
    size_t j = i;
    bool moved = false;
    while (j > 0) {
      Stage& prev = stages[j - 1];
      if (prev.kind == StageKind::kFilter) break;  // already a filter prefix
      const auto& gather = prev.program.Gather();
      if (!gather.has_value() ||
          !CanRemapThrough(stages[j].program, *gather) ||
          !CanRemapThrough(stages[j].rhs, *gather)) {
        break;
      }
      std::vector<size_t> remap = *gather;
      if (g_mutation == PassMutation::kWrongGatherRemap && remap.size() > 1) {
        // Mutation: remap through a rotated gather list.
        std::rotate(remap.begin(), remap.begin() + 1, remap.end());
      }
      stages[j].program.RemapColumns(remap);
      stages[j].rhs.RemapColumns(remap);
      std::swap(stages[j - 1], stages[j]);
      --j;
      moved = true;
    }
    if (moved) stats->filters_pushed++;
  }
}

/// Pass 2: stages on a union distribute over its inputs, letting each
/// child fuse them into its own pipeline. Sound because ⊎ concatenates
/// streams and stages are per-row.
void PushIntoUnion(IrNode* node, PassStats* stats) {
  if (node->stages.empty()) return;
  for (const Stage& stage : node->stages) {
    if (stage.kind == StageKind::kFilter) {
      stats->filters_pushed++;
    } else {
      stats->projections_pushed++;
    }
  }
  for (auto& child : node->children) {
    for (const Stage& stage : node->stages) {
      child->stages.push_back(stage);
    }
  }
  node->stages.clear();
  if (g_mutation == PassMutation::kUnionPushdownDropsChild &&
      node->children.size() > 1) {
    // Mutation: lose the last input while distributing.
    node->children.pop_back();
  }
}

/// Pass 3: a leading filter over a cross join whose column references all
/// fall on one side moves into that side. Build-side programs shift left
/// by the probe arity. Sound over bags: dropping a (row, count) pair before
/// the product drops exactly the joined pairs the post-product filter
/// would have dropped, and surviving counts are untouched.
void PushJoinSideFilters(IrNode* node, PassStats* stats) {
  auto& stages = node->stages;
  size_t i = 0;
  while (i < stages.size() && stages[i].kind == StageKind::kFilter) {
    Stage& stage = stages[i];
    const auto lrefs = stage.program.ColumnRefs();
    const auto rrefs = stage.rhs.ColumnRefs();
    if (!lrefs.has_value() || !rrefs.has_value()) {
      ++i;
      continue;
    }
    std::vector<size_t> refs = *lrefs;
    refs.insert(refs.end(), rrefs->begin(), rrefs->end());
    bool all_probe = true;
    bool all_build = true;
    for (size_t c : refs) {
      if (c > node->probe_arity) all_probe = false;
      if (c <= node->probe_arity) all_build = false;
    }
    if (all_probe && !refs.empty()) {
      node->children[0]->stages.push_back(std::move(stage));
      stages.erase(stages.begin() + static_cast<std::ptrdiff_t>(i));
      stats->filters_pushed++;
      continue;
    }
    if (all_build && !refs.empty()) {
      if (g_mutation != PassMutation::kNoShiftOnBuildPushdown) {
        stage.program.ShiftColumns(node->probe_arity);
        stage.rhs.ShiftColumns(node->probe_arity);
      }
      node->children[1]->stages.push_back(std::move(stage));
      stages.erase(stages.begin() + static_cast<std::ptrdiff_t>(i));
      stats->filters_pushed++;
      continue;
    }
    ++i;
  }
}

/// Pass 4: a leading field==field filter spanning both sides of a cross
/// join is an equi-join predicate; promote the node to kHashJoin.
void DetectHashJoin(IrNode* node, PassStats* stats) {
  if (node->stages.empty() ||
      node->stages.front().kind != StageKind::kFilter) {
    return;
  }
  const auto lf = node->stages.front().program.FieldRef();
  const auto rf = node->stages.front().rhs.FieldRef();
  if (!lf.has_value() || !rf.has_value()) return;
  const size_t arity = node->probe_arity;
  size_t probe_key = 0;
  size_t build_key = 0;
  if (*lf >= 1 && *lf <= arity && *rf > arity) {
    probe_key = *lf;
    build_key = *rf - arity;
  } else if (*rf >= 1 && *rf <= arity && *lf > arity) {
    probe_key = *rf;
    build_key = *lf - arity;
  } else {
    return;
  }
  if (g_mutation == PassMutation::kHashJoinProbeKeyOutOfBounds) {
    probe_key = arity + 5;  // Mutation: key off the end of the probe row.
  }
  if (g_mutation == PassMutation::kHashJoinWrongBuildKey) {
    build_key = build_key == 1 ? 2 : 1;  // Mutation: wrong build column.
  }
  node->kind = IrKind::kHashJoin;
  node->probe_key = probe_key;
  node->build_key = build_key;
  node->stages.erase(node->stages.begin());
  stats->hash_joins++;
}

// ------------------------------------------------------------------
// Fact-driven passes (5-7): consumers of the dataflow.h lattice.

/// Composes adjacent gather projections: project(g1) ∘ project(g2) ≡
/// project(g1[g2]) — the intermediate tuple (and any column of g1 that g2
/// never reads) disappears.
void ComposeGathers(IrNode* node, PassStats* stats) {
  auto& stages = node->stages;
  size_t i = 0;
  while (i + 1 < stages.size()) {
    if (stages[i].kind != StageKind::kProject ||
        stages[i + 1].kind != StageKind::kProject ||
        !stages[i].program.Gather().has_value() ||
        !stages[i + 1].program.Gather().has_value()) {
      ++i;
      continue;
    }
    const std::vector<size_t> g1 = *stages[i].program.Gather();
    const std::vector<size_t> g2 = *stages[i + 1].program.Gather();
    bool in_range = true;
    for (size_t c : g2) {
      if (c < 1 || c > g1.size()) {
        in_range = false;
        break;
      }
    }
    if (!in_range) {
      ++i;
      continue;
    }
    std::vector<size_t> composed(g2.size());
    for (size_t j = 0; j < g2.size(); ++j) composed[j] = g1[g2[j] - 1];
    std::vector<size_t> used = g2;
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    stats->dead_columns += g1.size() - used.size();
    stats->projections_pushed++;
    stages[i].program = RowProgram::GatherOf(composed);
    stages.erase(stages.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    // Stay on i: the composed gather may chain with the next stage too.
  }
}

/// The sorted distinct raw-source columns a stage list reads, walking the
/// demand backwards from "the consumer needs everything". nullopt when the
/// whole raw row is (or may be) needed.
std::optional<std::vector<size_t>> StageListDemand(
    const std::vector<Stage>& stages) {
  bool all = true;  // demand is "every column of the current space"
  std::vector<size_t> demand;
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    const Stage& stage = *it;
    if (stage.kind == StageKind::kFilter) {
      const auto lrefs = stage.program.ColumnRefs();
      const auto rrefs = stage.rhs.ColumnRefs();
      if (!lrefs.has_value() || !rrefs.has_value()) return std::nullopt;
      if (all) continue;  // refs are a subset of "everything"
      demand.insert(demand.end(), lrefs->begin(), lrefs->end());
      demand.insert(demand.end(), rrefs->begin(), rrefs->end());
      continue;
    }
    const RowProgram& program = stage.program;
    if (program.IsIdentity()) continue;
    if (const auto field = program.FieldRef(); field.has_value()) {
      all = false;
      demand.assign(1, *field);
      continue;
    }
    if (const auto& gather = program.Gather(); gather.has_value()) {
      if (all) {
        demand = *gather;
        all = false;
      } else {
        std::vector<size_t> translated;
        translated.reserve(demand.size());
        for (size_t d : demand) {
          if (d < 1 || d > gather->size()) return std::nullopt;
          translated.push_back((*gather)[d - 1]);
        }
        demand = std::move(translated);
      }
      continue;
    }
    const auto refs = program.ColumnRefs();
    if (!refs.has_value()) return std::nullopt;  // the row escapes
    // A general program reads exactly its refs, whatever the consumer
    // takes from its output.
    demand = *refs;
    all = false;
  }
  if (all) return std::nullopt;
  std::sort(demand.begin(), demand.end());
  demand.erase(std::unique(demand.begin(), demand.end()), demand.end());
  return demand;
}

/// Narrows one join's sides to the demanded columns: appends narrowing
/// gathers to the children, remaps the join's raw-space stage prefix, and
/// rebases probe_arity and the hash keys.
Status NarrowJoin(IrNode* node, const IrFactsMap& facts, PassStats* stats) {
  auto build_it = facts.find(node->children[1].get());
  if (build_it == facts.end() ||
      build_it->second.shape != IrFacts::Shape::kTuple) {
    return Status::Ok();  // build arity unknown: nothing provable
  }
  const size_t pa = node->probe_arity;
  const size_t ba = build_it->second.arity;
  auto demand_opt = StageListDemand(node->stages);
  if (!demand_opt.has_value()) return Status::Ok();
  std::vector<size_t> demand = *std::move(demand_opt);
  if (node->kind == IrKind::kHashJoin &&
      g_mutation != PassMutation::kDeadColumnDropsLive) {
    // The keys are read by the join itself, before any stage runs.
    demand.push_back(node->probe_key);
    demand.push_back(pa + node->build_key);
  }
  std::sort(demand.begin(), demand.end());
  demand.erase(std::unique(demand.begin(), demand.end()), demand.end());
  for (size_t c : demand) {
    if (c < 1 || c > pa + ba) {
      return Status::Internal(
          "ir verify: join stage references column " + std::to_string(c) +
          " of " + std::to_string(pa + ba) + "-column joined rows");
    }
  }
  std::vector<size_t> probe_keep;
  std::vector<size_t> build_keep;
  for (size_t c : demand) {
    if (c <= pa) {
      probe_keep.push_back(c);
    } else {
      build_keep.push_back(c - pa);
    }
  }
  if (probe_keep.size() == pa && build_keep.size() == ba) return Status::Ok();

  // Old joined column -> new joined column (0 = dead, never referenced).
  std::vector<size_t> remap(pa + ba, 0);
  for (size_t idx = 0; idx < probe_keep.size(); ++idx) {
    remap[probe_keep[idx] - 1] = idx + 1;
  }
  for (size_t idx = 0; idx < build_keep.size(); ++idx) {
    remap[pa + build_keep[idx] - 1] = probe_keep.size() + idx + 1;
  }
  // Remap the raw-space stage prefix: filters pass coordinates through;
  // the first real projection re-bases them and ends the raw space.
  for (Stage& stage : node->stages) {
    if (stage.kind == StageKind::kFilter) {
      if (!stage.program.RemapColumns(remap) ||
          !stage.rhs.RemapColumns(remap)) {
        return Status::Internal(
            "ir verify: join filter references a column outside the "
            "demand set");
      }
      continue;
    }
    if (stage.program.IsIdentity()) continue;
    if (!stage.program.RemapColumns(remap)) {
      return Status::Internal(
          "ir verify: join projection references a column outside the "
          "demand set");
    }
    break;
  }
  if (probe_keep.size() < pa) {
    Stage narrow;
    narrow.kind = StageKind::kProject;
    narrow.program = RowProgram::GatherOf(probe_keep);
    node->children[0]->stages.push_back(std::move(narrow));
    stats->dead_columns += pa - probe_keep.size();
  }
  if (build_keep.size() < ba) {
    Stage narrow;
    narrow.kind = StageKind::kProject;
    narrow.program = RowProgram::GatherOf(build_keep);
    node->children[1]->stages.push_back(std::move(narrow));
    stats->dead_columns += ba - build_keep.size();
  }
  node->probe_arity = probe_keep.size();
  if (node->kind == IrKind::kHashJoin) {
    // Rebase the keys; a key missing from the demand set (only possible
    // under the kDeadColumnDropsLive mutation) is left stale for the
    // verifier / validator to find.
    for (size_t idx = 0; idx < probe_keep.size(); ++idx) {
      if (probe_keep[idx] == node->probe_key) {
        node->probe_key = idx + 1;
        break;
      }
    }
    for (size_t idx = 0; idx < build_keep.size(); ++idx) {
      if (build_keep[idx] == node->build_key) {
        node->build_key = idx + 1;
        break;
      }
    }
  }
  return Status::Ok();
}

/// Pass 5: dead-column elimination. Top-down so a parent's narrowing
/// gathers land on the children before those are considered; the
/// pre-pass facts stay valid because stage-list edits never change any
/// *descendant's* raw output.
Status DeadColumnWalk(IrNode* node, const IrFactsMap& facts,
                      PassStats* stats) {
  ComposeGathers(node, stats);
  if (node->kind == IrKind::kCrossJoin || node->kind == IrKind::kHashJoin) {
    BAGALG_RETURN_IF_ERROR(NarrowJoin(node, facts, stats));
  }
  for (auto& child : node->children) {
    BAGALG_RETURN_IF_ERROR(DeadColumnWalk(child.get(), facts, stats));
  }
  return Status::Ok();
}

Status DeadColumnElim(IrPlan* plan) {
  BAGALG_ASSIGN_OR_RETURN(IrFactsMap facts, ComputeIrFacts(*plan));
  return DeadColumnWalk(plan->root.get(), facts, &plan->passes);
}

/// Pass 6: constant folding. Walks each node's stage list with live facts:
/// stage sides that read proven-constant columns become constants, a
/// constant==constant filter is erased (equal) or empties the pipeline
/// (unequal — no row can ever pass).
Status ConstFoldNode(IrNode* node, PassStats* stats, IrFacts* out) {
  std::vector<IrFacts> child_facts(node->children.size());
  std::vector<const IrFacts*> child_ptrs;
  child_ptrs.reserve(node->children.size());
  for (size_t i = 0; i < node->children.size(); ++i) {
    BAGALG_RETURN_IF_ERROR(
        ConstFoldNode(node->children[i].get(), stats, &child_facts[i]));
    child_ptrs.push_back(&child_facts[i]);
  }
  BAGALG_ASSIGN_OR_RETURN(IrFacts facts, NodeBaseFacts(*node, child_ptrs));
  bool provably_empty = false;
  size_t i = 0;
  while (i < node->stages.size()) {
    Stage& stage = node->stages[i];
    if (stage.kind == StageKind::kFilter) {
      const auto lfield = stage.program.FieldRef();
      if (lfield.has_value()) {
        auto it = facts.const_cols.find(*lfield);
        if (it != facts.const_cols.end()) {
          stage.program = RowProgram::Constant(it->second);
          stats->const_folds++;
        }
      }
      const auto rfield = stage.rhs.FieldRef();
      if (rfield.has_value()) {
        auto it = facts.const_cols.find(*rfield);
        if (it != facts.const_cols.end()) {
          stage.rhs = RowProgram::Constant(it->second);
          stats->const_folds++;
        }
      }
      const auto& lconst = stage.program.ConstantValue();
      const auto& rconst = stage.rhs.ConstantValue();
      if (lconst.has_value() && rconst.has_value()) {
        bool equal = *lconst == *rconst;
        if (g_mutation == PassMutation::kConstFoldInverted) equal = !equal;
        if (equal) {
          // Tautological filter: every row passes.
          node->stages.erase(node->stages.begin() +
                             static_cast<std::ptrdiff_t>(i));
          stats->const_folds++;
          continue;
        }
        provably_empty = true;  // no row ever passes
        break;
      }
    } else if (stage.kind == StageKind::kProject) {
      const auto field = stage.program.FieldRef();
      if (field.has_value()) {
        auto it = facts.const_cols.find(*field);
        if (it != facts.const_cols.end()) {
          stage.program = RowProgram::Constant(it->second);
          stats->const_folds++;
        }
      }
    }
    BAGALG_ASSIGN_OR_RETURN(facts, ApplyStageFacts(stage, facts));
    ++i;
  }
  if (provably_empty) {
    node->kind = IrKind::kScan;
    node->children.clear();
    node->stages.clear();
    node->scan_name = "empty";
    node->scan_bag = Bag();
    node->probe_arity = 0;
    node->probe_key = 0;
    node->build_key = 0;
    stats->const_folds++;
    BAGALG_ASSIGN_OR_RETURN(facts, NodeBaseFacts(*node, {}));
  }
  *out = std::move(facts);
  return Status::Ok();
}

Status ConstFold(IrPlan* plan) {
  IrFacts root_facts;
  return ConstFoldNode(plan->root.get(), &plan->passes, &root_facts);
}

/// Pass 7: ε over a provably dup-free pipeline is the identity — splice
/// the kDupElim out and hand its stages to the child. `facts` tracks the
/// splice so ancestors see the surviving node's post-stage facts.
void DropDupElims(std::unique_ptr<IrNode>* slot, IrFactsMap* facts,
                  PassStats* stats) {
  IrNode* node = slot->get();
  for (auto& child : node->children) DropDupElims(&child, facts, stats);
  if (node->kind != IrKind::kDupElim) return;
  auto child_it = facts->find(node->children[0].get());
  bool dup_free =
      child_it != facts->end() && child_it->second.dup_free;
  if (g_mutation == PassMutation::kDupElimDropUnproven) dup_free = true;
  if (!dup_free) return;
  auto node_it = facts->find(node);
  std::unique_ptr<IrNode> keep = std::move(node->children[0]);
  for (Stage& stage : node->stages) keep->stages.push_back(std::move(stage));
  // The survivor now produces what the ε-node produced (ε over dup-free
  // input is the identity), so it inherits the ε-node's post-stage facts.
  if (node_it != facts->end()) (*facts)[keep.get()] = node_it->second;
  *slot = std::move(keep);
  stats->dup_elims_removed++;
}

Status DropRedundantDupElim(IrPlan* plan) {
  BAGALG_ASSIGN_OR_RETURN(IrFactsMap facts, ComputeIrFacts(*plan));
  DropDupElims(&plan->root, &facts, &plan->passes);
  return Status::Ok();
}

// ------------------------------------------------------------------
// Pass 8: CSE marking.

/// CSE key: the node's source surface syntax plus its fused stages. The
/// pre-lowering rewriter canonicalizes equal subplans, so syntactically
/// equal keys denote equal results; including the stages distinguishes
/// occurrences that acquired different fused work from their parents.
std::string CseKeyOf(const IrNode& node) {
  if (!node.origin.IsValid()) return std::string();
  std::string key = node.origin.ToString();
  if (g_mutation == PassMutation::kCseKeyIgnoresStages) return key;
  for (const Stage& stage : node.stages) {
    key += "\x1f";
    key += stage.ToString();
  }
  return key;
}

void CollectCseCandidates(IrNode* node,
                          std::map<std::string, std::vector<IrNode*>>* seen) {
  // Scans are already shared-rep bags; caching them buys nothing.
  if (node->kind != IrKind::kScan) {
    const std::string key = CseKeyOf(*node);
    if (!key.empty()) (*seen)[key].push_back(node);
  }
  for (auto& child : node->children) CollectCseCandidates(child.get(), seen);
}

void MarkCse(IrPlan* plan) {
  std::map<std::string, std::vector<IrNode*>> seen;
  CollectCseCandidates(plan->root.get(), &seen);
  for (auto& [key, nodes] : seen) {
    if (nodes.size() < 2) continue;
    for (IrNode* node : nodes) {
      node->cse_shared = true;
      node->cse_key = key;
    }
    plan->passes.cse_nodes++;
  }
}

// ------------------------------------------------------------------
// Legality check (unchanged contract; see passes.h).

/// True iff the expression subtree contains an operator whose output can be
/// astronomically larger than its input — the same syntactic criterion
/// static_cost uses for Tractability::kExponentialTower (§3 dichotomy).
bool ContainsIntractable(const Expr& e) {
  if (!e.IsValid()) return false;
  const ExprKind kind = e.node().kind;
  if (kind == ExprKind::kPowerset || kind == ExprKind::kPowerbag) {
    return true;
  }
  for (const Expr& c : e.node().children) {
    if (ContainsIntractable(c)) return true;
  }
  return false;
}

Status CheckNode(const IrNode& node) {
  // Child arity per kind.
  size_t want_children = 0;
  switch (node.kind) {
    case IrKind::kScan:
      want_children = 0;
      break;
    case IrKind::kUnionAll:
      if (node.children.size() < 2) {
        return Status::Internal("IR union with fewer than two inputs");
      }
      want_children = node.children.size();
      break;
    case IrKind::kCrossJoin:
    case IrKind::kHashJoin:
    case IrKind::kMerge:
      want_children = 2;
      break;
    case IrKind::kDupElim:
      want_children = 1;
      break;
  }
  if (node.children.size() != want_children) {
    return Status::Internal(std::string("IR node ") + IrKindName(node.kind) +
                            " has wrong child count");
  }
  if (node.kind == IrKind::kHashJoin) {
    if (node.probe_key < 1 || node.probe_key > node.probe_arity ||
        node.build_key < 1) {
      return Status::Internal("hash join key outside its side's arity");
    }
  }
  // Fused stages are only legal over tractable producers: a materializing
  // powerset/powerbag in pipeline position must never silently stream
  // through a fused loop (it cannot lower today; this guards future
  // lowering changes — and is the same condition lint rule W005 warns
  // about at the algebra level).
  if (!node.stages.empty() && ContainsIntractable(node.origin)) {
    return Status::Unsupported(
        "powerset/powerbag below a fused pipeline is not fusible");
  }
  for (const Stage& stage : node.stages) {
    if (stage.program.insns().empty()) {
      return Status::Internal("empty stage program in IR plan");
    }
    if (stage.kind == StageKind::kFilter && stage.rhs.insns().empty()) {
      return Status::Internal("empty filter rhs program in IR plan");
    }
  }
  for (const auto& child : node.children) {
    BAGALG_RETURN_IF_ERROR(CheckNode(*child));
  }
  return Status::Ok();
}

// ------------------------------------------------------------------
// The pipeline driver.

void WalkLocal(IrNode* node, PassStats* stats,
               void (*fn)(IrNode*, PassStats*)) {
  fn(node, stats);
  for (auto& child : node->children) WalkLocal(child.get(), stats, fn);
}

IrPlan SnapshotPlan(const IrPlan& plan) {
  IrPlan snapshot;
  snapshot.root = plan.root->Clone();
  snapshot.batch_size = plan.batch_size;
  snapshot.passes = plan.passes;
  snapshot.rewrites = plan.rewrites;
  return snapshot;
}

bool SameStats(const PassStats& a, const PassStats& b) {
  return a.filters_pushed == b.filters_pushed &&
         a.projections_pushed == b.projections_pushed &&
         a.hash_joins == b.hash_joins && a.cse_nodes == b.cse_nodes &&
         a.dead_columns == b.dead_columns &&
         a.dup_elims_removed == b.dup_elims_removed &&
         a.const_folds == b.const_folds;
}

}  // namespace

void SetPassMutationForTesting(PassMutation mutation) {
  g_mutation = mutation;
}

Status RunPasses(IrPlan* plan, const PassOptions& options) {
  if (plan->root == nullptr) return Status::Ok();

  auto run_one = [plan, &options](
                     const char* name,
                     const std::function<Status(IrPlan*)>& fn) -> Status {
    IrPlan before;
    if (options.observer) before = SnapshotPlan(*plan);
    BAGALG_RETURN_IF_ERROR(fn(plan));
    if (options.verify_each) {
      Status verified = VerifyIr(*plan);
      if (!verified.ok()) {
        return Status::Internal(std::string("ir verify after pass ") + name +
                                ": " + verified.message());
      }
    }
    if (options.observer) {
      BAGALG_RETURN_IF_ERROR(options.observer(name, before, *plan));
    }
    return Status::Ok();
  };
  auto local = [](void (*fn)(IrNode*, PassStats*)) {
    return [fn](IrPlan* p) -> Status {
      WalkLocal(p->root.get(), &p->passes, fn);
      return Status::Ok();
    };
  };

  // Local rewrites to a fixpoint: each pass only counts on change, so the
  // stats stabilize exactly when the plan does. The bound is a safety rail;
  // real plans settle in two or three rounds.
  for (int round = 0; round < 8; ++round) {
    const PassStats entry = plan->passes;
    BAGALG_RETURN_IF_ERROR(
        run_one("reorder-stages", local(&ReorderStages)));
    BAGALG_RETURN_IF_ERROR(run_one("union-pushdown", local([](IrNode* n,
                                                             PassStats* s) {
      if (n->kind == IrKind::kUnionAll) PushIntoUnion(n, s);
    })));
    BAGALG_RETURN_IF_ERROR(
        run_one("join-side-pushdown", local([](IrNode* n, PassStats* s) {
          if (n->kind == IrKind::kCrossJoin) PushJoinSideFilters(n, s);
        })));
    BAGALG_RETURN_IF_ERROR(
        run_one("hash-join-detect", local([](IrNode* n, PassStats* s) {
          if (n->kind == IrKind::kCrossJoin) DetectHashJoin(n, s);
        })));
    if (SameStats(entry, plan->passes)) break;
  }

  // Fact-driven passes, then CSE keys over the final stage lists.
  BAGALG_RETURN_IF_ERROR(run_one("dead-column-elim", &DeadColumnElim));
  BAGALG_RETURN_IF_ERROR(run_one("const-fold", &ConstFold));
  BAGALG_RETURN_IF_ERROR(
      run_one("drop-redundant-dup-elim", &DropRedundantDupElim));
  BAGALG_RETURN_IF_ERROR(run_one("cse-mark", [](IrPlan* p) -> Status {
    MarkCse(p);
    return Status::Ok();
  }));
  return Status::Ok();
}

Status CheckFusionLegality(const IrPlan& plan) {
  if (plan.root == nullptr) {
    return Status::Internal("IR plan without a root");
  }
  return CheckNode(*plan.root);
}

}  // namespace bagalg::ir
