#include "src/algebra/eval.h"

#include <sstream>
#include <vector>

#include "src/core/encoding.h"
#include "src/obs/metrics.h"

namespace bagalg {

void EvalStats::Merge(const EvalStats& other) {
  steps += other.steps;
  for (size_t k = 0; k < op_counts.size(); ++k) {
    op_counts[k] += other.op_counts[k];
  }
  max_distinct = std::max(max_distinct, other.max_distinct);
  max_mult_bits = std::max(max_mult_bits, other.max_mult_bits);
  if (other.max_standard_size > max_standard_size) {
    max_standard_size = other.max_standard_size;
  }
  max_counted_size = std::max(max_counted_size, other.max_counted_size);
  fixpoint_iterations += other.fixpoint_iterations;
}

std::string EvalStats::ToString() const {
  std::ostringstream os;
  os << "steps=" << steps << " max_distinct=" << max_distinct
     << " max_mult_bits=" << max_mult_bits
     << " fixpoint_iterations=" << fixpoint_iterations;
  if (!max_standard_size.IsZero()) {
    os << " max_standard_size=" << max_standard_size;
  }
  if (max_counted_size != 0) os << " max_counted_size=" << max_counted_size;
  os << "\nops:";
  for (size_t k = 0; k < op_counts.size(); ++k) {
    if (op_counts[k] == 0) continue;
    os << " " << ExprKindName(static_cast<ExprKind>(k)) << "=" << op_counts[k];
  }
  return os.str();
}

namespace {

/// One evaluation, carrying the binder stack.
class Walker {
 public:
  Walker(const Limits& limits, bool track_sizes, EvalStats* stats,
         const Database& db, obs::Tracer* tracer, NodeProfileMap* profiles)
      : limits_(limits),
        track_sizes_(track_sizes),
        stats_(stats),
        db_(db),
        // Pre-resolve the enabled check so the per-node cost of disabled
        // tracing is one null test.
        tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        profiles_(profiles) {}

  // Kept tiny so the disabled-instrumentation fast path inlines into every
  // recursive call site as branch + direct EvalNode call.
  Result<Value> Eval(const Expr& expr) {
    if (tracer_ == nullptr && profiles_ == nullptr) [[likely]] {
      return EvalNode(expr);
    }
    return EvalInstrumented(expr);
  }

 private:
  __attribute__((noinline)) Result<Value> EvalInstrumented(const Expr& expr) {
    obs::Span span;
    if (tracer_ != nullptr) {
      span = tracer_->StartSpan(ExprKindName(expr->kind), "eval");
    }
    uint64_t start_ns = profiles_ != nullptr ? obs::MonotonicNowNs() : 0;
    Result<Value> out = EvalNode(expr);
    uint64_t distinct = 0;
    uint64_t total = 0;
    if (out.ok() && out.value().IsBag()) {
      const Bag& bag = out.value().bag();
      distinct = bag.DistinctCount();
      total = bag.TotalCount().ToUint64().ok()
                  ? bag.TotalCount().ToUint64().value()
                  : ~uint64_t{0};
    }
    if (profiles_ != nullptr) {
      NodeProfile& p = (*profiles_)[expr.raw()];
      p.calls += 1;
      p.wall_ns += obs::MonotonicNowNs() - start_ns;
      p.max_distinct = std::max(p.max_distinct, distinct);
      p.max_total = std::max(p.max_total, total);
    }
    if (span.active()) {
      if (out.ok() && out.value().IsBag()) {
        span.AddAttr("distinct", distinct);
      } else if (!out.ok()) {
        span.AddAttr("error", StatusCodeName(out.status().code()));
      }
    }
    return out;
  }

  Result<Value> EvalNode(const Expr& expr) {
    stats_->steps += 1;
    if (limits_.max_eval_steps != 0 &&
        stats_->steps > limits_.max_eval_steps) {
      return Status::ResourceExhausted("evaluation step budget exhausted");
    }
    // Node visits scale with query size times data size (Map/Select bodies
    // re-enter here per entry), making this the evaluator's checkpoint.
    if (ticker_.Due()) {
      BAGALG_RETURN_IF_ERROR(ticker_.Flush());
    }
    const ExprNode& n = expr.node();
    stats_->op_counts[static_cast<size_t>(n.kind)] += 1;

    switch (n.kind) {
      case ExprKind::kInput: {
        BAGALG_ASSIGN_OR_RETURN(Bag bag, db_.Get(n.name));
        return Value::FromBag(std::move(bag));
      }
      case ExprKind::kConst:
        return *n.literal;
      case ExprKind::kVar: {
        if (n.index >= binders_.size()) {
          return Status::InvalidArgument("unbound variable during eval");
        }
        return binders_[binders_.size() - 1 - n.index];
      }
      case ExprKind::kAdditiveUnion:
      case ExprKind::kSubtract:
      case ExprKind::kMaxUnion:
      case ExprKind::kIntersect: {
        BAGALG_ASSIGN_OR_RETURN(Bag a, EvalBag(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(Bag b, EvalBag(n.children[1]));
        Result<Bag> r = [&] {
          switch (n.kind) {
            case ExprKind::kAdditiveUnion:
              return AdditiveUnion(a, b);
            case ExprKind::kSubtract:
              return Subtract(a, b);
            case ExprKind::kMaxUnion:
              return MaxUnion(a, b);
            default:
              return Intersect(a, b);
          }
        }();
        return Finish(std::move(r));
      }
      case ExprKind::kProduct: {
        BAGALG_ASSIGN_OR_RETURN(Bag a, EvalBag(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(Bag b, EvalBag(n.children[1]));
        return Finish(CartesianProduct(a, b, limits_));
      }
      case ExprKind::kTupling: {
        std::vector<Value> fields;
        fields.reserve(n.children.size());
        for (const Expr& c : n.children) {
          BAGALG_ASSIGN_OR_RETURN(Value v, Eval(c));
          fields.push_back(std::move(v));
        }
        return Value::Tuple(std::move(fields));
      }
      case ExprKind::kBagging: {
        BAGALG_ASSIGN_OR_RETURN(Value v, Eval(n.children[0]));
        Bag::Builder builder;
        builder.AddOne(std::move(v));
        BAGALG_ASSIGN_OR_RETURN(Bag bag, std::move(builder).Build());
        return Value::FromBag(std::move(bag));
      }
      case ExprKind::kPowerset: {
        BAGALG_ASSIGN_OR_RETURN(Bag b, EvalBag(n.children[0]));
        return Finish(Powerset(b, limits_));
      }
      case ExprKind::kPowerbag: {
        BAGALG_ASSIGN_OR_RETURN(Bag b, EvalBag(n.children[0]));
        return Finish(Powerbag(b, limits_));
      }
      case ExprKind::kBagDestroy: {
        BAGALG_ASSIGN_OR_RETURN(Bag b, EvalBag(n.children[0]));
        return Finish(BagDestroy(b, limits_));
      }
      case ExprKind::kDupElim: {
        BAGALG_ASSIGN_OR_RETURN(Bag b, EvalBag(n.children[0]));
        return Finish(DupElim(b));
      }
      case ExprKind::kAttrProj: {
        BAGALG_ASSIGN_OR_RETURN(Value v, Eval(n.children[0]));
        if (!v.IsTuple()) {
          return Status::InvalidArgument("proj applied to a non-tuple");
        }
        if (n.index < 1 || n.index > v.fields().size()) {
          return Status::InvalidArgument("proj attribute out of range");
        }
        return v.fields()[n.index - 1];
      }
      case ExprKind::kMap: {
        BAGALG_ASSIGN_OR_RETURN(Bag src, EvalBag(n.children[1]));
        Bag::Builder builder;
        for (const BagEntry& e : src.entries()) {
          if (ticker_.Due()) {
            BAGALG_RETURN_IF_ERROR(ticker_.Flush());
          }
          binders_.push_back(e.value);
          auto image = Eval(n.children[0]);
          binders_.pop_back();
          BAGALG_RETURN_IF_ERROR(image.status());
          builder.Add(std::move(image).value(), e.count);
        }
        return Finish(std::move(builder).Build());
      }
      case ExprKind::kSelect: {
        BAGALG_ASSIGN_OR_RETURN(Bag src, EvalBag(n.children[2]));
        Bag::Builder builder(src.element_type());
        for (const BagEntry& e : src.entries()) {
          if (ticker_.Due()) {
            BAGALG_RETURN_IF_ERROR(ticker_.Flush());
          }
          binders_.push_back(e.value);
          auto lhs = Eval(n.children[0]);
          auto rhs = Eval(n.children[1]);
          binders_.pop_back();
          BAGALG_RETURN_IF_ERROR(lhs.status());
          BAGALG_RETURN_IF_ERROR(rhs.status());
          if (lhs.value() == rhs.value()) builder.Add(e.value, e.count);
        }
        return Finish(std::move(builder).Build());
      }
      case ExprKind::kNest: {
        BAGALG_ASSIGN_OR_RETURN(Bag src, EvalBag(n.children[0]));
        std::vector<size_t> attrs0;
        for (size_t a : n.attrs) {
          if (a == 0) return Status::InvalidArgument("nest attrs are 1-based");
          attrs0.push_back(a - 1);
        }
        return Finish(Nest(src, attrs0));
      }
      case ExprKind::kUnnest: {
        BAGALG_ASSIGN_OR_RETURN(Bag src, EvalBag(n.children[0]));
        if (n.attrs.empty() || n.attrs[0] == 0) {
          return Status::InvalidArgument("unnest attr is 1-based");
        }
        return Finish(Unnest(src, n.attrs[0] - 1, limits_));
      }
      case ExprKind::kIfp:
      case ExprKind::kBoundedIfp: {
        BAGALG_ASSIGN_OR_RETURN(Bag current, EvalBag(n.children[1]));
        Bag bound;
        bool bounded = n.kind == ExprKind::kBoundedIfp;
        if (bounded) {
          BAGALG_ASSIGN_OR_RETURN(bound, EvalBag(n.children[2]));
        }
        uint64_t iterations = 0;
        while (true) {
          if (limits_.max_fixpoint_iterations != 0 &&
              iterations >= limits_.max_fixpoint_iterations) {
            return Status::ResourceExhausted(
                "fixpoint iteration budget exhausted after " +
                std::to_string(iterations) + " rounds");
          }
          ++iterations;
          stats_->fixpoint_iterations += 1;
          obs::Span iter_span;
          if (tracer_ != nullptr) {
            iter_span = tracer_->StartSpan("ifp.iteration", "eval");
            iter_span.AddAttr("iteration", iterations);
          }
          binders_.push_back(Value::FromBag(current));
          auto step = Eval(n.children[0]);
          binders_.pop_back();
          BAGALG_RETURN_IF_ERROR(step.status());
          if (!step.value().IsBag()) {
            return Status::InvalidArgument("ifp body must denote a bag");
          }
          BAGALG_ASSIGN_OR_RETURN(Bag next,
                                  MaxUnion(step.value().bag(), current));
          if (bounded) {
            BAGALG_ASSIGN_OR_RETURN(next, Intersect(next, bound));
          }
          BAGALG_RETURN_IF_ERROR(Observe(next));
          if (iter_span.active()) {
            iter_span.AddAttr("distinct", uint64_t{next.DistinctCount()});
          }
          if (next == current) break;
          current = std::move(next);
        }
        return Value::FromBag(std::move(current));
      }
    }
    return Status::Internal("unhandled expression kind in eval");
  }

  Result<Bag> EvalBag(const Expr& expr) {
    BAGALG_ASSIGN_OR_RETURN(Value v, Eval(expr));
    if (!v.IsBag()) {
      return Status::InvalidArgument(
          std::string(ExprKindName(expr->kind)) +
          " was expected to denote a bag but denoted a " +
          v.type().ToString());
    }
    return v.bag();
  }

  /// Applies limit checks + statistics to a produced bag.
  Status Observe(const Bag& bag) {
    BAGALG_RETURN_IF_ERROR(CheckDistinctLimit(bag.DistinctCount(), limits_));
    stats_->max_distinct =
        std::max(stats_->max_distinct, uint64_t{bag.DistinctCount()});
    for (const BagEntry& e : bag.entries()) {
      if (ticker_.Due()) {
        BAGALG_RETURN_IF_ERROR(ticker_.Flush());
      }
      uint64_t bits = e.count.BitLength();
      stats_->max_mult_bits = std::max(stats_->max_mult_bits, bits);
      BAGALG_RETURN_IF_ERROR(CheckMultLimit(e.count, limits_));
    }
    if (track_sizes_) {
      BigNat size = StandardEncodingSize(bag);
      if (size > stats_->max_standard_size) {
        stats_->max_standard_size = std::move(size);
      }
      stats_->max_counted_size =
          std::max(stats_->max_counted_size, CountedEncodingSize(bag));
    }
    return Status::Ok();
  }

  Result<Value> Finish(Result<Bag> bag) {
    BAGALG_RETURN_IF_ERROR(bag.status());
    BAGALG_RETURN_IF_ERROR(Observe(bag.value()));
    return Value::FromBag(std::move(bag).value());
  }

  const Limits& limits_;
  bool track_sizes_;
  EvalStats* stats_;
  const Database& db_;
  obs::Tracer* tracer_;
  NodeProfileMap* profiles_;
  std::vector<Value> binders_;
  // Bound to the governor installed by Evaluator::Eval (inert when none).
  // One ticker for the whole walk: node visits, entry loops, and Observe
  // scans all drain the same stride. Checkpoint-only (no bytes per tick):
  // the bag builders and kernels below account their own output bytes.
  CheckpointTicker ticker_;
};

}  // namespace

Result<Value> Evaluator::Eval(const Expr& expr, const Database& db) {
  return Eval(expr, db, preflight_);
}

Result<Value> Evaluator::Eval(const Expr& expr, const Database& db,
                              const Preflight& preflight) {
  if (preflight) {
    BAGALG_RETURN_IF_ERROR(preflight(expr, db));
  }
  // Install the per-query governor for the whole walk; the Walker's ticker
  // binds to it at construction, after the scope is in place.
  GovernorScope scope(governor_);
  Walker walker(limits_, track_sizes_, &stats_, db, tracer_,
                node_profiling_ ? &node_profiles_ : nullptr);
  Result<Value> out = walker.Eval(expr);
  if (governor_ != nullptr) obs::MirrorGovernorStats();
  return out;
}

Result<Bag> Evaluator::EvalToBag(const Expr& expr, const Database& db) {
  BAGALG_ASSIGN_OR_RETURN(Value v, Eval(expr, db));
  if (!v.IsBag()) {
    return Status::InvalidArgument("query result is not a bag: " +
                                   v.type().ToString());
  }
  return v.bag();
}

}  // namespace bagalg
