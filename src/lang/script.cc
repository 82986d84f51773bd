#include "src/lang/script.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/algebra/explain.h"
#include "src/algebra/rewrite.h"
#include "src/algebra/typecheck.h"
#include "src/analysis/lint.h"
#include "src/analysis/static_cost.h"
#include "src/exec/compile.h"
#include "src/ir/lower.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/util/build_info.h"
#include "src/util/strings.h"

namespace bagalg::lang {

namespace {

/// Splits "cmd rest" on the first whitespace run.
std::pair<std::string, std::string> SplitCommand(const std::string& line) {
  size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) return {"", ""};
  size_t end = line.find_first_of(" \t", start);
  if (end == std::string::npos) return {line.substr(start), ""};
  size_t rest = line.find_first_not_of(" \t", end);
  return {line.substr(start, end - start),
          rest == std::string::npos ? "" : line.substr(rest)};
}

/// Attaches a stack-allocated per-statement governor to the evaluator and
/// guarantees detachment on every exit path (the Eval call sites return
/// early through BAGALG_ASSIGN_OR_RETURN, so a bare set/unset pair would
/// leave the evaluator pointing at a dead stack frame).
class EvalGovernor {
 public:
  EvalGovernor(Evaluator& evaluator, const GovernorOptions& options)
      : evaluator_(evaluator), governor_(options) {
    evaluator_.set_governor(&governor_);
  }
  ~EvalGovernor() {
    evaluator_.set_governor(nullptr);
    obs::MirrorGovernorStats();
  }
  EvalGovernor(const EvalGovernor&) = delete;
  EvalGovernor& operator=(const EvalGovernor&) = delete;

  ResourceGovernor* get() { return &governor_; }

 private:
  Evaluator& evaluator_;
  ResourceGovernor governor_;
};

/// Parses the argument of \timeout / \memlimit: a decimal count or "off".
Result<uint64_t> ParseLimitArg(const std::string& text,
                               const std::string& syntax) {
  if (text.empty()) return Status::ParseError(syntax);
  if (text == "off") return uint64_t{0};
  auto n = BigNat::FromDecimal(text);
  if (!n.ok()) return Status::ParseError(syntax);
  auto v = n->ToUint64();
  if (!v.ok()) return Status::ParseError(syntax);
  return *v;
}

}  // namespace

ScriptRunner::ScriptRunner(Limits limits)
    : evaluator_(limits), tracer_(/*enabled=*/false) {
  // The flight recorder is on by default: the tracer runs in non-buffering
  // mode feeding only the ring, so every session carries a bounded
  // last-K-spans black box without accumulating an unbounded trace.
  tracer_.set_flight_recorder(&flight_);
  SyncTracerMode();
  // Exported journals lead with the build identity (docs/OBSERVABILITY.md):
  // which binary, which commit, which default engine produced the entries.
  journal_.set_header_json(
      "{\"header\":true,\"build\":" + BuildInfoJson() +
      ",\"engine_default\":" +
      std::string("\"") + exec::EngineName(exec::EngineFromEnv()) + "\"}");
}

void ScriptRunner::set_budget(std::optional<analysis::CostBudget> budget) {
  budget_ = std::move(budget);
  evaluator_.set_preflight(
      budget_.has_value() ? analysis::MakeBudgetPreflight(*budget_)
                          : Evaluator::Preflight{});
}

void ScriptRunner::SyncTracerMode() {
  tracer_.set_buffering(!trace_path_.empty());
  flight_.set_enabled(flight_on_);
  const bool enabled = flight_on_ || !trace_path_.empty();
  tracer_.set_enabled(enabled);
  evaluator_.set_tracer(enabled ? &tracer_ : nullptr);
}

obs::JournalEntry ScriptRunner::BeginJournalEntry(
    const std::string& kind, const std::string& statement,
    const Result<analysis::CostAnalysis>& cost) {
  obs::JournalEntry entry;
  entry.kind = kind;
  entry.statement = statement;
  entry.statement_hash = obs::HashStatementText(statement);
  // Best-effort static verdict; an expression the analyzer cannot cost
  // (unknown names, type errors caught later) journals with empty fields.
  if (cost.ok()) {
    entry.tractability = analysis::TractabilityName(cost->root.cls);
    entry.cost_bound = cost->root.bound.ToString();
  }
  return entry;
}

Evaluator::Preflight ScriptRunner::StatementPreflight(
    const Result<analysis::CostAnalysis>& cost) const {
  if (!budget_.has_value()) return {};
  return [&cost, budget = &*budget_](const Expr& expr, const Database&) {
    return analysis::CheckBudget(expr, cost, *budget);
  };
}

void ScriptRunner::FinishStatement(obs::JournalEntry& entry,
                                   const Status& status,
                                   const ResourceGovernor& governor) {
  entry.bytes_accounted = governor.bytes_allocated();
  const TripKind trip = governor.trip_kind();
  if (status.ok()) {
    entry.outcome = "ok";
  } else if (trip != TripKind::kNone) {
    entry.outcome = TripKindName(trip);
  } else if (status.code() == StatusCode::kBudgetExceeded) {
    entry.outcome = "budget-refused";
  } else {
    entry.outcome = "error";
  }
  if (!status.ok()) entry.status_message = status.ToString();
  journal_.Append(std::move(entry));
  static obs::Counter* const statements =
      obs::GlobalMetrics().GetCounter("repl.statements");
  statements->Increment();
  // A governor trip is exactly when the black box earns its keep: snapshot
  // the ring before the next statement overwrites it.
  if (trip != TripKind::kNone && flight_on_) {
    last_flight_dump_ = obs::FormatFlightDump(flight_.Snapshot());
    obs::GlobalMetrics().GetCounter("repl.flight.dumps")->Increment();
  }
}

Result<std::string> ScriptRunner::RunLine(const std::string& line) {
  Result<std::string> out = RunCommand(line);
  // Keep the trace file valid after every traced statement, so scripts that
  // end (or die) without `\trace off` still leave a loadable trace behind.
  if (tracer_.enabled() && !trace_path_.empty()) {
    (void)obs::WriteChromeTraceFile(tracer_, trace_path_);
  }
  return out;
}

Result<std::string> ScriptRunner::RunCommand(const std::string& line) {
  std::string stripped = line.substr(0, line.find('#'));
  auto [cmd, rest] = SplitCommand(stripped);
  // Only a successful eval/count/exec leaves a result behind.
  last_result_.reset();
  if (cmd.empty()) return std::string();

  if (cmd == "let") {
    size_t eq = rest.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("let syntax: let NAME = VALUE");
    }
    auto [name, unused] = SplitCommand(rest.substr(0, eq));
    (void)unused;
    if (name.empty() || IsReservedWord(name)) {
      return Status::ParseError("invalid bag name in let");
    }
    BAGALG_ASSIGN_OR_RETURN(Value v, ParseValue(rest.substr(eq + 1)));
    if (!v.IsBag()) {
      return Status::InvalidArgument("let binds bags; got a " +
                                     v.type().ToString());
    }
    BAGALG_RETURN_IF_ERROR(db_.Put(name, v.bag()));
    return name + " : " + v.type().ToString();
  }

  if (cmd == "schema") {
    size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("schema syntax: schema NAME : TYPE");
    }
    auto [name, unused] = SplitCommand(rest.substr(0, colon));
    (void)unused;
    BAGALG_ASSIGN_OR_RETURN(Type t, ParseType(rest.substr(colon + 1)));
    BAGALG_RETURN_IF_ERROR(db_.Declare(name, t));
    return name + " : " + t.ToString();
  }

  if (cmd == "eval" || cmd == "count") {
    BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(rest));
    // One exact-facts analysis per statement: the journal's verdict and the
    // budget preflight both read it.
    const Result<analysis::CostAnalysis> cost = analysis::AnalyzeCost(
        e, db_.schema(), analysis::CostFacts::Exact(db_));
    obs::JournalEntry entry = BeginJournalEntry(cmd, rest, cost);
    entry.engine = "eval";
    uint64_t steps_before = evaluator_.stats().steps;
    uint64_t t0 = obs::MonotonicNowNs();
    uint64_t cpu0 = obs::ThreadCpuNowNs();
    // Every statement runs governed: the session's \timeout / \memlimit
    // become this statement's budget, and the session token makes Ctrl-C
    // (or any cross-thread Cancel) a typed kCancelled instead of a dead
    // process. The governor lives on this stack frame only.
    cancel_.Reset();
    EvalGovernor governed(evaluator_, StatementGovernorOptions());
    Result<Value> vr = evaluator_.Eval(e, db_, StatementPreflight(cost));
    uint64_t wall_ns = obs::MonotonicNowNs() - t0;
    uint64_t cpu1 = obs::ThreadCpuNowNs();
    uint64_t steps = evaluator_.stats().steps - steps_before;
    entry.wall_ns = wall_ns;
    entry.cpu_ns = cpu1 >= cpu0 ? cpu1 - cpu0 : 0;
    entry.steps = steps;
    if (vr.ok() && vr->IsBag()) {
      entry.result_distinct = uint64_t{vr->bag().DistinctCount()};
    }
    FinishStatement(entry, vr.status(), *governed.get());
    BAGALG_ASSIGN_OR_RETURN(Value v, std::move(vr));
    last_result_ = v;
    static obs::Counter* const eval_steps =
        obs::GlobalMetrics().GetCounter("repl.eval.steps");
    static obs::Histogram* const eval_wall_us =
        obs::GlobalMetrics().GetHistogram("repl.eval.wall_us");
    eval_steps->Increment(steps);
    eval_wall_us->Observe(wall_ns / 1000);
    std::string out = cmd == "count"
                          ? (v.IsBag() ? v.bag().TotalCount().ToString()
                                       : std::string())
                          : v.ToString();
    if (cmd == "count" && !v.IsBag()) {
      return Status::InvalidArgument("count requires a bag result");
    }
    if (timing_) {
      std::ostringstream os;
      os << out << "\n(time=" << static_cast<double>(wall_ns) / 1e6
         << "ms steps=" << steps << ")";
      return os.str();
    }
    return out;
  }

  if (cmd == "exec") {
    // Run through the execution engines (fused IR by default, Volcano as
    // fallback — see exec::Engine) instead of the tree-walking evaluator;
    // with tracing on, per-pipeline spans land in the same trace as the
    // evaluator's.
    BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(rest));
    const Result<analysis::CostAnalysis> cost = analysis::AnalyzeCost(
        e, db_.schema(), analysis::CostFacts::Exact(db_));
    obs::JournalEntry entry = BeginJournalEntry(cmd, rest, cost);
    uint64_t t0 = obs::MonotonicNowNs();
    uint64_t cpu0 = obs::ThreadCpuNowNs();
    exec::ExecOptions options;
    options.tracer = tracer_.enabled() ? &tracer_ : nullptr;
    options.preflight = StatementPreflight(cost);
    cancel_.Reset();
    ResourceGovernor governor(StatementGovernorOptions());
    options.governor = &governor;
    exec::ExecReport report;
    options.report = &report;
    Result<Bag> br = exec::RunPipeline(e, db_, options);
    uint64_t wall_ns = obs::MonotonicNowNs() - t0;
    uint64_t cpu1 = obs::ThreadCpuNowNs();
    entry.engine = exec::EngineName(report.engine_used);
    entry.wall_ns = wall_ns;
    entry.cpu_ns = cpu1 >= cpu0 ? cpu1 - cpu0 : 0;
    if (br.ok()) entry.result_distinct = uint64_t{br->DistinctCount()};
    FinishStatement(entry, br.status(), governor);
    BAGALG_ASSIGN_OR_RETURN(Bag b, std::move(br));
    last_result_ = Value::FromBag(b);
    std::string out = last_result_->ToString();
    if (timing_) {
      std::ostringstream os;
      os << out << "\n(time=" << static_cast<double>(wall_ns) / 1e6 << "ms)";
      return os.str();
    }
    return out;
  }

  if (cmd == "type") {
    BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(rest));
    BAGALG_ASSIGN_OR_RETURN(Type t, TypeOf(e, db_.schema()));
    return t.ToString();
  }

  if (cmd == "analyze") {
    BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(rest));
    BAGALG_ASSIGN_OR_RETURN(ExprAnalysis a, AnalyzeExpr(e, db_.schema()));
    std::ostringstream os;
    os << "type=" << a.type.ToString()
       << " fragment=BALG^" << a.max_type_nesting
       << " power_nesting=" << a.power_nesting << " nodes=" << a.node_count;
    if (a.uses_powerbag) os << " +powerbag";
    if (a.uses_fixpoint) os << " +fixpoint";
    return os.str();
  }

  if (cmd == "explain") {
    // `explain analyze EXPR` evaluates with per-node profiling; plain
    // `explain EXPR` stays static.
    auto [sub, analyze_rest] = SplitCommand(rest);
    std::string plan;
    if (sub == "analyze") {
      BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(analyze_rest));
      BAGALG_ASSIGN_OR_RETURN(plan, ExplainAnalyzeExpr(e, db_, evaluator_));
    } else if (sub == "cost") {
      BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(analyze_rest));
      BAGALG_ASSIGN_OR_RETURN(
          plan, analysis::ExplainCostExpr(e, db_.schema(),
                                          analysis::CostFacts::Exact(db_)));
    } else if (sub == "ir") {
      // `explain ir EXPR`: the fused pipeline tree the IR engine would
      // run — batch size, fused stages per node, hash-join promotions,
      // pushdown counts, and static_cost row bounds. `explain ir --facts
      // EXPR` additionally annotates each node with its proven dataflow
      // facts (shape, dup-freedom, keys, constant columns, row interval).
      auto [flag, facts_rest] = SplitCommand(analyze_rest);
      if (flag == "--facts") {
        BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(facts_rest));
        BAGALG_ASSIGN_OR_RETURN(plan, ir::ExplainIrFacts(e, db_));
      } else {
        BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(analyze_rest));
        BAGALG_ASSIGN_OR_RETURN(plan, ir::ExplainIr(e, db_));
      }
    } else {
      BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(rest));
      BAGALG_ASSIGN_OR_RETURN(plan, ExplainExpr(e, db_.schema()));
    }
    if (!plan.empty() && plan.back() == '\n') plan.pop_back();
    return plan;
  }

  if (cmd == "timing") {
    if (rest == "on") {
      timing_ = true;
      return std::string("timing on");
    }
    if (rest == "off") {
      timing_ = false;
      return std::string("timing off");
    }
    return Status::ParseError("timing syntax: timing on|off");
  }

  if (cmd == "\\lint") {
    BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(rest));
    analysis::LintOptions options;
    if (budget_.has_value()) options.budget = &*budget_;
    // Symbolic facts: lint is a *static* verdict, independent of whatever
    // bags happen to be loaded right now.
    BAGALG_ASSIGN_OR_RETURN(
        std::vector<analysis::LintDiag> diags,
        analysis::RunLint(e, db_.schema(), analysis::CostFacts::Symbolic(),
                          options));
    if (diags.empty()) return std::string("no lint diagnostics");
    std::ostringstream os;
    for (size_t i = 0; i < diags.size(); ++i) {
      if (i > 0) os << "\n";
      os << LintSeverityName(diags[i].severity) << ": "
         << diags[i].ToString();
    }
    return os.str();
  }

  if (cmd == "\\budget") {
    if (rest == "off") {
      budget_.reset();
      evaluator_.set_preflight({});
      return std::string("budget off");
    }
    auto [size_text, mode] = SplitCommand(rest);
    BAGALG_ASSIGN_OR_RETURN(BigNat max, BigNat::FromDecimal(size_text));
    if (!mode.empty() && mode != "warn") {
      return Status::ParseError("budget syntax: \\budget N [warn] | off");
    }
    analysis::CostBudget budget;
    budget.max_estimated_size = max;
    budget.on_exceed = mode == "warn"
                           ? analysis::CostBudget::OnExceed::kWarn
                           : analysis::CostBudget::OnExceed::kFail;
    budget_ = budget;
    evaluator_.set_preflight(analysis::MakeBudgetPreflight(budget));
    return "budget " + max.ToString() +
           (mode == "warn" ? std::string(" (warn)") : std::string());
  }

  if (cmd == "\\timeout") {
    BAGALG_ASSIGN_OR_RETURN(
        timeout_ms_,
        ParseLimitArg(rest, "timeout syntax: \\timeout MS | off"));
    if (timeout_ms_ == 0) return std::string("timeout off");
    return "timeout " + std::to_string(timeout_ms_) + "ms";
  }

  if (cmd == "\\memlimit") {
    BAGALG_ASSIGN_OR_RETURN(
        memlimit_bytes_,
        ParseLimitArg(rest, "memlimit syntax: \\memlimit BYTES | off"));
    if (memlimit_bytes_ == 0) return std::string("memlimit off");
    return "memlimit " + std::to_string(memlimit_bytes_) + " bytes";
  }

  if (cmd == "\\metrics") {
    std::string dump = obs::GlobalMetrics().Snapshot().ToString();
    return dump.empty() ? std::string("(no metrics recorded)") : dump;
  }

  if (cmd == "\\trace") {
    if (rest.empty()) {
      return Status::ParseError("trace syntax: \\trace FILE | \\trace off");
    }
    if (rest == "off") {
      std::string path;
      path.swap(trace_path_);
      // Back to flight-only mode (or fully off if \flightrec off too).
      SyncTracerMode();
      if (!path.empty()) {
        BAGALG_RETURN_IF_ERROR(obs::WriteChromeTraceFile(tracer_, path));
        return "trace written to " + path + " (" +
               std::to_string(tracer_.event_count()) + " events)";
      }
      return std::string("tracing off");
    }
    trace_path_ = rest;
    tracer_.Clear();
    SyncTracerMode();
    // Write the (empty) trace now so an unwritable path fails loudly here
    // rather than silently at the per-statement flushes.
    Status st = obs::WriteChromeTraceFile(tracer_, trace_path_);
    if (!st.ok()) {
      trace_path_.clear();
      SyncTracerMode();
      return st;
    }
    return "tracing to " + trace_path_;
  }

  if (cmd == "\\journal") {
    auto [sub, arg] = SplitCommand(rest);
    if (sub == "export") {
      if (arg.empty()) {
        return Status::ParseError(
            "journal syntax: \\journal [N] | \\journal export FILE");
      }
      BAGALG_RETURN_IF_ERROR(journal_.ExportJsonl(arg));
      uint64_t retained =
          std::min<uint64_t>(journal_.total(), journal_.capacity());
      return "journal written to " + arg + " (" + std::to_string(retained) +
             " entries)";
    }
    size_t n = 10;
    if (!sub.empty()) {
      auto parsed = BigNat::FromDecimal(sub);
      Result<uint64_t> v = parsed.ok() ? parsed->ToUint64()
                                       : Result<uint64_t>(parsed.status());
      if (!v.ok() || *v == 0) {
        return Status::ParseError(
            "journal syntax: \\journal [N] | \\journal export FILE");
      }
      n = static_cast<size_t>(*v);
    }
    std::string out = journal_.ToString(n);
    return out.empty() ? std::string("(journal empty)") : out;
  }

  if (cmd == "\\flightrec") {
    if (rest == "on") {
      flight_on_ = true;
      SyncTracerMode();
      return std::string("flight recorder on");
    }
    if (rest == "off") {
      flight_on_ = false;
      SyncTracerMode();
      return std::string("flight recorder off");
    }
    if (rest == "dump") {
      return obs::FormatFlightDump(flight_.Snapshot());
    }
    if (rest == "clear") {
      flight_.Clear();
      return std::string("flight recorder cleared");
    }
    return Status::ParseError(
        "flightrec syntax: \\flightrec on|off|dump|clear");
  }

  if (cmd == "\\prom") {
    std::string text = obs::GlobalMetrics().Snapshot().ToPrometheusText();
    if (rest.empty()) {
      if (!text.empty() && text.back() == '\n') text.pop_back();
      return text.empty() ? std::string("(no metrics recorded)") : text;
    }
    std::ofstream file(rest, std::ios::trunc);
    if (!file) return Status::InvalidArgument("cannot open " + rest);
    file << text;
    file.flush();
    if (!file) return Status::InvalidArgument("failed writing " + rest);
    return "metrics written to " + rest;
  }

  if (cmd == "fragment") {
    // fragment K EXPR — is the expression within BALG^K?
    auto [k_text, expr_text] = SplitCommand(rest);
    BAGALG_ASSIGN_OR_RETURN(BigNat k, BigNat::FromDecimal(k_text));
    BAGALG_ASSIGN_OR_RETURN(uint64_t kv, k.ToUint64());
    BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(expr_text));
    Status st = CheckFragment(e, db_.schema(), static_cast<int>(kv));
    return st.ok() ? "within BALG^" + k_text : st.ToString();
  }

  if (cmd == "optimize") {
    BAGALG_ASSIGN_OR_RETURN(Expr e, ParseExpr(rest));
    BAGALG_ASSIGN_OR_RETURN(Expr opt, Optimize(e, db_.schema()));
    return opt.ToString();
  }

  if (cmd == "dump") {
    // Emit the database as a replayable script.
    std::ostringstream os;
    for (const auto& [name, bag] : db_.instances()) {
      os << "let " << name << " = " << bag.ToString() << "\n";
    }
    std::string text = os.str();
    if (!text.empty()) text.pop_back();
    return text;
  }

  if (cmd == "stats") {
    return evaluator_.stats().ToString();
  }

  if (cmd == "reset") {
    db_ = Database();
    evaluator_.ResetStats();
    return std::string("ok");
  }

  return Status::ParseError("unknown command '" + cmd + "'");
}

GovernorOptions ScriptRunner::StatementGovernorOptions() {
  GovernorOptions options;
  options.wall_limit_ns = timeout_ms_ * uint64_t{1000000};
  options.memory_limit_bytes = memlimit_bytes_;
  options.cancel = cancel_;
  return options;
}

namespace {

/// Bracket balance of a line with its '#' comment stripped — used to join
/// multi-line commands.
int BracketBalance(const std::string& line) {
  int balance = 0;
  for (char c : line) {
    if (c == '#') break;
    if (c == '(' || c == '[' || c == '{') ++balance;
    if (c == ')' || c == ']' || c == '}') --balance;
  }
  return balance;
}

}  // namespace

Result<std::string> ScriptRunner::RunScript(const std::string& text) {
  std::ostringstream out;
  size_t line_no = 0;
  size_t command_start = 0;
  std::string pending;
  int balance = 0;
  for (const std::string& line : SplitString(text, '\n')) {
    ++line_no;
    if (pending.empty()) command_start = line_no;
    // Commands may span lines while brackets remain open.
    if (!pending.empty()) pending += ' ';
    pending += line.substr(0, line.find('#'));
    balance += BracketBalance(line);
    if (balance > 0) continue;
    balance = 0;
    std::string command;
    std::swap(command, pending);
    auto r = RunLine(command);
    if (!r.ok()) {
      return Status(r.status().code(),
                    "line " + std::to_string(command_start) + ": " +
                        r.status().message());
    }
    if (!r->empty()) out << *r << "\n";
  }
  if (!pending.empty() && pending.find_first_not_of(" \t") != std::string::npos) {
    return Status::ParseError("line " + std::to_string(command_start) +
                              ": unbalanced brackets at end of script");
  }
  return out.str();
}

}  // namespace bagalg::lang
