#ifndef BAGALG_LANG_SCRIPT_H_
#define BAGALG_LANG_SCRIPT_H_

/// \file script.h
/// A line-oriented script interpreter over the bagalg surface syntax —
/// the engine behind the examples/repl binary.
///
/// Commands (one per line; '#' comments):
///   let NAME = VALUE          bind a bag (the VALUE must be a bag literal)
///   schema NAME : TYPE        declare an input's bag type
///   eval EXPR                 evaluate and print the resulting object
///   count EXPR                evaluate and print the total cardinality
///   exec EXPR                 evaluate via the execution engines (fused IR
///                             by default, Volcano fallback; selection via
///                             BAGALG_EXEC_ENGINE) instead of the tree
///                             walker
///   type EXPR                 print the static type
///   analyze EXPR              print fragment info (nesting, power nesting)
///   explain EXPR              print the typed operator tree (EXPLAIN)
///   explain analyze EXPR      evaluate + print the tree with actual calls,
///                             cumulative time, and max bag sizes per node
///   explain cost EXPR         print the tree annotated with the static cost
///                             analysis: tractability class, polynomial
///                             degree, symbolic and estimated size bounds
///   explain ir EXPR           print the fused pipeline tree of the IR
///                             engine: batch size, fused stages, hash-join
///                             promotions, pushdowns, row bounds
///   explain ir --facts EXPR   same, with each node annotated with its
///                             proven dataflow facts: shape, dup-freedom,
///                             keys, constant columns, row interval
///   fragment K EXPR           check membership in BALG^K
///   optimize EXPR             print the rewritten expression
///   dump                      print the database as a replayable script
///   stats                     print evaluator statistics so far
///   timing on|off             print wall time + steps after each eval/count
///   reset                     clear database and statistics
///   \metrics                  print the process-wide metrics registry
///   \lint EXPR                run the static lint rules (symbolic input
///                             sizes) and print the diagnostics
///   \budget N [warn]          refuse (or, with warn, admit but count)
///                             queries whose statically estimated output
///                             exceeds N before running them
///   \budget off               clear the budget
///   \trace FILE               start tracing evaluations; the Chrome
///                             trace-event JSON is (re)written to FILE after
///                             every traced statement
///   \trace off                stop tracing (final flush included)
///   \timeout MS               give each following eval/count/exec statement
///                             a wall-clock deadline of MS milliseconds; a
///                             tripped query returns DeadlineExceeded and
///                             the session keeps running
///   \timeout off              clear the deadline
///   \memlimit BYTES           cap each statement's accounted allocations;
///                             a tripped query returns ResourceExhausted
///   \memlimit off             clear the memory cap
///   \journal [N]              print the last N (default 10) query-journal
///                             entries; every eval/count/exec statement is
///                             journaled — successes and failures alike
///   \journal export FILE      write the retained journal entries to FILE
///                             as JSONL (schema: docs/OBSERVABILITY.md)
///   \flightrec on|off         toggle the span flight recorder (on by
///                             default); with it on, a statement that trips
///                             a governor limit or injected fault leaves a
///                             last-K-spans dump behind (see
///                             TakeFlightDump / the repl binary)
///   \flightrec dump           print the flight-recorder ring right now
///   \flightrec clear          empty the flight-recorder ring
///   \prom [FILE]              Prometheus text exposition of the global
///                             metrics registry (printed, or written to
///                             FILE)

#include <optional>
#include <string>

#include "src/algebra/database.h"
#include "src/algebra/eval.h"
#include "src/analysis/static_cost.h"
#include "src/obs/flight.h"
#include "src/obs/journal.h"
#include "src/obs/trace.h"
#include "src/util/governor.h"
#include "src/util/result.h"

namespace bagalg::lang {

/// Stateful script interpreter. Not thread-safe.
class ScriptRunner {
 public:
  explicit ScriptRunner(Limits limits = Limits::Default());

  /// Executes one line; returns its printable output (possibly empty).
  Result<std::string> RunLine(const std::string& line);

  /// Executes a whole script, concatenating per-line outputs. Stops at the
  /// first error, which is returned annotated with its line number.
  Result<std::string> RunScript(const std::string& text);

  /// The accumulated database (for tests).
  const Database& database() const { return db_; }

  /// The runner's evaluator (tests inspect stats/profiles through this).
  const Evaluator& evaluator() const { return evaluator_; }

  /// The runner's tracer (enabled/cleared by the \trace command).
  const obs::Tracer& tracer() const { return tracer_; }

  /// The session's query journal (one entry per eval/count/exec statement).
  const obs::QueryJournal& journal() const { return journal_; }

  /// The session's span flight recorder (fed by the tracer whenever
  /// \flightrec is on, which is the default).
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

  /// When the last statement tripped a governor limit (deadline, memcap,
  /// cancellation, injected fault), this holds the flight-recorder dump
  /// captured at the abort — the last-K-spans context including the
  /// aborting span's ancestry. Returns it and clears it; empty when the
  /// last statement did not trip. The repl binary prints this after the
  /// error message.
  std::string TakeFlightDump() {
    std::string dump;
    dump.swap(last_flight_dump_);
    return dump;
  }

  /// The active admission budget (set/cleared by the \budget command).
  const std::optional<analysis::CostBudget>& budget() const {
    return budget_;
  }

  /// The session's cancellation token. Cancel() (async-signal-safe) aborts
  /// the statement currently running — it returns kCancelled and the
  /// session stays usable; the token is re-armed at each statement start.
  /// The REPL's Ctrl-C handler holds a copy of this token.
  CancellationToken cancel_token() const { return cancel_; }

  /// Current \timeout / \memlimit settings (0 = off), for tests and prompts.
  uint64_t timeout_ms() const { return timeout_ms_; }
  uint64_t memlimit_bytes() const { return memlimit_bytes_; }

  /// Programmatic equivalents of \timeout, \memlimit, and \budget — bagalgd
  /// configures each session's defaults through these instead of
  /// synthesizing command lines. 0 / nullopt turn the limit off.
  void set_timeout_ms(uint64_t ms) { timeout_ms_ = ms; }
  void set_memlimit_bytes(uint64_t bytes) { memlimit_bytes_ = bytes; }
  void set_budget(std::optional<analysis::CostBudget> budget);

  /// The structured result of the most recent successful eval/exec
  /// statement (count results are bags too and land here). Cleared at the
  /// start of each statement; nullopt after failures and non-result
  /// commands. bagalgd serializes this through net/wire.h instead of
  /// re-parsing the printable output.
  const std::optional<Value>& last_result() const { return last_result_; }

 private:
  Result<std::string> RunCommand(const std::string& line);

  /// GovernorOptions for one statement from the session's \timeout,
  /// \memlimit, and cancellation token.
  GovernorOptions StatementGovernorOptions();

  /// Journal-entry scaffold for an eval/count/exec statement: statement
  /// text/hash plus the static analyzer's verdict in `cost` when it is
  /// derivable.
  obs::JournalEntry BeginJournalEntry(
      const std::string& kind, const std::string& statement,
      const Result<analysis::CostAnalysis>& cost);

  /// The budget preflight for one statement: checks the session budget
  /// against `cost`, the statement's own exact-facts analysis, instead of
  /// analyzing it again. Empty when no budget is set. `cost` must outlive
  /// the returned function.
  Evaluator::Preflight StatementPreflight(
      const Result<analysis::CostAnalysis>& cost) const;

  /// Stamps the outcome (from the governor's trip kind and the Status),
  /// appends the entry, and on a governor trip captures the flight dump
  /// into last_flight_dump_.
  void FinishStatement(obs::JournalEntry& entry, const Status& status,
                       const ResourceGovernor& governor);

  /// Re-derives tracer_ enabled/buffering from trace_path_ / flight_on_.
  void SyncTracerMode();

  Database db_;
  Evaluator evaluator_;
  std::optional<Value> last_result_;
  obs::Tracer tracer_;
  obs::FlightRecorder flight_;
  obs::QueryJournal journal_;
  std::string trace_path_;
  std::string last_flight_dump_;
  bool flight_on_ = true;
  bool timing_ = false;
  std::optional<analysis::CostBudget> budget_;
  uint64_t timeout_ms_ = 0;
  uint64_t memlimit_bytes_ = 0;
  CancellationToken cancel_ = CancellationToken::Create();
};

}  // namespace bagalg::lang

#endif  // BAGALG_LANG_SCRIPT_H_
