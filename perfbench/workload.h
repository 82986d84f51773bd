#ifndef BAGALG_PERFBENCH_WORKLOAD_H_
#define BAGALG_PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// Seeded, engine-neutral workload generator for the end-to-end benchmark.
///
/// A workload is a set of sessions. Each session has set-up lines (`let`
/// bindings, run once) and a cycle of timed statements that bagbench
/// replays in order, over and over. Every cycle leaves the session's
/// database exactly as it found it (scratch bags rebound mid-cycle are reset
/// at its end), so the expected result of each cycle position is fixed and
/// the oracle computes it once. Statements are plain BALG script lines:
/// nothing here names an engine beyond the language's own `eval` / `exec`
/// pins, so the workloads outlive changes to the engines behind them.
///
/// Template counts per cycle are fixed and only their order, operands and
/// data are drawn from the seed, so two seeds load the system alike.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class StmtKind { kLet, kEval, kCount, kExec };

struct Statement {
  StmtKind kind = StmtKind::kEval;
  /// The complete script line, e.g. "eval uplus(R0, R1)".
  std::string line;
};

enum class Wire { kJson, kBag1 };

struct SessionSpec {
  std::string name;
  Wire wire = Wire::kJson;
  /// `let` lines run once at set-up, before any timed statement.
  std::vector<std::string> load;
  /// Timed statements, replayed in order; state-neutral as a whole.
  std::vector<Statement> cycle;
};

struct WorkloadSpec {
  std::string name;
  /// Runs through an in-process lang::ScriptRunner instead of bagalgd.
  bool in_process = false;
  std::vector<SessionSpec> sessions;
  /// Open-loop arrival rate across all connections, statements per second
  /// (server workloads, traced run only): about a quarter of the
  /// closed-loop throughput measured on a 4-CPU virtual machine when the
  /// benchmark was defined, leaving headroom for the host taking half the
  /// CPU away.
  double open_loop_rate = 0;
};

/// Builds workload `name` from `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out);

}  // namespace perfbench

#endif  // BAGALG_PERFBENCH_WORKLOAD_H_
